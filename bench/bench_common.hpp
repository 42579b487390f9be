#pragma once

// Shared helpers for the per-table / per-figure benchmark binaries.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cc/ccsd.hpp"
#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "fci/fci.hpp"
#include "ops/jordan_wigner.hpp"
#include "ops/packed_hamiltonian.hpp"
#include "scf/mo_integrals.hpp"
#include "scf/rhf.hpp"
#include "vmc/driver.hpp"

namespace nnqs::bench {

/// Everything the benches need about one molecular system.
struct Pipeline {
  chem::Molecule mol;
  scf::AoIntegrals ao;
  scf::ScfResult hf;
  scf::MoIntegrals mo;
  ops::SpinHamiltonian ham;
  int nQubits = 0;
};

inline Pipeline buildPipeline(const chem::Molecule& mol, const std::string& basisName,
                              int nFrozen = 0) {
  Pipeline p;
  p.mol = mol;
  const chem::BasisSet basis = chem::buildBasis(mol, basisName);
  p.ao = scf::computeAoIntegrals(mol, basis);
  p.hf = scf::runHartreeFock(p.ao, mol);
  p.mo = scf::transformToMo(p.ao, p.hf, nFrozen);
  p.ham = ops::jordanWigner(p.mo);
  p.nQubits = p.ham.nQubits;
  return p;
}

inline Pipeline buildPipeline(const std::string& name, const std::string& basisName,
                              int nFrozen = 0) {
  return buildPipeline(chem::makeMolecule(name), basisName, nFrozen);
}

inline nqs::QiankunNetConfig paperNetConfig(const Pipeline& p, std::uint64_t seed = 7) {
  nqs::QiankunNetConfig cfg;  // paper §4.1 architecture
  cfg.nQubits = p.nQubits;
  cfg.nAlpha = p.mo.nAlpha;
  cfg.nBeta = p.mo.nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 512;
  cfg.phaseHiddenLayers = 2;
  cfg.seed = seed;
  return cfg;
}

/// Tiny argv helper: --key value / --flag.  `known` names every key the
/// binary reads; any other argument exits with status 2 naming it, so a
/// stale or misspelt flag cannot silently fall back to a default.
class Args {
 public:
  Args(int argc, char** argv, const std::vector<std::string>& known) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0 ||
          std::find(known.begin(), known.end(), a.substr(2)) == known.end()) {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], a.c_str());
        std::exit(2);
      }
      a = a.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
        kv_[a] = argv[++i];
      else
        kv_[a] = "1";
    }
  }
  [[nodiscard]] bool flag(const std::string& k) const { return kv_.count(k) > 0; }
  [[nodiscard]] std::string get(const std::string& k, const std::string& dflt) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? dflt : it->second;
  }
  [[nodiscard]] long getInt(const std::string& k, long dflt) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? dflt : std::stol(it->second);
  }
  [[nodiscard]] double getReal(const std::string& k, double dflt) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? dflt : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

inline void quietLogs() { log::setLevel(log::Level::kWarn); }

}  // namespace nnqs::bench
