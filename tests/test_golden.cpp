// Golden bits: a fixed-seed VMC run must reproduce a committed energy
// history exactly, under policies that all promise the same bits.  A change
// that moves any energy by one ulp fails here, naming the first iteration
// that differs.
//
// The array depends on the compiler and libm (std::exp/log round differently
// across implementations), not on build flags: the library and the tests are
// built with FP contraction off, so -march and the build type leave it as is.
// The GEMM's explicit fused multiply-adds are correctly rounded wherever they
// run (libm's fma, or one instruction), so a scalar-only build gives the
// same array.
// To re-bless after a deliberate bit change, paste the array the failure
// message prints over kGoldenHistory and record the change in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "ops/jordan_wigner.hpp"
#include "scf/mo_integrals.hpp"
#include "scf/rhf.hpp"
#include "vmc/driver.hpp"

using namespace nnqs;

namespace {

// 12 iterations of H2O/STO-3G (14 qubits) on 4 thread ranks; see the test.
constexpr Real kGoldenHistory[] = {
    -0x1.a4415f5a67547p+5,
    -0x1.27f568b640398p+6,
    -0x1.28f14ca183104p+6,
    -0x1.298f7c0f3aa69p+6,
    -0x1.2a8266a632869p+6,
    -0x1.2b38f4e008ceap+6,
    -0x1.2b8665fbbdf1dp+6,
    -0x1.2bb2ff08699b2p+6,
    -0x1.2bc94e3e2deedp+6,
    -0x1.2bd2520677e79p+6,
    -0x1.2bd740bc79c01p+6,
    -0x1.2bd9a27ee13bbp+6,
};

void expectGolden(const std::vector<Real>& history, const char* what) {
  const std::vector<Real> golden(std::begin(kGoldenHistory), std::end(kGoldenHistory));
  if (history == golden) return;
  std::size_t first = 0;
  while (first < golden.size() && first < history.size() &&
         golden[first] == history[first])
    ++first;
  std::string array;
  char buf[64];
  for (Real e : history) {
    std::snprintf(buf, sizeof(buf), "    %a,\n", e);
    array += buf;
  }
  ADD_FAILURE() << what << ": energy history leaves the golden bits at iteration "
                << first << ". If the change is deliberate, replace kGoldenHistory with:\n"
                << array;
}

}  // namespace

TEST(Golden, EnergyHistoryMatchesCommittedBits) {
  const auto mol = chem::makeMolecule("H2O");
  const auto ao = scf::computeAoIntegrals(mol, chem::buildBasis(mol, "sto-3g"));
  const auto mo = scf::transformToMo(ao, scf::runHartreeFock(ao, mol));
  const auto ham = ops::jordanWigner(mo);
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(ham);
  nqs::QiankunNetConfig net;
  net.nQubits = ham.nQubits;
  net.nAlpha = mo.nAlpha;
  net.nBeta = mo.nBeta;
  net.phaseHidden = 64;
  net.seed = 5;

  vmc::VmcOptions opts;
  opts.iterations = 12;
  opts.nSamples = 1 << 20;
  opts.nSamplesInitial = 1 << 20;
  opts.pretrainIterations = 0;
  opts.warmupSteps = 10;
  opts.nRanks = 4;
  opts.uniqueThresholdPerRank = 4;  // split the sampling tree early
  opts.rankTileSize = 8;            // give the term-balanced split real work
  opts.seed = 19;
  expectGolden(vmc::runVmc(packed, net, opts).energyHistory, "default policy");

  opts.exec.kernel = exec::KernelPolicy::kScalar;
  expectGolden(vmc::runVmc(packed, net, opts).energyHistory, "kScalar kernels");

  opts.exec = {};
  opts.exec.sweepTileRows = opts.exec.gradTileRows = 7;
  expectGolden(vmc::runVmc(packed, net, opts).energyHistory, "7-row tiles");
}
