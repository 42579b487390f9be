#include "ops/jordan_wigner.hpp"

#include <cmath>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/timer.hpp"

namespace nnqs::ops {

namespace {

using TermMap = std::unordered_map<PauliString, Complex, PauliStringHash>;

void accumulate(TermMap& map, const PauliSum& sum, Complex scale) {
  for (const auto& t : sum) {
    const Complex v = t.coeff * scale;
    if (v == Complex{0, 0}) continue;
    map[t.string] += v;
  }
}

}  // namespace

PauliSum jwLadder(int p, bool dagger) {
  const Bits128 zs = Bits128::lowMask(p);
  Bits128 xm;
  xm.set(p);
  PauliString px{xm, zs};       // Z...Z X_p
  PauliString py{xm, zs};       // Z...Z Y_p
  py.z.set(p);
  const Complex yCoeff = dagger ? Complex{0, -0.5} : Complex{0, 0.5};
  return {{Complex{0.5, 0.0}, px}, {yCoeff, py}};
}

SpinHamiltonian jordanWigner(const scf::MoIntegrals& mo, Real cutoff) {
  Timer timer;
  const int nso = mo.nSpinOrbitals();
  TermMap total;
  total.reserve(1 << 12);

  // --- One-body part: sum_pq h_pq a+_p a_q ------------------------------
  for (int p = 0; p < nso; ++p)
    for (int q = 0; q < nso; ++q) {
      const Real hpq = mo.hSo(p, q);
      if (std::abs(hpq) < cutoff) continue;
      accumulate(total, multiply(jwLadder(p, true), jwLadder(q, false)), hpq);
    }

  // --- Two-body part over antisymmetrized pairs --------------------------
  //   1/2 sum_pqrs <pq|rs> a+_p a+_q a_s a_r
  //     = sum_{p<q, r<s} <pq||rs> a+_p a+_q a_s a_r.
  std::vector<std::pair<int, int>> pairs;
  for (int p = 0; p < nso; ++p)
    for (int q = p + 1; q < nso; ++q) pairs.emplace_back(p, q);

  // Summed serially in ascending pair order into one map, then merged once
  // into the one-body map: each coefficient's rounding is then fixed, so the
  // Hamiltonian is bit-identical across runs and thread counts.
  TermMap twoBody;
  twoBody.reserve(1 << 14);
  for (const auto& [p, q] : pairs) {
    const PauliSum bra = multiply(jwLadder(p, true), jwLadder(q, true));
    for (const auto& [r, s] : pairs) {
      // <pq||rs> with physicist <pq|rs> = (pr|qs) delta-spin.
      const Real anti = mo.eriSoAnti(p, q, r, s);
      if (std::abs(anti) < cutoff) continue;
      // a+_p a+_q a_s a_r  (note operator order: s before r).
      const PauliSum ket = multiply(jwLadder(s, false), jwLadder(r, false));
      accumulate(twoBody, multiply(bra, ket), anti);
    }
  }
  for (const auto& [key, val] : twoBody) total[key] += val;

  SpinHamiltonian h;
  h.nQubits = nso;
  h.constant = mo.coreEnergy;
  Real maxImag = 0;
  for (const auto& [key, val] : total) {
    maxImag = std::max(maxImag, std::abs(val.imag()));
    if (std::abs(val.real()) < cutoff) continue;
    if (key.x.none() && key.z.none()) {
      h.constant += val.real();
      continue;
    }
    h.strings.push_back(key);
    h.coeffs.push_back(val.real());
  }
  if (maxImag > 1e-8)
    log::warn("jordanWigner: imaginary residue %.3e (should vanish)", maxImag);
  h.sortCanonical();
  log::debug("jordanWigner: %d qubits, %zu strings, %.2f s", nso, h.nTerms(),
             timer.seconds());
  return h;
}

}  // namespace nnqs::ops
