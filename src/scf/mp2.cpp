#include "scf/mp2.hpp"

#include <stdexcept>
#include <vector>

namespace nnqs::scf {

Real mp2CorrelationEnergy(const MoIntegrals& mo) {
  if (mo.nAlpha != mo.nBeta)
    throw std::invalid_argument("mp2: closed-shell only");
  const int nOcc = mo.nAlpha, nOrb = mo.nOrb;
  // One partial sum per occupied i, added in ascending i afterwards: the
  // result does not depend on the OpenMP team or schedule.
  std::vector<Real> perOcc(static_cast<std::size_t>(nOcc), 0.0);
#pragma omp parallel for schedule(dynamic)
  for (int i = 0; i < nOcc; ++i) {
    Real e = 0;
    for (int j = 0; j < nOcc; ++j)
      for (int a = nOcc; a < nOrb; ++a)
        for (int b = nOcc; b < nOrb; ++b) {
          const Real iajb = mo.eri(i, a, j, b);
          const Real ibja = mo.eri(i, b, j, a);
          const Real denom = mo.orbitalEnergies[static_cast<std::size_t>(i)] +
                             mo.orbitalEnergies[static_cast<std::size_t>(j)] -
                             mo.orbitalEnergies[static_cast<std::size_t>(a)] -
                             mo.orbitalEnergies[static_cast<std::size_t>(b)];
          e += iajb * (2.0 * iajb - ibja) / denom;
        }
    perOcc[static_cast<std::size_t>(i)] = e;
  }
  Real e2 = 0;
  for (const Real e : perOcc) e2 += e;
  return e2;
}

}  // namespace nnqs::scf
