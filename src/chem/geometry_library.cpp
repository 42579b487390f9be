#include "chem/geometry_library.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nnqs::chem {

namespace {

Real deg2rad(Real d) { return d * kPi / 180.0; }

/// Bent XY2 molecule (like H2O): X at origin, both bonds in the xz-plane.
Molecule bentXY2(const std::string& x, const std::string& y, Real r, Real angleDeg,
                 int multiplicity = 1) {
  Molecule m({}, 0, multiplicity);
  const Real half = deg2rad(angleDeg) / 2;
  m.addAtomAngstrom(x, 0, 0, 0);
  m.addAtomAngstrom(y, r * std::sin(half), 0, r * std::cos(half));
  m.addAtomAngstrom(y, -r * std::sin(half), 0, r * std::cos(half));
  return m;
}

/// Pyramidal XY3 (like NH3, PH3): X at origin, C3 axis along z.
Molecule pyramidalXY3(const std::string& x, const std::string& y, Real r,
                      Real yxyAngleDeg) {
  // cos(gamma) = 1 - 1.5 sin^2(theta) with theta the bond/axis angle.
  const Real cg = std::cos(deg2rad(yxyAngleDeg));
  const Real s2 = 2.0 * (1.0 - cg) / 3.0;
  const Real st = std::sqrt(s2), ct = -std::sqrt(std::max<Real>(0.0, 1.0 - s2));
  Molecule m;
  m.addAtomAngstrom(x, 0, 0, 0);
  for (int k = 0; k < 3; ++k) {
    const Real phi = 2.0 * kPi * k / 3.0;
    m.addAtomAngstrom(y, r * st * std::cos(phi), r * st * std::sin(phi), r * ct);
  }
  return m;
}

Molecule diatomic(const std::string& a, const std::string& b, Real r,
                  int multiplicity = 1) {
  Molecule m({}, 0, multiplicity);
  m.addAtomAngstrom(a, 0, 0, 0);
  m.addAtomAngstrom(b, 0, 0, r);
  return m;
}

Molecule oxirane() {
  // C2v ring, r(CO)=1.431, r(CC)=1.462, r(CH)=1.090 (CCCBDB-style geometry).
  Molecule m;
  m.addAtomAngstrom("O", 0.0000, 0.0000, 0.8617);
  m.addAtomAngstrom("C", -0.7310, 0.0000, -0.3675);
  m.addAtomAngstrom("C", 0.7310, 0.0000, -0.3675);
  m.addAtomAngstrom("H", -1.2455, 0.9123, -0.6708);
  m.addAtomAngstrom("H", -1.2455, -0.9123, -0.6708);
  m.addAtomAngstrom("H", 1.2455, 0.9123, -0.6708);
  m.addAtomAngstrom("H", 1.2455, -0.9123, -0.6708);
  return m;
}

Molecule cyclopropane() {
  const Real rcc = 1.510, rch = 1.089, hch = deg2rad(115.1);
  const Real ringR = rcc / std::sqrt(3.0);
  const Real beta = 0.5 * std::acos(-std::cos(hch));  // CH tilt from z axis... see below
  // CH vectors: r(sin(beta) rho_hat, +-cos(beta) z_hat) with
  // cos(HCH) = sin^2(beta) - cos^2(beta) = -cos(2 beta).
  const Real sr = rch * std::sin(beta), sz = rch * std::cos(beta);
  Molecule m;
  for (int k = 0; k < 3; ++k) {
    const Real phi = kPi / 2 + 2.0 * kPi * k / 3.0;
    const Real cx = ringR * std::cos(phi), cy = ringR * std::sin(phi);
    m.addAtomAngstrom("C", cx, cy, 0);
    const Real ux = std::cos(phi), uy = std::sin(phi);
    m.addAtomAngstrom("H", cx + sr * ux, cy + sr * uy, sz);
    m.addAtomAngstrom("H", cx + sr * ux, cy + sr * uy, -sz);
  }
  return m;
}

Molecule benzene() {
  const Real rcc = 1.3915, rch = 1.0800;
  Molecule m;
  for (int k = 0; k < 6; ++k) {
    const Real phi = 2.0 * kPi * k / 6.0;
    m.addAtomAngstrom("C", rcc * std::cos(phi), rcc * std::sin(phi), 0);
  }
  for (int k = 0; k < 6; ++k) {
    const Real phi = 2.0 * kPi * k / 6.0;
    m.addAtomAngstrom("H", (rcc + rch) * std::cos(phi), (rcc + rch) * std::sin(phi), 0);
  }
  return m;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

Molecule makeH2(Real r) { return diatomic("H", "H", r); }

Molecule makeBeH2(Real r) {
  Molecule m;
  m.addAtomAngstrom("Be", 0, 0, 0);
  m.addAtomAngstrom("H", 0, 0, r);
  m.addAtomAngstrom("H", 0, 0, -r);
  return m;
}

Molecule makeMolecule(const std::string& name) {
  const std::string n = lower(name);
  if (n == "h2") return makeH2(0.7414);
  if (n == "lih") return diatomic("Li", "H", 1.5949);
  if (n == "beh2") return makeBeH2(1.3264);
  if (n == "h2o") return bentXY2("O", "H", 0.9584, 104.45);
  if (n == "nh3") return pyramidalXY3("N", "H", 1.0116, 106.67);
  if (n == "n2") return diatomic("N", "N", 1.0977);
  if (n == "o2") return diatomic("O", "O", 1.2075, /*multiplicity=*/3);
  if (n == "c2") return diatomic("C", "C", 1.2425);
  if (n == "h2s") return bentXY2("S", "H", 1.3356, 92.11);
  if (n == "ph3") return pyramidalXY3("P", "H", 1.4200, 93.50);
  // LiCl and Li2O use the geometries of the NNQS literature chain (Choo 2020
  // -> NAQS -> MADE -> this paper), which are compressed relative to the
  // physical equilibria (their coordinate files carry Angstrom-magnitude
  // numbers interpreted as bohr).  r(LiCl) = 2.0207 bohr and r(Li-O) = 1.8912
  // bohr reproduce the published HF rows of the paper's Table 1.
  if (n == "licl") return diatomic("Li", "Cl", 2.0207 / kBohrPerAngstrom);
  if (n == "li2o") {
    const Real r = 1.8912 / kBohrPerAngstrom;
    Molecule m;
    m.addAtomAngstrom("O", 0, 0, 0);
    m.addAtomAngstrom("Li", 0, 0, r);
    m.addAtomAngstrom("Li", 0, 0, -r);
    return m;
  }
  if (n == "c2h4o" || n == "oxirane") return oxirane();
  if (n == "c3h6" || n == "cyclopropane") return cyclopropane();
  if (n == "c6h6" || n == "benzene") return benzene();
  throw std::invalid_argument("makeMolecule: unknown molecule " + name);
}

std::vector<std::string> moleculeLibraryNames() {
  return {"H2",  "LiH",  "BeH2", "H2O",   "NH3",  "N2",   "O2",
          "C2",  "H2S",  "PH3",  "LiCl",  "Li2O", "C2H4O", "C3H6", "C6H6"};
}

}  // namespace nnqs::chem
