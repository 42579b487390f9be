// Fig. 9 of the paper: memory reduction of the compressed Hamiltonian data
// structure (Fig. 6c / Algorithm 1) against the layout of Ref. 27 (Fig. 6b),
// for LiH, H2O, C2, N2, NH3, Li2O, C2H4O, C3H6 in STO-3G.
//
// Prints N_h^org (strings), N_h^opt (unique XY groups) and the byte-level
// memory reduction — the three series of the figure.

#include "bench_common.hpp"

using namespace nnqs;
using namespace nnqs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv, {});  // no flags: rejects any argument
  quietLogs();

  const std::vector<std::string> molecules = {"LiH", "H2O",  "C2",    "N2",
                                              "NH3", "Li2O", "C2H4O", "C3H6"};
  std::printf("Fig. 9: Hamiltonian memory, MADE layout (Fig. 6b) vs compressed (Fig. 6c)\n");
  std::printf("%-7s %4s %9s %9s %12s %12s %10s\n", "mol", "N", "Nh_org", "Nh_opt",
              "bytes_org", "bytes_opt", "saving");

  for (const auto& name : molecules) {
    Timer t;
    Pipeline p = buildPipeline(name, "sto-3g");
    const auto made = ops::MadePackedHamiltonian::fromHamiltonian(p.ham);
    const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
    const double saving =
        100.0 * (1.0 - static_cast<double>(packed.memoryBytes()) /
                           static_cast<double>(made.memoryBytes()));
    std::printf("%-7s %4d %9zu %9zu %12zu %12zu %9.1f%%   (%.1fs)\n", name.c_str(),
                p.nQubits, made.nTerms(), packed.nGroups(), made.memoryBytes(),
                packed.memoryBytes(), saving, t.seconds());
    std::fflush(stdout);
  }
  return 0;
}
