// Fig. 10 of the paper: speedup of the local-energy engine as the
// optimizations are stacked — SA+FUSE, +LUT, +threads ("GPU" in the paper),
// and the batched hashed-probe engine (+BAT1 single-thread, +BAT threaded) —
// against a bare baseline that evaluates psi(x') with a fresh network
// inference per coupled state and uses no fusion / no lookup table.
//
// Per-sample runtimes are measured on BAS-generated unique samples of C2
// (default) and, with --all, LiCl and C2H4O as in the paper.  The batched
// engine's observability counters (prefilter rejects, index probes, hits,
// per-tile term spread) are printed per molecule.  The library runs the
// +BAT rows, its one engine; eloc_ablation.hpp builds the other rows, +LUT
// and +PAR on a sorted table of S built outside the timed region.  SA+FUSE,
// +PAR, +BAT1 and +BAT must reproduce +LUT bit for bit on the samples they
// share: a mismatch is reported and the bench exits 1.

#include <omp.h>

#include "bench_common.hpp"
#include "eloc_ablation.hpp"

using namespace nnqs;
using namespace nnqs::bench;
using namespace nnqs::vmc;

namespace {

struct Measurement {
  double perSampleSec[6];  // baseline, SA+FUSE, +LUT, +threads, +BAT1, +BAT
  std::size_t nUnique;
  ElocStats stats;  // batched-engine counters
  std::vector<std::string> mismatches;  // rows that differ from +LUT
};

/// Records `row` as a mismatch unless `got` equals the first got.size()
/// local energies of +LUT bit for bit.
void compareWithLut(Measurement& m, const char* row, const std::vector<Complex>& lutEloc,
                    const std::vector<Complex>& got) {
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i].real() != lutEloc[i].real() || got[i].imag() != lutEloc[i].imag()) {
      m.mismatches.push_back(std::string(row) + " differs from +LUT at sample " +
                             std::to_string(i));
      return;
    }
}

Measurement measure(const std::string& name, std::uint64_t nSamples,
                    std::size_t baselineSamples, std::size_t serialSamples) {
  Pipeline p = buildPipeline(name, "sto-3g");
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(p.ham);
  nqs::QiankunNet net(paperNetConfig(p));

  nqs::SamplerOptions sOpts;
  sOpts.nSamples = nSamples;
  sOpts.seed = 29;
  nqs::BasSweepEngine sampler(net);
  const nqs::SampleSet& set = sampler.sweep(sOpts);
  const auto psi = net.psi(set.samples);
  const auto lut = WavefunctionLut::build(set.samples, psi);

  Measurement m{};
  m.nUnique = set.nUnique();
  const std::vector<Bits128> baseProbe(
      set.samples.begin(),
      set.samples.begin() + static_cast<std::ptrdiff_t>(
                                std::min(baselineSamples, set.nUnique())));
  const std::vector<Bits128> serialProbe(
      set.samples.begin(),
      set.samples.begin() + static_cast<std::ptrdiff_t>(
                                std::min(serialSamples, set.nUnique())));

  Timer t;
  elocBaseline(p.ham, baseProbe, lut, net);
  m.perSampleSec[0] = t.seconds() / static_cast<double>(baseProbe.size());

  t.reset();
  const std::vector<Complex> saFuse = elocSaFuse(packed, serialProbe, lut);
  m.perSampleSec[1] = t.seconds() / static_cast<double>(serialProbe.size());

  const SortedTable table(lut);
  t.reset();
  const std::vector<Complex> lutEloc = elocSortedTable(packed, set.samples, table, false);
  m.perSampleSec[2] = t.seconds() / static_cast<double>(set.nUnique());
  compareWithLut(m, "SA+FUSE", lutEloc, saFuse);

  t.reset();
  const std::vector<Complex> par = elocSortedTable(packed, set.samples, table, true);
  m.perSampleSec[3] = t.seconds() / static_cast<double>(set.nUnique());
  compareWithLut(m, "+PAR", lutEloc, par);

  // Batched engine: warm call first so the timed runs measure the
  // steady-state (allocation-free) path, as in the VMC loop.
  std::vector<Complex> out(set.samples.size());
  ElocBatchedOptions bOpts;
  bOpts.maxThreads = 1;
  localEnergiesBatched(packed, set.samples, lut, out.data(), bOpts, &m.stats);
  t.reset();
  localEnergiesBatched(packed, set.samples, lut, out.data(), bOpts, nullptr);
  m.perSampleSec[4] = t.seconds() / static_cast<double>(set.nUnique());
  compareWithLut(m, "+BAT1", lutEloc, out);

  bOpts.maxThreads = 0;
  localEnergiesBatched(packed, set.samples, lut, out.data(), bOpts, nullptr);
  t.reset();
  localEnergiesBatched(packed, set.samples, lut, out.data(), bOpts, nullptr);
  m.perSampleSec[5] = t.seconds() / static_cast<double>(set.nUnique());
  compareWithLut(m, "+BAT", lutEloc, out);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, {"all", "samples", "baseline-samples", "serial-samples"});
  quietLogs();
  std::vector<std::string> molecules = {"C2"};
  if (args.flag("all")) molecules = {"C2", "LiCl", "C2H4O"};

  std::printf("Fig. 10: local-energy speedups over the bare baseline "
              "(threads = %d standing in for the GPU)\n", omp_get_max_threads());
  std::printf("%-7s %8s | %12s %12s %12s %12s %12s %12s | %9s %9s %9s %9s %9s\n",
              "mol", "Nu", "base s/x", "SA+FUSE s/x", "+LUT s/x", "+PAR s/x",
              "+BAT1 s/x", "+BAT s/x", "SA+FUSE", "+LUT", "+PAR", "+BAT1",
              "+BAT");

  bool mismatch = false;
  for (const auto& name : molecules) {
    const Measurement m =
        measure(name, static_cast<std::uint64_t>(args.getInt("samples", 100000)),
                static_cast<std::size_t>(args.getInt("baseline-samples", 16)),
                static_cast<std::size_t>(args.getInt("serial-samples", 256)));
    std::printf("%-7s %8zu | %12.3e %12.3e %12.3e %12.3e %12.3e %12.3e | "
                "%8.1fx %8.1fx %8.1fx %8.1fx %8.1fx\n",
                name.c_str(), m.nUnique, m.perSampleSec[0], m.perSampleSec[1],
                m.perSampleSec[2], m.perSampleSec[3], m.perSampleSec[4],
                m.perSampleSec[5],
                m.perSampleSec[0] / m.perSampleSec[1],
                m.perSampleSec[0] / m.perSampleSec[2],
                m.perSampleSec[0] / m.perSampleSec[3],
                m.perSampleSec[0] / m.perSampleSec[4],
                m.perSampleSec[0] / m.perSampleSec[5]);
    std::printf("        eloc stats: terms=%llu rejected=%llu probes=%llu "
                "hits=%llu tiles=%llu tileTerms=%llu..%llu\n",
                static_cast<unsigned long long>(m.stats.termsEnumerated),
                static_cast<unsigned long long>(m.stats.filterRejected),
                static_cast<unsigned long long>(m.stats.lutProbes),
                static_cast<unsigned long long>(m.stats.lutHits),
                static_cast<unsigned long long>(m.stats.nTiles),
                static_cast<unsigned long long>(m.stats.tileTermsMin),
                static_cast<unsigned long long>(m.stats.tileTermsMax));
    std::fflush(stdout);
    for (const std::string& what : m.mismatches)
      std::fprintf(stderr, "%s: %s\n", name.c_str(), what.c_str());
    mismatch = mismatch || !m.mismatches.empty();
  }
  std::printf("\nPaper reference (A100 vs bare CPU): C2 24x/103x/3768x, "
              "LiCl 11x/34x/3348x, C2H4O 12x/38x/4097x.\n");
  return mismatch ? 1 : 0;
}
