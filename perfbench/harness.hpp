#pragma once

// Shared pieces of the VMC benchmark: span recording, order statistics, the
// metric sink and the run context.  Everything here lives outside src/: the
// benchmark times the library's public calls from the caller's side.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "nn/kernels/kernels.hpp"

namespace nnqs::nqs {
class QiankunNet;
}  // namespace nnqs::nqs

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed call into the library: what ran, on which rank, in which
/// iteration, when, and how many bytes it moved (collectives only).
struct Span {
  int name = 0;  ///< index into the recorder's name table
  int rank = 0;
  int iter = 0;
  Clock::time_point start, end;
  std::uint64_t bytes = 0;
};

/// Per-thread span buffer.  Capacity is reserved up front and record()
/// refuses to grow it, so tracing adds no allocation to the timed loop.
class SpanBuffer {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void record(int name, int rank, int iter, Clock::time_point start,
              Clock::time_point end, std::uint64_t bytes = 0) {
    if (spans_.size() == spans_.capacity())
      throw std::length_error("perfbench: span buffer full");
    spans_.push_back({name, rank, iter, start, end, bytes});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Write spans as Chrome trace-event JSON (opens in ui.perfetto.dev): one
/// complete ("X") event per span, tid = rank, timestamps relative to `t0`.
void writeChromeTrace(const std::string& path, const std::vector<const char*>& names,
                      const std::vector<const SpanBuffer*>& buffers, Clock::time_point t0);

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 for empty input.
double percentile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v) { return percentile(v, 50); }

/// The tail percentile reported for n samples: the highest of
/// {99, 95, 90, 75, 50} that leaves at least ten samples above it, else the
/// maximum (returned as 100).
double tailPercentile(std::size_t n);

/// "p99 of 3175" (or "maximum of 11"): which tail was reported, on how many.
std::string tailNote(const std::vector<double>& samples);

/// Median wall time (ms) of one evaluateInto of `batch` on a fresh EvalSlot
/// after a warm-up: the unit of work of one serving batch.
double evaluateBatchMs(nnqs::nqs::QiankunNet& net, const std::vector<nnqs::Bits128>& batch,
                       nnqs::nn::kernels::KernelPolicy kernel);

/// Peak resident set size of this process, MiB.
double peakRssMib();

/// Name -> (value, unit) sink, written as one JSON object at the end.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value))
      throw std::runtime_error("perfbench: metric " + name + " is not finite");
    values_[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& text) { notes_[key] = text; }
  void writeJson(std::FILE* f, bool correct, std::uint64_t attempted,
                 std::uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::map<std::string, std::string> notes_;
};

/// Command-line options shared by the workloads.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's files: the checkpoint it saves and loads, and
  /// the Chrome trace of a traced run.
  std::string scratchDir = ".";
  [[nodiscard]] std::string scratchFile(const std::string& suffix) const {
    return scratchDir + "/" + workload + suffix;
  }
};

/// Outcome counters of one run: attempted operations and how many failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  void fail(std::uint64_t n = 1) {
    failed += n;
    if (n > 0) correct = false;
  }
};

/// A training workload; fills `m` with every metric it measures.
Outcome runTrain(const Options& opt, const std::string& molecule, Metrics& m);

/// Serving phase of a traced run: an AmplitudeServer (default ServeOptions)
/// loaded from `ckptPath` answers open-loop 32-row requests built from
/// `configs` for `durationS`.  A seeded subset of the answers must equal
/// `direct` (a net loaded from the same checkpoint) bit for bit.  Records
/// the serve.* and loadgen.* metrics and writes client spans to `tracePath`.
void runServePhase(const std::string& ckptPath, nnqs::nqs::QiankunNet& direct,
                   const std::vector<nnqs::Bits128>& configs, double durationS,
                   std::uint64_t seed, const std::string& tracePath, Metrics& m, Outcome& out);

}  // namespace perfbench
