// VMC benchmark binary: runs one workload against the public API of src/ and
// prints its metrics as one JSON object on the last line of stdout.
//
//   vmc_bench --workload train-c2h4o|train-h2o --seed N
//             --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 is the untraced run that the end-to-end metrics come from;
// --trace 1 adds the traced replica and a serving phase, whose spans give
// the per-layer metrics, and writes them to DIR/<workload>.trace.json and
// DIR/<workload>.serve.trace.json.
// perfbench/run.py builds this binary and is the intended entry point.

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>

#include "common/bits.hpp"
#include "common/logging.hpp"
#include "harness.hpp"
#include "nn/kernels/kernels.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

/// (steal, total) jiffies of all CPUs from /proc/stat; {0, 0} when absent.
std::pair<double, double> cpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--scratch") opt.scratchDir = val;
    else {
      std::fprintf(stderr, "vmc_bench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  // Timings of an unoptimised or assert-enabled build say nothing about the
  // program users run, so refuse to measure one.
#ifndef NDEBUG
  std::fprintf(stderr, "vmc_bench: refusing to measure a build without NDEBUG\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "vmc_bench: refusing to measure a %s build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "vmc_bench: --seconds must be positive\n");
    return 2;
  }
  nnqs::log::setLevel(nnqs::log::Level::kWarn);

  Metrics m;
  m.note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  m.note("cpu", cpuModel());
  m.note("isa", nnqs::batch::backendName());
  m.note("kernel_train", nnqs::nn::kernels::effectiveKernelName(
                             nnqs::nn::kernels::KernelPolicy::kAuto));
  m.note("kernel_serve", nnqs::nn::kernels::effectiveKernelName(
                             nnqs::nn::kernels::KernelPolicy::kSimd));
  m.note("build_type", PERFBENCH_BUILD_TYPE);

  // Time the hypervisor gave to other guests while this run wanted the
  // CPU: on a shared VM the main source of run-to-run spread.
  const auto [steal0, total0] = cpuJiffies();
  Outcome out;
  try {
    if (opt.workload == "train-c2h4o") {
      out = runTrain(opt, "C2H4O", m);
    } else if (opt.workload == "train-h2o") {
      out = runTrain(opt, "H2O", m);
    } else {
      std::fprintf(stderr, "vmc_bench: unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmc_bench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  m.set("peak_rss_mib", peakRssMib(), "MiB");
  const auto [steal1, total1] = cpuJiffies();
  if (total1 > total0)
    m.note("cpu_steal", std::to_string(100.0 * (steal1 - steal0) / (total1 - total0)) +
                            "% of all CPU time during the run");
  std::fflush(stderr);
  m.writeJson(stdout, out.correct, out.attempted, out.failed);
  return 0;
}
