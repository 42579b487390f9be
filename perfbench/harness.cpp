// Implementation of harness.hpp.

#include "harness.hpp"

#include <sys/resource.h>

#include "nqs/ansatz.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double tailPercentile(std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  return 100.0;
}

std::string tailNote(const std::vector<double>& samples) {
  const double p = tailPercentile(samples.size());
  return (p >= 100 ? std::string("maximum") : "p" + std::to_string(static_cast<int>(p))) +
         " of " + std::to_string(samples.size());
}

double evaluateBatchMs(nnqs::nqs::QiankunNet& net, const std::vector<nnqs::Bits128>& batch,
                       nnqs::nn::kernels::KernelPolicy kernel) {
  net.prepareConcurrent();
  nnqs::nqs::QiankunNet::EvalSlot slot;
  std::vector<nnqs::Real> logAmp, phase;
  std::vector<double> ms;
  for (int k = 0; k < 25; ++k) {  // the first five grow the slot
    const auto t = Clock::now();
    net.evaluateInto(slot, batch, logAmp, phase, kernel);
    if (k >= 5) ms.push_back(seconds(t, Clock::now()) * 1e3);
  }
  return median(ms);
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

void writeJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
      continue;
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

void Metrics::writeJson(std::FILE* f, bool correct, std::uint64_t attempted,
                        std::uint64_t failed) const {
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
               correct ? "true" : "false", static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : values_) {
    std::fputs(first ? "" : ", ", f);
    first = false;
    writeJsonString(f, name);
    std::fprintf(f, ": {\"value\": %.17g, \"unit\": ", vu.first);
    writeJsonString(f, vu.second);
    std::fputc('}', f);
  }
  std::fputs("}, \"notes\": {", f);
  first = true;
  for (const auto& [key, text] : notes_) {
    std::fputs(first ? "" : ", ", f);
    first = false;
    writeJsonString(f, key);
    std::fputs(": ", f);
    writeJsonString(f, text);
  }
  std::fputs("}}\n", f);
}

void writeChromeTrace(const std::string& path, const std::vector<const char*>& names,
                      const std::vector<const SpanBuffer*>& buffers, Clock::time_point t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanBuffer* b : buffers)
    for (const Span& s : b->spans()) {
      const double ts = std::chrono::duration<double, std::micro>(s.start - t0).count();
      const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"iter\": %d, \"bytes\": %llu}}",
                   first ? "" : ",\n", names[static_cast<std::size_t>(s.name)], s.rank, ts,
                   dur, s.iter, static_cast<unsigned long long>(s.bytes));
      first = false;
    }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("perfbench: short write to " + path);
}

}  // namespace perfbench
