// Serving phase of the traced training runs: an AmplitudeServer with default
// ServeOptions, loaded from the checkpoint the replica saved, answers
// open-loop 32-row requests of the configurations the last iteration
// sampled.  Requests arrive one per slot of the mean gap, at a seeded random
// point in the slot; unlike Poisson arrivals this bounds bursts to two
// requests per gap.
//
// One generator thread submits each request at its scheduled time; one
// completion thread calls wait() in submission order.  A request's latency
// runs from its *scheduled* send time to wait() returning, so a stall also
// charges the requests queued behind it.  A request finished ahead of an
// earlier one is timed when the earlier one finishes (at most one batch
// late).

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "harness.hpp"
#include "serve/amplitude_server.hpp"

namespace perfbench {

namespace {

using namespace nnqs;
using serve::AmplitudeServer;
using serve::QueryStatus;

constexpr std::size_t kRows = 32;            // rows per request
constexpr std::size_t kPoolRequests = 256;   // distinct requests in the pool
constexpr double kReferenceRowsPerS = 4000;  // about a quarter of the capacity
constexpr std::size_t kVerifyRequests = 64;  // served requests checked bit for bit

enum SpanName : int { kSubmit, kWait };
const std::vector<const char*> kSpanNames = {"serve.submit", "serve.wait"};

/// One open-loop phase at a fixed offered rate.
struct Load {
  std::vector<Clock::time_point> sched, sent, done;
  std::vector<QueryStatus> status;
  std::vector<Real> logAmp, phase;  ///< [request][kRows]
  std::unique_ptr<AmplitudeServer::Ticket[]> tickets;
  SpanBuffer submitSpans, waitSpans;

  [[nodiscard]] std::size_t size() const { return sched.size(); }
  [[nodiscard]] const Bits128* configs(const std::vector<Bits128>& pool, std::size_t i) const {
    return pool.data() + (i % kPoolRequests) * kRows;
  }
};

/// Offer `rowsPerS` for `durationS` and wait for every accepted request.
void runLoad(AmplitudeServer& server, const std::vector<Bits128>& pool, double rowsPerS,
             double durationS, std::uint64_t seed, Load& ld) {
  Rng rng(seed);
  const double gapS = static_cast<double>(kRows) / rowsPerS;
  std::vector<double> offsets;
  for (double slot = 0; slot + gapS <= durationS; slot += gapS)
    offsets.push_back(slot + rng.uniform() * gapS);
  const std::size_t n = std::max<std::size_t>(1, offsets.size());
  offsets.resize(n, 0.0);
  ld.sched.resize(n);
  ld.sent.resize(n);
  ld.done.resize(n);
  ld.status.assign(n, QueryStatus::kOk);
  ld.logAmp.assign(n * kRows, 0.0);
  ld.phase.assign(n * kRows, 0.0);
  ld.tickets = std::make_unique<AmplitudeServer::Ticket[]>(n);
  ld.submitSpans.reserve(n);
  ld.waitSpans.reserve(n);

  std::atomic<std::size_t> published{0};
  std::thread completion([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      if (ld.status[i] == QueryStatus::kOk) {
        const auto t = Clock::now();
        ld.status[i] = server.wait(ld.tickets[i]);
        ld.done[i] = Clock::now();
        ld.waitSpans.record(kWait, 1, static_cast<int>(i), t, ld.done[i]);
      } else {
        ld.done[i] = ld.sent[i];
      }
    }
  });
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    ld.sched[i] = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offsets[i]));
    std::this_thread::sleep_until(ld.sched[i]);
    ld.sent[i] = Clock::now();
    ld.status[i] = server.submit(ld.configs(pool, i), kRows, ld.logAmp.data() + i * kRows,
                                 ld.phase.data() + i * kRows, ld.tickets[i]);
    ld.submitSpans.record(kSubmit, 0, static_cast<int>(i), ld.sent[i], Clock::now());
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  completion.join();
}

/// Compare a seeded subset of served requests bit for bit with
/// QiankunNet::evaluate on a net loaded from the same checkpoint.  Returns
/// the number of requests whose answers differ.
std::size_t verify(const Load& ld, const std::vector<Bits128>& pool, nqs::QiankunNet& direct,
                   std::uint64_t seed) {
  Rng rng(seed ^ 0xc0ffeeu);
  std::vector<std::size_t> picked;
  for (std::size_t k = 0; k < kVerifyRequests; ++k) {
    const std::size_t i = rng.below(ld.size());
    if (ld.status[i] == QueryStatus::kOk) picked.push_back(i);
  }
  std::vector<Bits128> rows;
  for (const std::size_t i : picked)
    rows.insert(rows.end(), ld.configs(pool, i), ld.configs(pool, i) + kRows);
  std::vector<Real> la, ph;
  direct.evaluate(rows, la, ph, nn::GradMode::kInference);
  std::size_t bad = 0;
  for (std::size_t k = 0; k < picked.size(); ++k) {
    const std::size_t i = picked[k];
    const bool same = std::memcmp(la.data() + k * kRows, ld.logAmp.data() + i * kRows,
                                  kRows * sizeof(Real)) == 0 &&
                      std::memcmp(ph.data() + k * kRows, ld.phase.data() + i * kRows,
                                  kRows * sizeof(Real)) == 0;
    if (!same) ++bad;
  }
  return bad;
}

/// Closed-loop warm-up: keep a window of requests in flight until the
/// workers' slots and buffers have reached their steady size.
void warmUp(AmplitudeServer& server, const std::vector<Bits128>& pool) {
  constexpr std::size_t kWindow = 16;
  std::vector<AmplitudeServer::Ticket> tickets(kWindow);
  std::vector<Real> la(kWindow * kRows), ph(kWindow * kRows);
  for (std::size_t i = 0; i < 4 * kWindow; ++i) {
    const std::size_t w = i % kWindow;
    if (i >= kWindow) server.wait(tickets[w]);
    while (server.submit(pool.data() + (i % kPoolRequests) * kRows, kRows,
                         la.data() + w * kRows, ph.data() + w * kRows,
                         tickets[w]) != QueryStatus::kOk)
      std::this_thread::yield();
  }
  for (auto& t : tickets) server.wait(t);
}

}  // namespace

void runServePhase(const std::string& ckptPath, nqs::QiankunNet& direct,
                   const std::vector<Bits128>& configs, double durationS, std::uint64_t seed,
                   const std::string& tracePath, Metrics& m, Outcome& out) {
  std::vector<Bits128> pool(kPoolRequests * kRows);
  for (std::size_t k = 0; k < pool.size(); ++k) pool[k] = configs[k % configs.size()];
  AmplitudeServer server(ckptPath);
  warmUp(server, pool);

  const serve::ServeStats st0 = server.stats();
  Load ld;
  runLoad(server, pool, kReferenceRowsPerS, durationS, seed, ld);
  const serve::ServeStats st1 = server.stats();

  std::vector<double> latMs, lagMs;
  for (std::size_t i = 0; i < ld.size(); ++i) {
    lagMs.push_back(seconds(ld.sched[i], ld.sent[i]) * 1e3);
    if (ld.status[i] == QueryStatus::kOk) latMs.push_back(seconds(ld.sched[i], ld.done[i]) * 1e3);
  }
  out.attempted += ld.size();
  if (latMs.size() < ld.size()) {
    std::fprintf(stderr, "%zu requests refused\n", ld.size() - latMs.size());
    out.failed += ld.size() - latMs.size();
  }
  const std::size_t bad = verify(ld, pool, direct, seed);
  if (bad > 0) {
    std::fprintf(stderr, "%zu served requests differ from direct evaluation\n", bad);
    out.fail(bad);
  }
  if (latMs.empty()) throw std::runtime_error("no request was served");
  m.set("serve_p50_ms", median(latMs), "ms");
  m.set("serve_p99_ms", percentile(latMs, tailPercentile(latMs.size())), "ms");
  m.note("serve_p99_ms", tailNote(latMs) + " requests at " +
                             std::to_string(static_cast<int>(kReferenceRowsPerS)) + " rows/s");
  m.set("loadgen.lag_ms_p99", percentile(lagMs, 99), "ms");
  const double batches = static_cast<double>(st1.batches - st0.batches);
  m.set("serve.batches", batches, "count");
  m.set("serve.rows_per_batch", static_cast<double>(st1.rowsServed - st0.rowsServed) / batches,
        "rows");
  m.set("serve.full_flush_frac", static_cast<double>(st1.fullFlushes - st0.fullFlushes) / batches,
        "fraction");
  m.set("serve.deadline_flush_frac",
        static_cast<double>(st1.deadlineFlushes - st0.deadlineFlushes) / batches, "fraction");
  writeChromeTrace(tracePath, kSpanNames, {&ld.submitSpans, &ld.waitSpans}, ld.sched.front());
}

}  // namespace perfbench
