#pragma once

// Multi-tenant batched amplitude serving: the production front end of the
// zero-allocation teacher-forced evaluate (QiankunNet::evaluateInto).
//
// An AmplitudeServer owns a QiankunNet (loaded from an io/ checkpoint) and a
// pool of worker threads.  Clients — any number of concurrent threads —
// submit configuration-query streams; the workers coalesce queued requests
// into evaluateInto batches under a latency-deadline batcher: a batch is
// flushed as soon as it reaches `maxBatch` rows, or when the *oldest* queued
// request has waited `maxDelayUs`, whichever comes first (during shutdown the
// queue drains immediately).  Each worker evaluates on its own
// QiankunNet::EvalSlot through the const QiankunNet::evaluateInto, so the
// shared net is read-only by type.  Each worker sizes its slot for a full
// maxBatch-row batch when it starts, and the constructor returns only once
// every worker has, so the serve loop performs zero heap allocations from
// the first query on, whatever batch sizes arrive.
//
// Determinism contract: per-row arithmetic is independent of the
// surrounding batch (each GEMM row is its own ascending-k accumulation;
// LayerNorm/softmax are per-row), so a served amplitude is bit-identical to a
// direct evaluate of that configuration alone — regardless of how requests
// interleave into batches (tests/test_serve.cpp).
//
// Backpressure: the submission queue is a fixed ring bounded in both requests
// and rows.  When full, submit() rejects immediately with kRejected — it
// never blocks the workers, and clients learn to back off instead of
// queueing unbounded latency.  shutdown() stops admissions, drains in-flight
// requests, and joins the workers; destruction shuts down implicitly.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "nqs/ansatz.hpp"

namespace nnqs::io {
class CheckpointReader;
}  // namespace nnqs::io

namespace nnqs::serve {

enum class QueryStatus {
  kOk = 0,        ///< results written
  kRejected,      ///< backpressure: queue full, retry later
  kTooLarge,      ///< request exceeds maxBatch rows (can never fit one batch)
  kShutdown,      ///< server is (or went) down; no results
};

struct ServeOptions {
  int nWorkers = 2;          ///< evaluate worker threads
  Index maxBatch = 256;      ///< flush threshold: rows per evaluate batch
  long maxDelayUs = 200;     ///< deadline: max coalescing wait of the oldest request
  std::size_t queueCapacityRows = 4096;      ///< bounded queue: max queued rows (>= maxBatch)
  std::size_t queueCapacityRequests = 1024;  ///< bounded queue: max queued requests
};

/// Observability counters, in the spirit of ElocStats/SweepStats.  Counters
/// are exact; the latency distribution is kept as a power-of-two-bucket
/// histogram (bucket i holds completions with latency in [2^(i-1), 2^i) us).
struct ServeStats {
  std::uint64_t enqueued = 0;        ///< requests accepted into the queue
  std::uint64_t served = 0;          ///< requests completed
  std::uint64_t rowsServed = 0;      ///< configuration rows evaluated
  std::uint64_t rejected = 0;        ///< submissions refused (queue full)
  std::uint64_t rejectedTooLarge = 0;///< submissions refused (> maxBatch rows)
  std::uint64_t batches = 0;         ///< evaluate batches flushed
  std::uint64_t fullFlushes = 0;     ///< flushed because maxBatch rows queued
  std::uint64_t deadlineFlushes = 0; ///< flushed because maxDelayUs elapsed
  std::uint64_t drainFlushes = 0;    ///< flushed during shutdown drain

  /// Batch-occupancy histogram: bucket floor(8 * rows / maxBatch), clamped to
  /// 7 — bucket 7 is a full (or near-full) batch, bucket 0 nearly empty.
  static constexpr int kOccupancyBuckets = 8;
  std::array<std::uint64_t, kOccupancyBuckets> occupancy{};

  /// Request latency (submit -> results visible), log2 microsecond buckets.
  static constexpr int kLatencyBuckets = 32;
  std::array<std::uint64_t, kLatencyBuckets> latencyUs{};

  /// Percentile (p in [0, 100]) of the served-request latency, read from the
  /// histogram; returns the upper edge of the bucket containing the
  /// percentile (0 when nothing was served).  p50/p95/p99 are the intended
  /// calls.
  [[nodiscard]] double latencyPercentileUs(double p) const;
};

class AmplitudeServer {
 public:
  /// Load the net from a checkpoint file (io::makeNet) and start serving.
  explicit AmplitudeServer(const std::string& checkpointPath,
                           ServeOptions opts = {});
  /// Same, from an already-parsed checkpoint.
  explicit AmplitudeServer(const io::CheckpointReader& checkpoint,
                           ServeOptions opts = {});
  ~AmplitudeServer();

  AmplitudeServer(const AmplitudeServer&) = delete;
  AmplitudeServer& operator=(const AmplitudeServer&) = delete;

  /// One in-flight asynchronous query: submit() fills it, wait() blocks until
  /// the server completes it.  A Ticket is single-use per submit and must
  /// outlive the wait; the config/result buffers it references must too.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

   private:
    friend class AmplitudeServer;
    const Bits128* configs = nullptr;
    std::size_t n = 0;
    Real* logAmp = nullptr;
    Real* phase = nullptr;
    std::chrono::steady_clock::time_point enqueueTime;
    QueryStatus status = QueryStatus::kOk;
    bool done = false;
  };

  /// Enqueue `n` configurations; ln|Psi| and phase land in logAmp[n]/phase[n]
  /// once served.  Returns kOk (pair with wait(); an empty request is already
  /// done, so its wait() returns at once), or one of the immediate refusals
  /// (kRejected / kTooLarge / kShutdown), which leave the output buffers
  /// untouched and need no wait().  Never blocks.
  QueryStatus submit(const Bits128* configs, std::size_t n, Real* logAmp,
                     Real* phase, Ticket& t);

  /// Block until the ticket's request is served (or the server shut down
  /// before serving it); returns its final status.
  QueryStatus wait(Ticket& t);

  /// Blocking convenience: submit + wait.  Also the raw-pointer form for
  /// allocation-free clients.
  QueryStatus query(const Bits128* configs, std::size_t n, Real* logAmp,
                    Real* phase);
  QueryStatus query(const std::vector<Bits128>& configs,
                    std::vector<Real>& logAmp, std::vector<Real>& phase);

  /// Admission-control pause: workers finish their current batch and then
  /// stop starting new ones; submissions keep queueing (and rejecting once
  /// full).  For tests and operational drain-and-inspect; resume() restarts.
  void pause();
  void resume();

  /// Stop admissions, serve everything still queued, join the workers.
  /// Idempotent; queries submitted after this return kShutdown.
  void shutdown();

  /// Snapshot of the counters (consistent under the server lock).
  [[nodiscard]] ServeStats stats() const;

  [[nodiscard]] const nqs::QiankunNet& net() const { return *net_; }
  [[nodiscard]] const ServeOptions& options() const { return opts_; }

 private:
  struct Worker {
    nqs::QiankunNet::EvalSlot slot;
    std::vector<Ticket*> batch;       ///< tickets claimed for one flush
    std::vector<Bits128> configs;     ///< coalesced rows
    std::vector<Real> logAmp, phase;  ///< batch results (scattered back)
    std::thread thread;
  };

  /// Launch the workers and wait until every one has warmed its slot.
  void start();
  /// Size wk's buffers for a maxBatch-row batch (on the worker's thread).
  void warmSlot(Worker& wk);
  void workerLoop(Worker& wk);
  /// Pop queued tickets into wk.batch until the next one would overflow
  /// maxBatch (caller holds the lock).  Returns the claimed row count.
  Index claimBatch(Worker& wk);
  void evaluateBatch(Worker& wk);

  ServeOptions opts_;
  std::unique_ptr<const nqs::QiankunNet> net_;

  mutable std::mutex mu_;
  std::condition_variable workCv_;   ///< workers: work available / state change
  std::condition_variable doneCv_;   ///< clients: a batch completed or a worker warmed
  // Fixed ring of queued tickets (head_ pops, size_ entries live): bounded in
  // requests by the ring size and in rows by queuedRows_, and allocation-free
  // after construction.
  std::vector<Ticket*> ring_;
  std::size_t head_ = 0, count_ = 0;
  std::size_t queuedRows_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  int warmWorkers_ = 0;  ///< workers whose slot is sized for maxBatch rows
  ServeStats stats_;

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace nnqs::serve
