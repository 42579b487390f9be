#include "serve/amplitude_server.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "io/checkpoint.hpp"

namespace nnqs::serve {

namespace {

// Kernel backend of every worker.  Workers are the parallelism axis, so each
// runs the serial SIMD kernel; kThreaded/kAuto would fork an OpenMP team
// inside every worker and oversubscribe the host.
constexpr nn::kernels::KernelPolicy kWorkerKernel = nn::kernels::KernelPolicy::kSimd;

int latencyBucket(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(to - from)
                      .count();
  const int b = std::bit_width(static_cast<std::uint64_t>(std::max<long long>(us, 0)));
  return std::min(b, ServeStats::kLatencyBuckets - 1);
}

}  // namespace

double ServeStats::latencyPercentileUs(double p) const {
  std::uint64_t total = 0;
  for (const auto c : latencyUs) total += c;
  if (total == 0) return 0.0;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (int i = 0; i < kLatencyBuckets; ++i) {
    cum += latencyUs[i];
    if (static_cast<double>(cum) >= target)
      return i == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << i);
  }
  return static_cast<double>(std::uint64_t{1} << (kLatencyBuckets - 1));
}

AmplitudeServer::AmplitudeServer(const std::string& checkpointPath,
                                 ServeOptions opts)
    : AmplitudeServer(io::CheckpointReader(checkpointPath), std::move(opts)) {}

AmplitudeServer::AmplitudeServer(const io::CheckpointReader& checkpoint,
                                 ServeOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.nWorkers < 1)
    throw std::invalid_argument("AmplitudeServer: nWorkers must be >= 1");
  if (opts_.maxBatch < 1)
    throw std::invalid_argument("AmplitudeServer: maxBatch must be >= 1");
  if (opts_.maxDelayUs < 0)
    throw std::invalid_argument("AmplitudeServer: maxDelayUs must be >= 0");
  if (opts_.queueCapacityRequests < 1 || opts_.queueCapacityRows < 1)
    throw std::invalid_argument("AmplitudeServer: queue capacities must be >= 1");
  net_ = io::makeNet(checkpoint);
  ring_.assign(opts_.queueCapacityRequests, nullptr);
  start();
}

AmplitudeServer::~AmplitudeServer() { shutdown(); }

void AmplitudeServer::start() {
  workers_.reserve(static_cast<std::size_t>(opts_.nWorkers));
  for (int i = 0; i < opts_.nWorkers; ++i) {
    auto wk = std::make_unique<Worker>();
    // Pre-size the coalescing buffers to the batch ceiling so the warm serve
    // loop never grows them.
    wk->batch.reserve(ring_.size());
    wk->configs.reserve(static_cast<std::size_t>(opts_.maxBatch));
    wk->logAmp.reserve(static_cast<std::size_t>(opts_.maxBatch));
    wk->phase.reserve(static_cast<std::size_t>(opts_.maxBatch));
    workers_.push_back(std::move(wk));
  }
  for (auto& wk : workers_)
    wk->thread = std::thread([this, w = wk.get()] { workerLoop(*w); });
  // A worker still warming when the first queries arrive would grow its
  // buffers while the others serve, so do not return before all are warm.
  std::unique_lock<std::mutex> lk(mu_);
  doneCv_.wait(lk, [&] { return warmWorkers_ == opts_.nWorkers; });
}

QueryStatus AmplitudeServer::submit(const Bits128* configs, std::size_t n,
                                    Real* logAmp, Real* phase, Ticket& t) {
  std::lock_guard<std::mutex> lk(mu_);
  t.done = true;
  if (stopping_) {
    t.status = QueryStatus::kShutdown;
    return t.status;
  }
  if (n > static_cast<std::size_t>(opts_.maxBatch)) {
    ++stats_.rejectedTooLarge;
    t.status = QueryStatus::kTooLarge;
    return t.status;
  }
  if (n == 0) {
    t.status = QueryStatus::kOk;
    return t.status;
  }
  if (count_ == ring_.size() || queuedRows_ + n > opts_.queueCapacityRows) {
    ++stats_.rejected;
    t.status = QueryStatus::kRejected;
    return t.status;
  }
  t.configs = configs;
  t.n = n;
  t.logAmp = logAmp;
  t.phase = phase;
  t.enqueueTime = std::chrono::steady_clock::now();
  t.status = QueryStatus::kOk;
  t.done = false;
  ring_[(head_ + count_) % ring_.size()] = &t;
  ++count_;
  queuedRows_ += n;
  ++stats_.enqueued;
  workCv_.notify_one();
  return QueryStatus::kOk;
}

QueryStatus AmplitudeServer::wait(Ticket& t) {
  std::unique_lock<std::mutex> lk(mu_);
  doneCv_.wait(lk, [&] { return t.done; });
  return t.status;
}

QueryStatus AmplitudeServer::query(const Bits128* configs, std::size_t n,
                                   Real* logAmp, Real* phase) {
  Ticket t;
  // Always wait() after kOk: the worker publishes the results under mu_, and
  // wait() is what orders this thread's reads of them after those writes.
  const QueryStatus s = submit(configs, n, logAmp, phase, t);
  if (s != QueryStatus::kOk) return s;
  return wait(t);
}

QueryStatus AmplitudeServer::query(const std::vector<Bits128>& configs,
                                   std::vector<Real>& logAmp,
                                   std::vector<Real>& phase) {
  logAmp.resize(configs.size());
  phase.resize(configs.size());
  return query(configs.data(), configs.size(), logAmp.data(), phase.data());
}

void AmplitudeServer::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void AmplitudeServer::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  workCv_.notify_all();
}

void AmplitudeServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    paused_ = false;  // a paused server still drains
  }
  workCv_.notify_all();
  for (auto& wk : workers_)
    if (wk->thread.joinable()) wk->thread.join();
}

ServeStats AmplitudeServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

Index AmplitudeServer::claimBatch(Worker& wk) {
  wk.batch.clear();
  Index rows = 0;
  while (count_ > 0) {
    Ticket* t = ring_[head_];
    if (rows + static_cast<Index>(t->n) > opts_.maxBatch) break;
    rows += static_cast<Index>(t->n);
    wk.batch.push_back(t);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    queuedRows_ -= t->n;
  }
  return rows;
}

void AmplitudeServer::warmSlot(Worker& wk) {
  // One maxBatch-row evaluate sizes the slot's tokens, tapes and frames, and
  // this thread's kernel scratch to the batch ceiling, so no coalesced batch
  // can grow them later.  The rows are placeholders and the results are
  // discarded.
  wk.configs.assign(static_cast<std::size_t>(opts_.maxBatch), Bits128{});
  net_->evaluateInto(wk.slot, wk.configs, wk.logAmp, wk.phase, kWorkerKernel);
  wk.configs.clear();
  // Fold the warm-up's overflow into one block.  A batch within one tile
  // leaves its tape's overflow chunks in place until the next reset, which
  // would then allocate inside the first query.
  for (auto& t : wk.slot.tapes) t.tape.reset();
}

void AmplitudeServer::workerLoop(Worker& wk) {
  warmSlot(wk);
  std::unique_lock<std::mutex> lk(mu_);
  ++warmWorkers_;
  doneCv_.notify_all();
  for (;;) {
    workCv_.wait(lk, [&] { return stopping_ || (count_ > 0 && !paused_); });
    if (count_ == 0) {
      if (stopping_) return;  // drained
      continue;
    }
    // Peek the claimable prefix: pop-able rows and whether the batch is
    // saturated (either maxBatch rows are ready, or the next queued request
    // no longer fits — FIFO order means waiting cannot improve it).
    auto peek = [&] {
      Index rows = 0;
      std::size_t k = 0;
      while (k < count_) {
        const Ticket* t = ring_[(head_ + k) % ring_.size()];
        if (rows + static_cast<Index>(t->n) > opts_.maxBatch) break;
        rows += static_cast<Index>(t->n);
        ++k;
      }
      return std::pair<Index, bool>(rows, k < count_ || rows >= opts_.maxBatch);
    };
    bool deadlineExpired = false;
    if (!stopping_ && !peek().second) {
      // Under-full batch: coalesce until the *oldest* request's deadline.
      const auto deadline =
          ring_[head_]->enqueueTime + std::chrono::microseconds(opts_.maxDelayUs);
      deadlineExpired = !workCv_.wait_until(lk, deadline, [&] {
        return stopping_ || paused_ || count_ == 0 || peek().second;
      });
      if (count_ == 0 || (paused_ && !stopping_)) continue;
    }
    const bool saturated = peek().second;
    const Index rows = claimBatch(wk);
    if (rows == 0) continue;
    if (stopping_)
      ++stats_.drainFlushes;
    else if (saturated)
      ++stats_.fullFlushes;
    else if (deadlineExpired)
      ++stats_.deadlineFlushes;
    else
      ++stats_.deadlineFlushes;  // woken spuriously past the deadline
    ++stats_.batches;
    const int occ = std::min<int>(
        static_cast<int>(8 * rows / opts_.maxBatch), ServeStats::kOccupancyBuckets - 1);
    ++stats_.occupancy[static_cast<std::size_t>(occ)];

    lk.unlock();
    evaluateBatch(wk);
    lk.lock();

    const auto now = std::chrono::steady_clock::now();
    for (Ticket* t : wk.batch) {
      ++stats_.served;
      stats_.rowsServed += t->n;
      ++stats_.latencyUs[static_cast<std::size_t>(latencyBucket(t->enqueueTime, now))];
      t->done = true;
    }
    doneCv_.notify_all();
  }
}

void AmplitudeServer::evaluateBatch(Worker& wk) {
  wk.configs.clear();
  for (const Ticket* t : wk.batch)
    wk.configs.insert(wk.configs.end(), t->configs, t->configs + t->n);
  net_->evaluateInto(wk.slot, wk.configs, wk.logAmp, wk.phase, kWorkerKernel);
  std::size_t off = 0;
  for (Ticket* t : wk.batch) {
    std::copy(wk.logAmp.begin() + static_cast<std::ptrdiff_t>(off),
              wk.logAmp.begin() + static_cast<std::ptrdiff_t>(off + t->n),
              t->logAmp);
    std::copy(wk.phase.begin() + static_cast<std::ptrdiff_t>(off),
              wk.phase.begin() + static_cast<std::ptrdiff_t>(off + t->n), t->phase);
    off += t->n;
  }
}

}  // namespace nnqs::serve
