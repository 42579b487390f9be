#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "io/checkpoint.hpp"
#include "nqs/ansatz.hpp"
#include "serve/amplitude_server.hpp"

using namespace nnqs;
using namespace nnqs::serve;

namespace {

nqs::QiankunNetConfig smallConfig(std::uint64_t seed = 11) {
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 8;
  cfg.nAlpha = 2;
  cfg.nBeta = 2;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 2;
  cfg.seed = seed;
  return cfg;
}

std::vector<Bits128> numberSector(int n, int na, int nb) {
  std::vector<Bits128> out;
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits128 b{v, 0};
    int up = 0, down = 0;
    for (int q = 0; q < n; q += 2) up += b.get(q);
    for (int q = 1; q < n; q += 2) down += b.get(q);
    if (up == na && down == nb) out.push_back(b);
  }
  return out;
}

/// Serialize a small net into an in-memory checkpoint image.
io::CheckpointReader makeCheckpoint(std::uint64_t seed = 11) {
  nqs::QiankunNet net(smallConfig(seed));
  io::CheckpointWriter w;
  io::addNet(w, net);
  return io::CheckpointReader(w.serialize());
}

/// Direct (unserved) reference amplitudes of every sector configuration.
void referenceValues(const io::CheckpointReader& ckpt,
                     const std::vector<Bits128>& sector,
                     std::vector<Real>& logAmp, std::vector<Real>& phase) {
  auto net = io::makeNet(ckpt);
  nqs::QiankunNet::EvalSlot slot;
  net->evaluateInto(slot, sector, logAmp, phase);
}

}  // namespace

TEST(Serve, ServedBitsMatchDirectEvaluateUnderConcurrency) {
  const auto ckpt = makeCheckpoint(23);
  const auto sector = numberSector(8, 2, 2);
  std::vector<Real> refLa, refPh;
  referenceValues(ckpt, sector, refLa, refPh);

  ServeOptions opts;
  opts.nWorkers = 3;
  opts.maxBatch = 48;  // forces coalescing across clients and splits
  opts.maxDelayUs = 200;
  AmplitudeServer server(ckpt, opts);

  // >= 8 concurrent clients, each querying random slices with its own stream:
  // every served value must match the direct evaluate bit for bit, no matter
  // how the batcher interleaves the slices.
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> nonOk{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(c));
      std::vector<Bits128> q;
      std::vector<Real> la, ph;
      std::vector<std::size_t> idx;
      for (int it = 0; it < kQueriesPerClient; ++it) {
        const std::size_t n = 1 + rng() % 20;
        q.clear();
        idx.clear();
        for (std::size_t i = 0; i < n; ++i) {
          idx.push_back(rng() % sector.size());
          q.push_back(sector[idx.back()]);
        }
        QueryStatus s = server.query(q, la, ph);
        while (s == QueryStatus::kRejected) s = server.query(q, la, ph);
        if (s != QueryStatus::kOk) {
          ++nonOk;
          continue;
        }
        for (std::size_t i = 0; i < n; ++i)
          if (la[i] != refLa[idx[i]] || ph[i] != refPh[idx[i]]) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(nonOk.load(), 0);

  const ServeStats st = server.stats();
  EXPECT_EQ(st.served, st.enqueued);
  EXPECT_GT(st.batches, 0u);
  server.shutdown();
}

TEST(Serve, BackpressureRejectsInsteadOfBlocking) {
  const auto ckpt = makeCheckpoint(29);
  const auto sector = numberSector(8, 2, 2);

  ServeOptions opts;
  opts.nWorkers = 1;
  opts.maxBatch = 4;
  opts.queueCapacityRequests = 4;
  opts.queueCapacityRows = 16;
  AmplitudeServer server(ckpt, opts);
  server.pause();  // workers idle: the queue can only fill

  std::vector<Real> la(4), ph(4);
  std::vector<AmplitudeServer::Ticket> tickets(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(server.submit(sector.data(), 4, la.data(), ph.data(), tickets[i]),
              QueryStatus::kOk);
  // The 5th request finds the ring full: an immediate, non-blocking reject.
  AmplitudeServer::Ticket overflow;
  EXPECT_EQ(server.submit(sector.data(), 4, la.data(), ph.data(), overflow),
            QueryStatus::kRejected);
  // Requests above maxBatch rows can never be served and say so.
  std::vector<Real> big(8);
  AmplitudeServer::Ticket tooLarge;
  EXPECT_EQ(server.submit(sector.data(), 8, big.data(), big.data(), tooLarge),
            QueryStatus::kTooLarge);

  server.resume();
  for (auto& t : tickets) EXPECT_EQ(server.wait(t), QueryStatus::kOk);
  const ServeStats st = server.stats();
  EXPECT_EQ(st.enqueued, 4u);
  EXPECT_EQ(st.served, 4u);
  EXPECT_GE(st.rejected, 1u);
  EXPECT_GE(st.rejectedTooLarge, 1u);
  server.shutdown();
}

TEST(Serve, DeadlineFlushesUnderfullBatches) {
  const auto ckpt = makeCheckpoint(31);
  const auto sector = numberSector(8, 2, 2);

  ServeOptions opts;
  opts.nWorkers = 1;
  opts.maxBatch = 64;  // far larger than any single query below
  opts.maxDelayUs = 300;
  AmplitudeServer server(ckpt, opts);

  std::vector<Real> la(2), ph(2);
  for (int i = 0; i < 6; ++i)
    ASSERT_EQ(server.query(sector.data(), 2, la.data(), ph.data()),
              QueryStatus::kOk);
  const ServeStats st = server.stats();
  // A blocking client can't co-batch with itself: every flush fires on the
  // deadline, with occupancy far below a full batch.
  EXPECT_EQ(st.served, 6u);
  EXPECT_GT(st.deadlineFlushes, 0u);
  EXPECT_EQ(st.fullFlushes, 0u);
  EXPECT_GT(st.occupancy[0], 0u);  // 2 of 64 rows: the lowest bucket
  EXPECT_GT(st.latencyPercentileUs(50), 0.0);
  server.shutdown();
}

TEST(Serve, ShutdownDrainsInFlightRequests) {
  const auto ckpt = makeCheckpoint(37);
  const auto sector = numberSector(8, 2, 2);

  ServeOptions opts;
  opts.nWorkers = 2;
  opts.maxBatch = 8;
  opts.queueCapacityRequests = 64;
  opts.queueCapacityRows = 512;
  AmplitudeServer server(ckpt, opts);
  server.pause();  // queue everything first, then shut down mid-flight

  constexpr int kRequests = 10;
  std::vector<std::vector<Real>> la(kRequests), ph(kRequests);
  std::vector<AmplitudeServer::Ticket> tickets(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    la[static_cast<std::size_t>(i)].resize(3);
    ph[static_cast<std::size_t>(i)].resize(3);
    ASSERT_EQ(server.submit(sector.data() + i, 3,
                            la[static_cast<std::size_t>(i)].data(),
                            ph[static_cast<std::size_t>(i)].data(), tickets[i]),
              QueryStatus::kOk);
  }
  // shutdown() overrides the pause, serves all 10 queued requests, and joins.
  server.shutdown();
  for (auto& t : tickets) EXPECT_EQ(server.wait(t), QueryStatus::kOk);
  const ServeStats st = server.stats();
  EXPECT_EQ(st.served, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(st.drainFlushes, 0u);

  // Post-shutdown submissions are refused, not queued forever.
  std::vector<Real> la1(1), ph1(1);
  EXPECT_EQ(server.query(sector.data(), 1, la1.data(), ph1.data()),
            QueryStatus::kShutdown);

  // Drained values are still bit-correct.
  std::vector<Real> refLa, refPh;
  referenceValues(ckpt, sector, refLa, refPh);
  for (int i = 0; i < kRequests; ++i)
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(la[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
                refLa[static_cast<std::size_t>(i + k)]);
      EXPECT_EQ(ph[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
                refPh[static_cast<std::size_t>(i + k)]);
    }
}

TEST(Serve, StatsAreDeterministicOnAFixedSchedule) {
  const auto ckpt = makeCheckpoint(41);
  const auto sector = numberSector(8, 2, 2);

  ServeOptions opts;
  opts.nWorkers = 1;
  opts.maxBatch = 16;
  opts.maxDelayUs = 0;  // flush as soon as a worker wakes
  opts.queueCapacityRequests = 32;
  AmplitudeServer server(ckpt, opts);

  // Fixed schedule: queue 4 x 4-row requests while paused, then release.  The
  // single worker must see exactly one saturated 16-row batch.
  server.pause();
  std::vector<std::vector<Real>> la(4), ph(4);
  std::vector<AmplitudeServer::Ticket> tickets(4);
  for (int i = 0; i < 4; ++i) {
    la[static_cast<std::size_t>(i)].resize(4);
    ph[static_cast<std::size_t>(i)].resize(4);
    ASSERT_EQ(server.submit(sector.data() + i, 4,
                            la[static_cast<std::size_t>(i)].data(),
                            ph[static_cast<std::size_t>(i)].data(), tickets[i]),
              QueryStatus::kOk);
  }
  server.resume();
  for (auto& t : tickets) ASSERT_EQ(server.wait(t), QueryStatus::kOk);

  const ServeStats st = server.stats();
  EXPECT_EQ(st.enqueued, 4u);
  EXPECT_EQ(st.served, 4u);
  EXPECT_EQ(st.rowsServed, 16u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.fullFlushes, 1u);
  EXPECT_EQ(st.occupancy[ServeStats::kOccupancyBuckets - 1], 1u);
  server.shutdown();
  // Idempotent shutdown and a second stats read are safe.
  server.shutdown();
  EXPECT_EQ(server.stats().served, 4u);
}

TEST(Serve, FirstFullBatchAllocatesNothing) {
  // Workers size their slots for maxBatch rows at start, so a coalesced
  // batch larger than any seen before (here: 32 rows after 1-row warm-up
  // queries) must not grow anything — client or worker side.
  const auto ckpt = makeCheckpoint(47);
  const auto sector = numberSector(8, 2, 2);
  std::vector<Real> refLa, refPh;
  referenceValues(ckpt, sector, refLa, refPh);

  ServeOptions opts;
  opts.maxBatch = 32;
  opts.maxDelayUs = 0;
  AmplitudeServer server(ckpt, opts);
  Real la1 = 0, ph1 = 0;
  for (int i = 0; i < 8; ++i)
    ASSERT_EQ(server.query(sector.data() + i, 1, &la1, &ph1), QueryStatus::kOk);

  constexpr int kRequests = 4;
  constexpr std::size_t kRows = 8;  // kRequests * kRows == maxBatch
  std::vector<Real> la(kRequests * kRows), ph(kRequests * kRows);
  std::vector<AmplitudeServer::Ticket> tickets(kRequests);
  const ServeStats before = server.stats();
  server.pause();
  const std::uint64_t allocs0 = allocationCount();
  for (std::size_t i = 0; i < kRequests; ++i)
    ASSERT_EQ(server.submit(sector.data() + i * kRows, kRows, la.data() + i * kRows,
                            ph.data() + i * kRows, tickets[i]),
              QueryStatus::kOk);
  server.resume();
  for (auto& t : tickets) ASSERT_EQ(server.wait(t), QueryStatus::kOk);
  EXPECT_EQ(allocationCount() - allocs0, 0u);

  const ServeStats after = server.stats();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.fullFlushes - before.fullFlushes, 1u);
  for (std::size_t r = 0; r < la.size(); ++r) {
    EXPECT_EQ(la[r], refLa[r]) << "row " << r;
    EXPECT_EQ(ph[r], refPh[r]) << "row " << r;
  }
}

TEST(Serve, EmptyQueryAndDestructorShutdown) {
  const auto ckpt = makeCheckpoint(43);
  {
    AmplitudeServer server(ckpt, ServeOptions{});
    EXPECT_EQ(server.query(nullptr, 0, nullptr, nullptr), QueryStatus::kOk);
    // Leaving scope with live workers must join cleanly (no deadlock, no
    // leaked threads) — the destructor runs shutdown().
  }
  // Invalid options are rejected up front.
  ServeOptions bad;
  bad.nWorkers = 0;
  EXPECT_THROW(AmplitudeServer(ckpt, bad), std::invalid_argument);
}
