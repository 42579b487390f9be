#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/comm.hpp"

using namespace nnqs;
using namespace nnqs::parallel;

namespace {

/// Threads get a fixed 4-rank world; MPI accepts whatever mpirun launched
/// (1 process when run directly).  All assertions below are size-agnostic
/// and run *inside* the world lambda, so every rank — thread or process —
/// checks its own view.
constexpr int kThreadRanks = 4;

class CommBackendTest : public ::testing::TestWithParam<CommBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == CommBackend::kMpi && !mpiAvailable())
      GTEST_SKIP() << "built without NNQS_WITH_MPI";
  }
  [[nodiscard]] std::unique_ptr<World> makeTestWorld() const {
    return makeWorld(GetParam(),
                     GetParam() == CommBackend::kMpi ? 0 : kThreadRanks);
  }
};

}  // namespace

TEST_P(CommBackendTest, RankAndSizeAreConsistent) {
  const auto world = makeTestWorld();
  EXPECT_EQ(world->size(), worldSize(GetParam(), world->size()));
  world->run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), world->size());
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), comm.size());
  });
}

TEST_P(CommBackendTest, AllGatherVConcatenatesInRankOrder) {
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    // Rank r contributes r+1 copies of r; every rank must see the
    // rank-ordered concatenation and the per-rank element counts.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1), comm.rank());
    std::vector<std::size_t> counts;
    const std::vector<int> all = comm.allGatherV(mine.data(), mine.size(), &counts);
    std::vector<int> expect;
    for (int r = 0; r < comm.size(); ++r)
      expect.insert(expect.end(), static_cast<std::size_t>(r + 1), r);
    EXPECT_EQ(all, expect);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r)
      EXPECT_EQ(counts[static_cast<std::size_t>(r)],
                static_cast<std::size_t>(r + 1));
  });
}

TEST_P(CommBackendTest, AllGatherHandlesEmptyContributions) {
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    // Only the last rank contributes anything.
    const bool last = comm.rank() == comm.size() - 1;
    std::vector<double> mine(last ? 3u : 0u, 1.5);
    const std::vector<double> all = comm.allGatherV(mine.data(), mine.size());
    ASSERT_EQ(all.size(), 3u);
    for (double x : all) EXPECT_DOUBLE_EQ(x, 1.5);
  });
}

TEST_P(CommBackendTest, AllReduceSumIdenticalOnAllRanks) {
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    const Real p = static_cast<Real>(comm.size());
    std::vector<Real> v = {static_cast<Real>(comm.rank()), 1.0, 0.5};
    comm.allReduceSum(v.data(), v.size());
    EXPECT_DOUBLE_EQ(v[0], p * (p - 1.0) / 2.0);
    EXPECT_DOUBLE_EQ(v[1], p);
    EXPECT_DOUBLE_EQ(v[2], p / 2.0);
  });
}

TEST_P(CommBackendTest, AllReduceIsRankOrderDeterministic) {
  // The cross-backend determinism contract (parallel/comm.hpp): the reduced
  // value is the *rank-ordered sequential* IEEE sum from +0.0, bit for bit —
  // never a backend-defined reduction tree.  The magnitudes differ per rank
  // so the sum is order-sensitive; every rank can reconstruct the expected
  // bits.  The lengths cover fewer elements than ranks (empty slices), an
  // even split and a ragged one, so a slice boundary that leaves a gap or an
  // overlap shows as a wrong element.  In the last case every contribution
  // is -0.0: the sum from +0.0 is +0.0, a sum seeded with the first
  // contribution would be -0.0.
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    struct Case {
      std::size_t n;
      bool negativeZeros;
    };
    for (const Case c : {Case{1, false}, Case{3, false}, Case{16, false},
                         Case{100003, false}, Case{16, true}}) {
      const auto contribution = [&](int rank, std::size_t i) {
        if (c.negativeZeros) return -0.0;
        return std::ldexp(1.0, -((rank * 11 + static_cast<int>(i % 1000) * 3) % 40)) +
               1e-13 * static_cast<Real>(rank);
      };
      std::vector<Real> v(c.n);
      for (std::size_t i = 0; i < c.n; ++i) v[i] = contribution(comm.rank(), i);
      comm.allReduceSum(v.data(), c.n);
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < c.n; ++i) {
        Real expect = 0.0;
        for (int r = 0; r < comm.size(); ++r) expect += contribution(r, i);
        if (std::bit_cast<std::uint64_t>(v[i]) != std::bit_cast<std::uint64_t>(expect) &&
            wrong++ == 0)
          ADD_FAILURE() << "n = " << c.n << ": element " << i << " is " << v[i]
                        << ", not the rank-ordered sum " << expect;
      }
      EXPECT_EQ(wrong, 0u) << "n = " << c.n;
    }
  });
}

namespace {

/// Rank `rank`'s contribution to element i: magnitudes that differ per rank,
/// so the sum depends on its order.
Real contribution(int rank, std::size_t i) {
  return std::ldexp(1.0, -((rank * 11 + static_cast<int>(i % 1000) * 3) % 40)) +
         1e-13 * static_cast<Real>(rank);
}

/// The lengths the slice collectives are checked at: empty, one element,
/// one fewer than the ranks (so some ranks own an empty slice), an even and
/// a ragged split.
std::vector<std::size_t> sliceLengths(int ranks) {
  return {0, 1, static_cast<std::size_t>(ranks - 1), 16, 100003};
}

std::uint64_t bits(Real x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

TEST(CommSlice, SlicesTileTheBufferInRankOrder) {
  for (const std::size_t n : {0u, 1u, 3u, 16u, 11317u, 100003u})
    for (const int p : {1, 2, 3, 4, 7}) {
      std::size_t next = 0;
      for (int q = 0; q < p; ++q) {
        const Comm::Slice s = Comm::slice(n, p, q);
        EXPECT_EQ(s.lo, next) << "n " << n << ", p " << p << ", rank " << q;
        EXPECT_EQ(s.hi, n * static_cast<std::size_t>(q + 1) / static_cast<std::size_t>(p));
        next = s.hi;
      }
      EXPECT_EQ(next, n) << "n " << n << ", p " << p;
    }
}

TEST_P(CommBackendTest, ReduceScatterSumsTheOwnSliceInRankOrder) {
  // Inside its slice a rank reads the rank-ordered sum from +0.0, bit for
  // bit (allReduceSum's contract); outside it reads +0.0, so the next
  // gradient accumulates from zero.  Each call charges n * 8 bytes.
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    for (const std::size_t n : sliceLengths(comm.size())) {
      std::vector<Real> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = contribution(comm.rank(), i);
      comm.resetByteCounter();
      comm.reduceScatterSum(v.data(), n);
      EXPECT_EQ(comm.bytesCommunicated(), n * 8) << "n = " << n;
      const Comm::Slice own = comm.slice(n);
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Real expect = 0.0;
        if (i >= own.lo && i < own.hi)
          for (int r = 0; r < comm.size(); ++r) expect += contribution(r, i);
        if (bits(v[i]) != bits(expect) && wrong++ == 0)
          ADD_FAILURE() << "n = " << n << ": element " << i << " is " << v[i] << ", not "
                        << expect << " (slice [" << own.lo << ", " << own.hi << "))";
      }
      EXPECT_EQ(wrong, 0u) << "n = " << n;
    }
    // Every contribution -0.0: the sum from +0.0 is +0.0 (a sum seeded with
    // the first contribution would be -0.0), and so is every other element.
    std::vector<Real> zeros(16, -0.0);
    comm.reduceScatterSum(zeros.data(), zeros.size());
    for (const Real x : zeros) EXPECT_EQ(bits(x), 0u);
  });
}

TEST_P(CommBackendTest, AllGatherSlicesCopiesEachOwnersSlice) {
  // Every rank fills its whole buffer with its own values; afterwards
  // element i holds the value of the rank whose slice holds i, on every rank.
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    for (const std::size_t n : sliceLengths(comm.size())) {
      std::vector<Real> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = contribution(comm.rank(), i);
      comm.resetByteCounter();
      comm.allGatherSlices(v.data(), n);
      EXPECT_EQ(comm.bytesCommunicated(), n * 8) << "n = " << n;
      std::size_t wrong = 0;
      for (int owner = 0; owner < comm.size(); ++owner) {
        const Comm::Slice s = Comm::slice(n, comm.size(), owner);
        for (std::size_t i = s.lo; i < s.hi; ++i)
          if (bits(v[i]) != bits(contribution(owner, i)) && wrong++ == 0)
            ADD_FAILURE() << "n = " << n << ": element " << i << " is not rank " << owner
                          << "'s value";
      }
      EXPECT_EQ(wrong, 0u) << "n = " << n;
    }
  });
}

TEST_P(CommBackendTest, ReduceScatterThenAllGatherIsTheAllReduce) {
  // The two legs in sequence give allReduceSum's bits and bytes.
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    const std::size_t n = 1001;
    std::vector<Real> legs(n), whole(n);
    for (std::size_t i = 0; i < n; ++i) legs[i] = whole[i] = contribution(comm.rank(), i);
    comm.resetByteCounter();
    comm.reduceScatterSum(legs.data(), n);
    comm.allGatherSlices(legs.data(), n);
    const std::uint64_t legBytes = comm.bytesCommunicated();
    comm.resetByteCounter();
    comm.allReduceSum(whole.data(), n);
    EXPECT_EQ(legBytes, comm.bytesCommunicated());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bits(legs[i]), bits(whole[i])) << i;
  });
}

TEST_P(CommBackendTest, ScalarAndSpanAllReduce) {
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    const Real p = static_cast<Real>(comm.size());
    const Real s = comm.allReduceSum(static_cast<Real>(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(s, p * (p + 1.0) / 2.0);
    std::array<Real, 3> acc{1.0, static_cast<Real>(comm.rank()), -2.0};
    comm.allReduceSum(std::span<Real>(acc));
    EXPECT_DOUBLE_EQ(acc[0], p);
    EXPECT_DOUBLE_EQ(acc[1], p * (p - 1.0) / 2.0);
    EXPECT_DOUBLE_EQ(acc[2], -2.0 * p);
  });
}

TEST_P(CommBackendTest, ByteAccountingAndReset) {
  // Accounting contract (parallel/comm.hpp): bytes each rank *receives* —
  // allgather of n doubles from p equal ranks = p*n*8, allreduce of m
  // doubles = 2*m*8; barriers are free.
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    const std::uint64_t p = static_cast<std::uint64_t>(comm.size());
    const std::size_t n = 100, m = 50;
    std::vector<Real> v(n, 1.0), w(m, 2.0);
    comm.allGather(v);
    comm.allReduceSum(w.data(), w.size());
    comm.barrier();
    EXPECT_EQ(comm.bytesCommunicated(), p * n * 8 + 2 * m * 8);
    comm.resetByteCounter();
    EXPECT_EQ(comm.bytesCommunicated(), 0u);
    comm.allGather(v);
    EXPECT_EQ(comm.bytesCommunicated(), p * n * 8);
  });
}

TEST_P(CommBackendTest, EveryRankCountsTheSameBytes) {
  // runVmc sums the ranks' byte counts as this rank's count times the world
  // size, which holds only while every collective charges every rank alike,
  // even when the ranks contribute unequal amounts.  Each collective below is
  // followed by an allgather of the counts; that gather charges every rank
  // alike too, so the counts must stay equal at every step.
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    const auto expectEqualCounts = [&comm](const char* after) {
      const std::uint64_t mine = comm.bytesCommunicated();
      for (const std::uint64_t b : comm.allGather(&mine, 1))
        EXPECT_EQ(b, mine) << "after " << after << ", rank " << comm.rank();
    };
    const std::vector<int> ragged(static_cast<std::size_t>(3 * comm.rank() + 1), 7);
    comm.allGatherV(ragged.data(), ragged.size());
    expectEqualCounts("allGatherV");
    comm.allGatherV(ragged.data(), comm.rank() == 0 ? std::size_t{0} : ragged.size());
    expectEqualCounts("allGatherV with an empty contribution");
    std::vector<Real> v(13, static_cast<Real>(comm.rank()));
    comm.reduceScatterSum(v.data(), v.size());
    expectEqualCounts("reduceScatterSum");
    comm.allGatherSlices(v.data(), v.size());
    expectEqualCounts("allGatherSlices");
    comm.allReduceSum(v.data(), v.size());
    expectEqualCounts("allReduceSum");
    comm.barrier();
    expectEqualCounts("barrier");
  });
}

TEST_P(CommBackendTest, ManyRoundsStressNoDeadlock) {
  // Back-to-back collectives reuse the same slots and buffers: a rank's next
  // post, or its write into the buffer it just contributed, must not reach a
  // slower rank that is still copying.  Each round runs two allgathers back
  // to back, and each contributor overwrites its buffer as soon as its call
  // returns; rank r contributes (r + k) % 5 blocks of a value naming r and
  // the allgather k (none in some), and every rank checks every gathered
  // element.  The slice legs and the scalar allreduce run between rounds.
  // The checks only count, so every rank runs every collective and a wrong
  // result fails the test instead of leaving the other ranks at a barrier.
  const auto world = makeTestWorld();
  world->run([](Comm& comm) {
    constexpr std::size_t kBlock = 64;
    const auto count = [](int rank, int k) {
      return static_cast<std::size_t>((rank + k) % 5) * kBlock;
    };
    const auto tag = [](int rank, int k) {
      return static_cast<std::uint64_t>(k) * 1000 + static_cast<std::uint64_t>(rank);
    };
    std::size_t wrong = 0;
    for (int round = 0; round < 200; ++round) {
      std::size_t gathered = 0;
      for (const int k : {2 * round, 2 * round + 1}) {
        std::vector<std::uint64_t> v(count(comm.rank(), k), tag(comm.rank(), k));
        const auto all = comm.allGatherV(v.data(), v.size());
        std::fill(v.begin(), v.end(), ~std::uint64_t{0});
        std::vector<std::uint64_t> expect;
        for (int r = 0; r < comm.size(); ++r) expect.insert(expect.end(), count(r, k), tag(r, k));
        if (all != expect && wrong++ == 0) ADD_FAILURE() << "allgather " << k << " is wrong";
        gathered += all.size();
      }

      const std::size_t n = static_cast<std::size_t>(3 + round % 7);
      std::vector<Real> g(n, static_cast<Real>(comm.rank() + 1));
      comm.reduceScatterSum(g.data(), n);
      const Real p = static_cast<Real>(comm.size());
      const Comm::Slice own = comm.slice(n);
      for (std::size_t i = own.lo; i < own.hi; ++i) g[i] *= 2.0 / (p * (p + 1.0));
      comm.allGatherSlices(g.data(), n);
      if (std::count(g.begin(), g.end(), 1.0) != static_cast<std::ptrdiff_t>(n) && wrong++ == 0)
        ADD_FAILURE() << "round " << round << ": the slice legs are wrong";

      const Real x = comm.allReduceSum(static_cast<Real>(gathered));
      if (x != p * static_cast<Real>(gathered) && wrong++ == 0)
        ADD_FAILURE() << "round " << round << ": the allreduce is wrong";
      comm.barrier();
    }
    EXPECT_EQ(wrong, 0u) << "rank " << comm.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, CommBackendTest,
                         ::testing::Values(CommBackend::kThreads,
                                           CommBackend::kMpi),
                         [](const auto& info) {
                           return info.param == CommBackend::kThreads ? "threads"
                                                                     : "mpi";
                         });

// ---- Thread-backend-specific semantics --------------------------------

TEST(ThreadComm, BarrierSynchronizes) {
  const int p = 6;
  ThreadWorld world(p);
  std::atomic<int> counter{0};
  std::array<int, 6> seen{};
  world.run([&](Comm& comm) {
    counter.fetch_add(1);
    comm.barrier();
    seen[static_cast<std::size_t>(comm.rank())] = counter.load();
  });
  for (int v : seen) EXPECT_EQ(v, p);
}

TEST(ThreadComm, PropagatesExceptions) {
  ThreadWorld world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank failure");
    // Rank 0 must not deadlock; it waits on a barrier the failing rank drops.
    comm.barrier();
  }),
               std::runtime_error);
  // A rank whose function returns leaves the barrier as a failing one does:
  // rank 0 throws instead of waiting for it forever.
  EXPECT_THROW(world.run([&](Comm& comm) {
    if (comm.rank() == 1) return;
    std::vector<Real> v(8, 1.0);
    comm.allReduceSum(v.data(), v.size());
  }),
               RankFailedError);

  // Rank 1 takes part in one collective on a heap buffer, frees it and
  // throws or returns; rank 0 then enters the same collective again.  Rank 0
  // must throw RankFailedError at the collective's first barrier, before it
  // reads or writes rank 1's freed buffer (ASan's use-after-free otherwise),
  // and run() must rethrow the first error: rank 1's own when it threw, rank
  // 0's RankFailedError when rank 1 returned.
  struct RankOneError : std::runtime_error {
    RankOneError() : std::runtime_error("rank 1 failed") {}
  };
  using Collective = void (*)(Comm&);
  const std::array<std::pair<const char*, Collective>, 5> cases{{
      {"barrier", [](Comm& comm) { comm.barrier(); }},
      {"allGatherV",
       [](Comm& comm) {
         const std::vector<Real> v(64, 1.0);
         (void)comm.allGatherV(v.data(), v.size());
       }},
      {"reduceScatterSum",
       [](Comm& comm) {
         std::vector<Real> v(64, 1.0);
         comm.reduceScatterSum(v.data(), v.size());
       }},
      {"allGatherSlices",
       [](Comm& comm) {
         std::vector<Real> v(64, 1.0);
         comm.allGatherSlices(v.data(), v.size());
       }},
      {"allReduceSum",
       [](Comm& comm) {
         std::vector<Real> v(64, 1.0);
         comm.allReduceSum(v.data(), v.size());
       }},
  }};
  for (const bool rankOneThrows : {true, false}) {
    for (const auto& [name, collective] : cases) {
      const std::string how =
          std::string(name) + (rankOneThrows ? ", rank 1 throws" : ", rank 1 returns");
      std::atomic<bool> rankZeroStopped{false};
      try {
        world.run([&, collective = collective](Comm& comm) {
          collective(comm);
          if (comm.rank() == 1) {
            if (rankOneThrows) throw RankOneError();
            return;
          }
          try {
            collective(comm);
          } catch (const RankFailedError&) {
            rankZeroStopped = true;
            throw;
          }
        });
        ADD_FAILURE() << how << ": run() returned";
      } catch (const RankOneError&) {
        EXPECT_TRUE(rankOneThrows) << how;
      } catch (const RankFailedError&) {
        EXPECT_FALSE(rankOneThrows) << how << ": run() rethrew RankFailedError, not rank 1's error";
      } catch (const std::exception& e) {
        ADD_FAILURE() << how << ": run() threw '" << e.what() << "'";
      }
      EXPECT_TRUE(rankZeroStopped) << how << ": rank 0 did not throw RankFailedError";
    }
  }
}

TEST(ThreadComm, AllReduceRejectsMismatchedLengths) {
  // A rank that posts a shorter buffer would otherwise have its neighbours
  // read past its end.  Every rank sees the same posted lengths, so every
  // rank throws (none is left waiting in a barrier) and no buffer changes.
  ThreadWorld world(4);
  std::atomic<int> rejected{0};
  std::array<std::vector<Real>, 4> bufs;
  EXPECT_THROW(world.run([&](Comm& comm) {
    auto& v = bufs[static_cast<std::size_t>(comm.rank())];
    v.assign(comm.rank() == 2 ? 5u : 8u, 1.0);
    try {
      comm.allReduceSum(v.data(), v.size());
    } catch (const std::invalid_argument&) {
      rejected.fetch_add(1);
      throw;
    }
  }),
               std::invalid_argument);
  EXPECT_EQ(rejected.load(), 4);
  for (const auto& v : bufs)
    for (Real x : v) EXPECT_EQ(x, 1.0);
}

TEST(ThreadComm, SliceCollectivesRejectMismatchedLengths) {
  // As allReduceSum: every rank throws, none waits in a barrier, and no
  // buffer changes.
  using Collective = void (Comm::*)(Real*, std::size_t);
  for (const Collective collective : {&Comm::reduceScatterSum, &Comm::allGatherSlices}) {
    ThreadWorld world(4);
    std::atomic<int> rejected{0};
    std::array<std::vector<Real>, 4> bufs;
    EXPECT_THROW(world.run([&](Comm& comm) {
      auto& v = bufs[static_cast<std::size_t>(comm.rank())];
      v.assign(comm.rank() == 1 ? 9u : 8u, 1.0 + comm.rank());
      try {
        (comm.*collective)(v.data(), v.size());
      } catch (const std::invalid_argument&) {
        rejected.fetch_add(1);
        throw;
      }
    }),
                 std::invalid_argument);
    EXPECT_EQ(rejected.load(), 4);
    for (std::size_t r = 0; r < bufs.size(); ++r)
      for (Real x : bufs[r]) EXPECT_EQ(x, 1.0 + static_cast<Real>(r));
  }
}

TEST(ThreadComm, ThisProcessHostsRankZero) {
  ThreadWorld world(3);
  EXPECT_EQ(world.thisProcessRank(), 0);
  EXPECT_EQ(processRank(CommBackend::kThreads), 0);
  EXPECT_EQ(worldSize(CommBackend::kThreads, 5), 5);
}

TEST(MakeWorld, MpiWithoutBuildFlagThrows) {
  if (mpiAvailable()) GTEST_SKIP() << "NNQS_WITH_MPI build has the backend";
  EXPECT_THROW(makeWorld(CommBackend::kMpi, 2), std::runtime_error);
}
