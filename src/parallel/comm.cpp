#include "parallel/comm.hpp"

#include <omp.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef NNQS_WITH_MPI
#include "parallel/mpi_comm.hpp"
#endif

namespace nnqs::parallel {

// ----------------------------------------------------------- ThreadComm ---

void ThreadComm::barrier() {
  state_->barrier->arrive_and_wait();
  if (state_->stopped)
    throw RankFailedError(
        "ThreadComm: another rank failed or left; ThreadWorld::run rethrows the first error");
}

std::size_t ThreadComm::allGatherCounts(const void* data, std::size_t myBytes,
                                        std::vector<std::size_t>& byteCounts) {
  auto& st = *state_;
  byteCounts.resize(st.size);  // sized before the post, so no allocation follows it
  st.contrib[static_cast<std::size_t>(rank_)] = {data, myBytes};
  barrier();  // every contribution posted; allGatherFill's barrier ends the call
  std::size_t total = 0;
  for (std::size_t r = 0; r < st.size; ++r) {
    byteCounts[r] = st.contrib[r].second;
    total += byteCounts[r];
  }
  return total;
}

void ThreadComm::allGatherFill(const void* /*data*/, std::size_t /*myBytes*/, void* out,
                               const std::vector<std::size_t>& byteCounts) {
  // Copies from the pointers allGatherCounts posted, which no rank replaces
  // before the barrier below.
  auto& st = *state_;
  std::size_t off = 0;
  for (std::size_t r = 0; r < st.size; ++r) {
    // Ranks may legitimately contribute nothing (e.g. no local samples);
    // memcpy from a null source is UB even for zero bytes.
    if (byteCounts[r] != 0)
      std::memcpy(static_cast<char*>(out) + off, st.contrib[r].first,
                  byteCounts[r]);
    off += byteCounts[r];
  }
  barrier();  // contributors may reuse their buffers after this
}

Comm::Slice ThreadComm::postSlot(Real* data, std::size_t n, const char* collective) {
  auto& st = *state_;
  st.reduceSlots[static_cast<std::size_t>(rank_)] = {data, n};
  barrier();  // all buffers posted
  // Every rank reads the same posted lengths, so on a mismatch every rank
  // throws here and none waits at the caller's closing barrier.
  for (const auto& slot : st.reduceSlots)
    if (slot.second != n)
      throw std::invalid_argument(std::string(collective) +
                                  ": ranks posted different lengths");
  return slice(n);
}

// Rank q reads and writes slice q of every posted buffer and nothing else,
// so the two legs need no lock between their two barriers.

void ThreadComm::reduceScatterSumReal(Real* data, std::size_t n) {
  // The slice's sums, element by element in rank order from +0.0 (the Comm
  // contract), one L1-sized block at a time, go into this rank's buffer and
  // +0.0 into the same block of the others; their owners zero the rest of
  // this buffer.
  const Slice own = postSlot(data, n, "reduceScatterSum");
  const auto& slots = state_->reduceSlots;
  constexpr std::size_t kBlock = 512;
  Real acc[kBlock] = {};
  for (std::size_t lo = own.lo; lo < own.hi; lo += kBlock) {
    const std::size_t len = std::min(kBlock, own.hi - lo);
    const Real* src0 = slots[0].first + lo;
    for (std::size_t i = 0; i < len; ++i) acc[i] = 0.0 + src0[i];
    for (std::size_t r = 1; r < slots.size(); ++r) {
      const Real* src = slots[r].first + lo;
      for (std::size_t i = 0; i < len; ++i) acc[i] += src[i];
    }
    for (const auto& slot : slots)
      if (slot.first == data)
        std::memcpy(data + lo, acc, len * sizeof(Real));
      else
        std::fill(slot.first + lo, slot.first + lo + len, 0.0);
  }
  barrier();  // every slice written back
}

void ThreadComm::allGatherSlicesReal(Real* data, std::size_t n) {
  const Slice own = postSlot(data, n, "allGatherSlices");
  if (own.hi > own.lo)
    for (const auto& slot : state_->reduceSlots)
      if (slot.first != data)
        std::memcpy(slot.first + own.lo, data + own.lo, (own.hi - own.lo) * sizeof(Real));
  barrier();  // every slice copied out
}

// ---------------------------------------------------------- ThreadWorld ---

ThreadWorld::ThreadWorld(int size, int threadsPerRank)
    : size_(size), threadsPerRank_(threadsPerRank < 1 ? 1 : threadsPerRank) {
  if (size < 1) throw std::invalid_argument("ThreadWorld: size must be >= 1");
}

void ThreadWorld::run(const std::function<void(Comm&)>& fn) {
  auto state = std::make_shared<ThreadComm::WorldState>();
  state->size = static_cast<std::size_t>(size_);
  state->barrier = std::make_unique<std::barrier<ThreadComm::WorldState::OnPhase>>(
      size_, ThreadComm::WorldState::OnPhase{state.get()});
  state->contrib.resize(state->size);
  state->reduceSlots.resize(state->size);

  std::vector<std::thread> threads;
  std::exception_ptr firstError;
  std::mutex errMutex;
  threads.reserve(state->size);
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      omp_set_num_threads(threadsPerRank_);
      ThreadComm comm(r, state);
      try {
        fn(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!firstError) firstError = std::current_exception();
      }
      // Whether it threw or returned, this rank takes part in no further
      // phase: flag it, then leave the barrier.  The others are not
      // deadlocked, and each throws RankFailedError at its next barrier
      // instead of touching this rank's posted buffers.  The first error is
      // rethrown to the caller after join.
      state->failed.store(true);
      state->barrier->arrive_and_drop();
    });
  }
  for (auto& t : threads) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

// -------------------------------------------------------------- factory ---

bool mpiAvailable() {
#ifdef NNQS_WITH_MPI
  return true;
#else
  return false;
#endif
}

namespace {
[[noreturn]] void throwNoMpi() {
  throw std::runtime_error(
      "MPI comm backend requested but this build has no MPI support "
      "(reconfigure with -DNNQS_WITH_MPI=ON and run under mpirun)");
}
}  // namespace

int processRank(CommBackend backend) {
  if (backend == CommBackend::kThreads) return 0;
#ifdef NNQS_WITH_MPI
  return mpiProcessRank();
#else
  throwNoMpi();
#endif
}

int worldSize(CommBackend backend, int nRanks) {
  if (backend == CommBackend::kThreads) {
    if (nRanks < 1)
      throw std::invalid_argument("worldSize: thread backend needs nRanks >= 1");
    return nRanks;
  }
#ifdef NNQS_WITH_MPI
  const int ws = mpiWorldSize();
  if (nRanks != 0 && nRanks != ws)
    throw std::invalid_argument(
        "worldSize: MPI world size is fixed by the launcher; pass nRanks = 0 "
        "or the exact mpirun -np count");
  return ws;
#else
  (void)nRanks;
  throwNoMpi();
#endif
}

std::unique_ptr<World> makeWorld(CommBackend backend, int nRanks,
                                 int threadsPerRank) {
  if (backend == CommBackend::kThreads)
    return std::make_unique<ThreadWorld>(nRanks, threadsPerRank);
#ifdef NNQS_WITH_MPI
  (void)worldSize(backend, nRanks);  // validates nRanks against the launcher
  return makeMpiWorld(threadsPerRank);
#else
  throwNoMpi();
#endif
}

}  // namespace nnqs::parallel
