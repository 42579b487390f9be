#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "exec/policy.hpp"

namespace nnqs::parallel {

/// Transport selector (enumerators in exec/policy.hpp: kThreads / kMpi).
using CommBackend = exec::CommBackend;

/// MPI-semantics collectives behind one backend-agnostic interface.  The
/// paper's data-centric VMC scheme (Fig. 4 / §3.2) is written against MPI
/// collectives; `Comm` is that contract, with two transports:
///
///  - ThreadComm: each "rank" is a thread of one ThreadWorld (tests/CI, no
///    external dependencies).
///  - MpiComm (NNQS_WITH_MPI builds): each rank is an MPI process of
///    MPI_COMM_WORLD — the real multi-node scale-out path.
///
/// Both transports implement the same *rank-ordered deterministic reduction*
/// contract: element i of allReduceSum's result is the sequential IEEE sum
/// ((+0.0 + x_0[i]) + x_1[i]) + ... + x_{P-1}[i] of the per-rank
/// contributions, bit-identically on every rank — never MPI_SUM, whose
/// reduction tree is implementation-defined.  An allreduce is two legs on
/// every backend: allReduceSum calls the one and then the other, and the
/// sharded optimizer step (vmc/driver.cpp, Stage 6) calls them apart:
///
///  - reduceScatterSum: rank q sums its slice(n), [n·q/P, n·(q+1)/P), of
///    every rank's buffer in rank order from +0.0 and writes the sums into
///    its own buffer, +0.0 everywhere else;
///  - allGatherSlices: every rank's slice(n) of its own buffer is copied
///    into every rank's buffer.
///
/// ThreadComm runs both legs on the posted buffers in place: rank q reads
/// and writes slice q of every buffer, so no staging buffer exists and no
/// rank waits while another sums.  MpiComm runs reduceScatterSum as an
/// MPI_Alltoallv of the slices and a rank-ordered sum, and allGatherSlices
/// as MPI_Allgatherv in place.  allGatherV concatenates the contributions in
/// rank order.  A run is therefore bit-identical across backends at a fixed
/// rank count.
///
/// Every ThreadComm collective is one pattern: each rank posts its buffer
/// (pointer and length) into its slot of the shared WorldState, meets the
/// others at a barrier, does its local work on the posted buffers, and meets
/// them at a second barrier, after which any rank may reuse its buffer and
/// post again.  allGatherV spreads the pattern over its two virtuals:
/// allGatherCounts posts the pointer with the byte count and waits,
/// allGatherFill copies and waits.
///
/// Rank failure (ThreadComm): a rank whose function throws or returns sets
/// the world's failure flag and only then leaves the barrier.  Every
/// barrier, inside a collective or the public barrier(), reads the flag as it
/// stood when the barrier's phase completed, so all ranks leaving one phase
/// agree; if it is set, the barrier throws RankFailedError before this rank
/// touches another rank's slot.  No survivor reads a buffer the failed rank
/// has freed, none waits for a rank that left, and ThreadWorld::run rethrows
/// the first error: the failed rank's own, or a survivor's RankFailedError
/// when the rank that left had returned.  The rule assumes that local work
/// between two barriers does not throw; the one exception is allGatherV's
/// allocation of its result, and a rank that fails there leaves the others
/// reading its contribution.  Under MPI a failing process ends the job the
/// way MPI does.
///
/// Byte accounting (the paper reports communication volume, §3.2): every
/// collective charges the wire bytes this rank *receives*, matching the
/// paper's counting, regardless of transport:
///   - allGatherV of n_r elements per rank: sum_r n_r * sizeof(T);
///   - reduceScatterSum and allGatherSlices of n elements: n * sizeof(T)
///     each, so allReduceSum, the two in turn, charges 2 * n * sizeof(T);
///   - barrier: 0.
/// The counter is cumulative per rank; callers that want per-phase or
/// per-iteration volumes snapshot bytesCommunicated() and resetByteCounter()
/// around the region of interest (the VMC driver resets at the top of every
/// iteration, so its reported comm volume is the exact last-iteration total,
/// not a run-lifetime average).
///
/// Virtual dispatch is per *collective call*, never per element — the
/// templated convenience wrappers below are header-inlined and the payload
/// memcpy/wire traffic dominates any call overhead, so driver/estimator/LUT
/// code compiles unchanged and at full speed against either backend.
class Comm {
 public:
  virtual ~Comm() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;
  virtual void barrier() = 0;

  /// Variable-size all-gather: concatenation of every rank's buffer, in rank
  /// order.  `countsOut` (optional) receives each rank's element count, so
  /// callers can recover the per-rank slices of the concatenation.
  template <typename T>
  std::vector<T> allGatherV(const T* data, std::size_t n,
                            std::vector<std::size_t>* countsOut = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::size_t> byteCounts;
    const std::size_t totalBytes = allGatherCounts(data, n * sizeof(T), byteCounts);
    std::vector<T> out(totalBytes / sizeof(T));
    allGatherFill(data, n * sizeof(T), out.data(), byteCounts);
    bytes_ += totalBytes;
    if (countsOut != nullptr) {
      countsOut->resize(byteCounts.size());
      for (std::size_t r = 0; r < byteCounts.size(); ++r)
        (*countsOut)[r] = byteCounts[r] / sizeof(T);
    }
    return out;
  }

  template <typename T>
  std::vector<T> allGather(const T* data, std::size_t n) {
    return allGatherV(data, n);
  }

  template <typename T>
  std::vector<T> allGather(const std::vector<T>& v) {
    return allGatherV(v.data(), v.size());
  }

  /// In-place sum-All-reduce with bit-identical results on every rank: the
  /// rank-ordered sequential sum of the per-rank contributions, as
  /// reduceScatterSum followed by allGatherSlices.  Every rank must pass the
  /// same n; ThreadComm throws std::invalid_argument on every rank when they
  /// differ.
  void allReduceSum(Real* data, std::size_t n) {
    reduceScatterSum(data, n);
    allGatherSlices(data, n);
  }

  /// Typed-span overload: the natural spelling for fixed-size statistics
  /// blocks (e.g. the driver's 3-element energy reduce) — no raw
  /// pointer/length pair to get out of sync.
  void allReduceSum(std::span<Real> v) { allReduceSum(v.data(), v.size()); }

  /// Scalar convenience overload.
  Real allReduceSum(Real v) {
    allReduceSum(&v, 1);
    return v;
  }

  /// The half-open element range [lo, hi) of a flat buffer.
  struct Slice {
    std::size_t lo, hi;
  };
  /// Rank q's slice of an n-element buffer shared by p ranks:
  /// [floor(n q / p), floor(n (q + 1) / p)), computed without forming n q.
  /// The slices tile [0, n) in rank order; some are empty when n < p.
  [[nodiscard]] static Slice slice(std::size_t n, int p, int q) {
    const auto bound = [n, up = static_cast<std::size_t>(p)](std::size_t k) {
      return n / up * k + n % up * k / up;
    };
    return {bound(static_cast<std::size_t>(q)), bound(static_cast<std::size_t>(q) + 1)};
  }
  /// This rank's slice, the elements it owns in reduceScatterSum and
  /// allGatherSlices.
  [[nodiscard]] Slice slice(std::size_t n) const { return slice(n, size(), rank()); }

  /// The reduce leg of allReduceSum: slice(n) of this rank's buffer receives
  /// the rank-ordered sum from +0.0 of that slice over every rank's buffer;
  /// every other element becomes +0.0.  Every rank must pass the same n;
  /// ThreadComm throws std::invalid_argument on every rank when they differ.
  void reduceScatterSum(Real* data, std::size_t n) {
    reduceScatterSumReal(data, n);
    bytes_ += n * sizeof(Real);
  }

  /// The broadcast leg of allReduceSum: slice(n) of every rank's buffer is
  /// copied into the same slice of every other rank's buffer.  Same length
  /// rule as reduceScatterSum.
  void allGatherSlices(Real* data, std::size_t n) {
    allGatherSlicesReal(data, n);
    bytes_ += n * sizeof(Real);
  }

  /// Bytes this rank has received through collectives since the last reset
  /// (see the class comment for the per-collective accounting).
  [[nodiscard]] std::uint64_t bytesCommunicated() const { return bytes_; }
  void resetByteCounter() { bytes_ = 0; }

 protected:
  /// Exchange per-rank byte counts; returns the total.  Paired with
  /// allGatherFill, which every rank calls next with the same `data` and
  /// `myBytes`; `data` stays valid until that call returns.
  virtual std::size_t allGatherCounts(const void* data, std::size_t myBytes,
                                      std::vector<std::size_t>& byteCounts) = 0;
  /// Write the rank-order concatenation of every rank's buffer into `out`
  /// (sized to the total from allGatherCounts).
  virtual void allGatherFill(const void* data, std::size_t myBytes, void* out,
                             const std::vector<std::size_t>& byteCounts) = 0;
  virtual void reduceScatterSumReal(Real* data, std::size_t n) = 0;
  virtual void allGatherSlicesReal(Real* data, std::size_t n) = 0;

  std::uint64_t bytes_ = 0;
};

/// A set of ranks executing one SPMD function against a Comm.  Under the
/// threads backend run() spawns size() rank-threads in this process; under
/// MPI the process *is* one rank and run() invokes the function once.
class World {
 public:
  virtual ~World() = default;
  [[nodiscard]] virtual int size() const = 0;
  /// The rank whose results this process holds after run(): 0 under threads
  /// (all ranks live here; rank 0's slot is canonical), the process's world
  /// rank under MPI.
  [[nodiscard]] virtual int thisProcessRank() const = 0;
  virtual void run(const std::function<void(Comm&)>& fn) = 0;
};

/// What a ThreadComm barrier throws once another rank of its world has
/// thrown or returned (see Comm's rank-failure rule); ThreadWorld::run
/// rethrows the first error, a thrown rank's own one.
class RankFailedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thread-backend Comm: collectives rendezvous through a shared WorldState.
class ThreadComm final : public Comm {
 public:
  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override {
    return static_cast<int>(state_->size);
  }
  /// Throws RankFailedError when another rank has failed.
  void barrier() override;

 protected:
  std::size_t allGatherCounts(const void* data, std::size_t myBytes,
                              std::vector<std::size_t>& byteCounts) override;
  void allGatherFill(const void* data, std::size_t myBytes, void* out,
                     const std::vector<std::size_t>& byteCounts) override;
  void reduceScatterSumReal(Real* data, std::size_t n) override;
  void allGatherSlicesReal(Real* data, std::size_t n) override;

 private:
  friend class ThreadWorld;
  struct WorldState {
    /// The barrier's completion step: latches `failed` into `stopped` as
    /// each phase completes, so every rank leaving one phase reads the same
    /// value, whatever a rank does after it left.
    struct OnPhase {
      WorldState* st;
      void operator()() noexcept { st->stopped = st->failed.load(); }
    };
    std::size_t size;
    std::unique_ptr<std::barrier<OnPhase>> barrier;
    /// Each rank's allGatherV contribution: pointer and byte count.
    std::vector<std::pair<const void*, std::size_t>> contrib;
    /// Each rank's buffer and length in reduceScatterSum and
    /// allGatherSlices, which work on them in place.
    std::vector<std::pair<Real*, std::size_t>> reduceSlots;
    /// Set by a rank whose function threw or returned, before it leaves
    /// the barrier.
    std::atomic<bool> failed{false};
    /// `failed` as of the last completed phase; written only by OnPhase.
    bool stopped = false;
  };
  ThreadComm(int rank, std::shared_ptr<WorldState> state)
      : rank_(rank), state_(std::move(state)) {}
  /// Posts this rank's buffer and waits for every rank's; returns this
  /// rank's slice.  Throws std::invalid_argument, naming `collective`, on
  /// every rank when the posted lengths differ.
  Slice postSlot(Real* data, std::size_t n, const char* collective);
  int rank_;
  std::shared_ptr<WorldState> state_;
};

/// Spawns `size` rank-threads and runs `fn(comm)` on each.  `threadsPerRank`
/// sets the OpenMP team available inside each rank (second-level parallelism,
/// the paper's per-GPU threads).
class ThreadWorld final : public World {
 public:
  explicit ThreadWorld(int size, int threadsPerRank = 1);
  void run(const std::function<void(Comm&)>& fn) override;
  [[nodiscard]] int size() const override { return size_; }
  [[nodiscard]] int thisProcessRank() const override { return 0; }

 private:
  int size_, threadsPerRank_;
};

/// True when this binary was built with the MPI backend (-DNNQS_WITH_MPI).
[[nodiscard]] bool mpiAvailable();

/// Rank of this *process* in the backend's world without constructing one:
/// 0 for kThreads (single process), the MPI_COMM_WORLD rank for kMpi
/// (initializing MPI on first use).  Benches use this to print from exactly
/// one process under mpirun.  Throws std::runtime_error for kMpi in a build
/// without NNQS_WITH_MPI.
[[nodiscard]] int processRank(CommBackend backend);

/// Rank count a world of this backend would have: `nRanks` for kThreads
/// (must be >= 1), the MPI_COMM_WORLD size for kMpi (`nRanks` must then be 0
/// = "use the launcher's count" or match it exactly).
[[nodiscard]] int worldSize(CommBackend backend, int nRanks);

/// Backend factory.  kThreads: a ThreadWorld of `nRanks` rank-threads.
/// kMpi: the process's MPI world (size fixed by mpirun; pass nRanks = 0 to
/// accept it, or the exact count to assert it).  Throws std::runtime_error
/// for kMpi in a build without NNQS_WITH_MPI.
std::unique_ptr<World> makeWorld(CommBackend backend, int nRanks,
                                 int threadsPerRank = 1);

}  // namespace nnqs::parallel
