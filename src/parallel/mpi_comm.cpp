// MPI Comm backend.  See mpi_comm.hpp for the contract; the whole TU is
// empty unless the build enables -DNNQS_WITH_MPI.

#ifdef NNQS_WITH_MPI

#include "parallel/mpi_comm.hpp"

#include <mpi.h>
#include <omp.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace nnqs::parallel {

namespace {

/// Process-lifetime MPI environment: initialized on first use by any comm
/// entry point, finalized at exit iff we were the ones who initialized it
/// (a host application that called MPI_Init itself keeps ownership).
class MpiEnv {
 public:
  static MpiEnv& get() {
    static MpiEnv env;
    return env;
  }
  int rank = 0, size = 1;

 private:
  MpiEnv() {
    int initialized = 0;
    MPI_Initialized(&initialized);
    if (!initialized) {
      int provided = 0;
      // FUNNELED: only the rank's main thread calls MPI; OpenMP teams inside
      // a rank (threadsPerRank) never touch the comm layer.
      MPI_Init_thread(nullptr, nullptr, MPI_THREAD_FUNNELED, &provided);
      std::atexit([] {
        int finalized = 0;
        MPI_Finalized(&finalized);
        if (!finalized) MPI_Finalize();
      });
    }
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
  }
};

/// MPI_Allgatherv counts/displacements are ints; guard the conversion so an
/// oversized payload fails loudly instead of truncating.
int checkedInt(std::size_t v, const char* what) {
  if (v > static_cast<std::size_t>(std::numeric_limits<int>::max()))
    throw std::overflow_error(std::string("MpiComm: ") + what +
                              " exceeds the MPI int range");
  return static_cast<int>(v);
}

class MpiComm final : public Comm {
 public:
  MpiComm() : rank_(MpiEnv::get().rank), size_(MpiEnv::get().size) {}

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return size_; }
  void barrier() override { MPI_Barrier(MPI_COMM_WORLD); }

 protected:
  std::size_t allGatherCounts(const void* /*data*/, std::size_t myBytes,
                              std::vector<std::size_t>& byteCounts) override {
    byteCounts.resize(static_cast<std::size_t>(size_));
    const auto mine = static_cast<std::uint64_t>(myBytes);
    static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
    MPI_Allgather(&mine, 1, MPI_UINT64_T, byteCounts.data(), 1, MPI_UINT64_T,
                  MPI_COMM_WORLD);
    std::size_t total = 0;
    for (std::size_t c : byteCounts) total += c;
    return total;
  }

  void allGatherFill(const void* data, std::size_t myBytes, void* out,
                     const std::vector<std::size_t>& byteCounts) override {
    recvCounts_.resize(byteCounts.size());
    displs_.resize(byteCounts.size());
    std::size_t off = 0;
    for (std::size_t r = 0; r < byteCounts.size(); ++r) {
      recvCounts_[r] = checkedInt(byteCounts[r], "allGatherV contribution");
      displs_[r] = checkedInt(off, "allGatherV payload");
      off += byteCounts[r];
    }
    // A zero-size contribution may carry a null pointer; MPI expects a valid
    // (if unused) buffer address.
    static char dummy = 0;
    MPI_Allgatherv(myBytes == 0 ? &dummy : data,
                   checkedInt(myBytes, "allGatherV contribution"), MPI_BYTE,
                   out, recvCounts_.data(), displs_.data(), MPI_BYTE,
                   MPI_COMM_WORLD);
  }

  void reduceScatterSumReal(Real* data, std::size_t n) override {
    if (n == 0) return;
    // Every rank sends slice q of its buffer to rank q, which then sums the
    // P pieces in rank order from +0.0.  MPI_Reduce_scatter(MPI_SUM) would
    // associate in an implementation-defined order.
    const Slice own = slice(n);
    const std::size_t len = own.hi - own.lo;
    const auto p = static_cast<std::size_t>(size_);
    sliceLayout(n);
    recvCounts_.assign(p, checkedInt(len, "reduceScatterSum slice"));
    displs_.resize(p);
    for (std::size_t r = 0; r < p; ++r) displs_[r] = checkedInt(r * len, "reduceScatterSum staging");
    gatherBuf_.resize(p * len);
    MPI_Alltoallv(data, sliceCounts_.data(), sliceDispls_.data(), MPI_DOUBLE, gatherBuf_.data(),
                  recvCounts_.data(), displs_.data(), MPI_DOUBLE, MPI_COMM_WORLD);
    for (std::size_t i = 0; i < len; ++i) {
      Real acc = 0.0;
      for (std::size_t r = 0; r < p; ++r) acc += gatherBuf_[r * len + i];
      data[own.lo + i] = acc;
    }
    std::fill(data, data + own.lo, 0.0);
    std::fill(data + own.hi, data + n, 0.0);
  }

  void allGatherSlicesReal(Real* data, std::size_t n) override {
    if (n == 0) return;
    sliceLayout(n);
    MPI_Allgatherv(MPI_IN_PLACE, 0, MPI_DATATYPE_NULL, data, sliceCounts_.data(),
                   sliceDispls_.data(), MPI_DOUBLE, MPI_COMM_WORLD);
  }

 private:
  /// Every rank's slice(n) as MPI counts and displacements (in elements).
  void sliceLayout(std::size_t n) {
    sliceCounts_.resize(static_cast<std::size_t>(size_));
    sliceDispls_.resize(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r) {
      const Slice s = slice(n, size_, r);
      sliceCounts_[static_cast<std::size_t>(r)] = checkedInt(s.hi - s.lo, "slice length");
      sliceDispls_[static_cast<std::size_t>(r)] = checkedInt(s.lo, "slice offset");
    }
  }

  int rank_, size_;
  std::vector<int> recvCounts_, displs_, sliceCounts_, sliceDispls_;
  /// The P pieces of this rank's slice in reduceScatterSum, reused from
  /// call to call.
  std::vector<Real> gatherBuf_;
};

class MpiWorld final : public World {
 public:
  explicit MpiWorld(int threadsPerRank)
      : threadsPerRank_(threadsPerRank < 1 ? 1 : threadsPerRank) {}
  [[nodiscard]] int size() const override { return MpiEnv::get().size; }
  [[nodiscard]] int thisProcessRank() const override {
    return MpiEnv::get().rank;
  }
  void run(const std::function<void(Comm&)>& fn) override {
    omp_set_num_threads(threadsPerRank_);
    MpiComm comm;  // fresh byte counter per run, like the threads backend
    fn(comm);
  }

 private:
  int threadsPerRank_;
};

}  // namespace

int mpiProcessRank() { return MpiEnv::get().rank; }
int mpiWorldSize() { return MpiEnv::get().size; }

std::unique_ptr<World> makeMpiWorld(int threadsPerRank) {
  return std::make_unique<MpiWorld>(threadsPerRank);
}

}  // namespace nnqs::parallel

#endif  // NNQS_WITH_MPI
