#pragma once

// Real-MPI Comm backend (one process per rank), compiled only under
// -DNNQS_WITH_MPI.  Consumers never include this directly: they go through
// parallel::makeWorld(CommBackend::kMpi, ...) / parallel::processRank(),
// which comm.cpp routes here when the backend is compiled in.
//
// Determinism contract (same as ThreadComm): reduceScatterSum exchanges the
// slices with MPI_Alltoallv and sums each in rank order from +0.0 on its
// owner, and allGatherSlices is MPI_Allgatherv in place; Comm::allReduceSum
// calls the one and then the other on this backend as on the thread one, so
// no rank receives more than n elements per leg.  Never MPI_SUM, whose
// reduction-tree association is implementation-defined and would break
// bit-identity across backends.

#ifdef NNQS_WITH_MPI

#include <memory>

#include "parallel/comm.hpp"

namespace nnqs::parallel {

/// MPI_COMM_WORLD rank/size of this process, initializing MPI on first use
/// (MPI_THREAD_FUNNELED; MPI_Finalize is registered at exit).
[[nodiscard]] int mpiProcessRank();
[[nodiscard]] int mpiWorldSize();

/// The process's MPI world: run(fn) invokes fn exactly once, with this
/// process's rank — the SPMD launch itself is mpirun's job.
std::unique_ptr<World> makeMpiWorld(int threadsPerRank);

}  // namespace nnqs::parallel

#endif  // NNQS_WITH_MPI
