#pragma once

// Internal header of the elementwise kernel backends: the per-range / per-row
// kernel function table and the backend probes.  The arithmetic contract and
// the scalar sequences that define it live in elementwise.hpp; the scalar
// backend (elementwise_scalar.cpp) is the ground truth the SIMD backends are
// tested bit-for-bit against.

#include "nn/kernels/elementwise.hpp"

namespace nnqs::nn::kernels::detail {

/// A backend = the elementwise ranges (tanh, GELU) plus the per-row LayerNorm
/// kernels.
/// Range kernels may be called on any contiguous sub-range (the threaded
/// driver chunks them; chunk boundaries cannot perturb elementwise results).
/// Row kernels handle exactly one row r of their problem (rows are
/// independent, so the threaded driver sweeps them in parallel), except
/// lnParamGrads, which owns the whole serial ascending-row accumulation of
/// dgamma/dbeta.
struct EwBackend {
  void (*tanhForward)(const Real* x, Real* y, Index n);
  void (*geluForward)(const Real* x, Real* y, Index n);
  void (*geluBackward)(const Real* x, const Real* dy, Real* dx, Index n);
  void (*lnRowForward)(const ResidualLnArgs& a, Index r);
  void (*lnRowBackward)(const LayerNormBwdArgs& a, Index r);
  void (*lnParamGrads)(const LayerNormBwdArgs& a);
};

/// Scalar reference backend (ground truth for every policy).
const EwBackend* scalarEwBackend();

/// AVX2 / AVX-512 backends, or nullptr when not compiled in or not supported
/// by this CPU (cpuid probe, as for the other kernel families).
const EwBackend* avx2EwBackend();
const EwBackend* avx512EwBackend();

}  // namespace nnqs::nn::kernels::detail
