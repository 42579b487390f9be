#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "nn/parameter.hpp"

namespace nnqs::nn {

struct AdamWOptions {
  Real lr = 1e-3;
  Real beta1 = 0.9;
  Real beta2 = 0.999;
  Real eps = 1e-8;
  Real weightDecay = 1e-4;
};

/// AdamW over a fixed parameter list (the paper's training optimizer).  The
/// list must lie back to back, in list order, in one value buffer and in one
/// gradient buffer (QiankunNet::parameters(), or a single parameter): the
/// optimizer's store.  It steps one slice [lo, hi) of that store, by default
/// all of it, and holds first and second moments for that slice only, so
/// the whole step is one kernels::adamw call.  The update is elementwise
/// with global scalars, so stepping disjoint slices that cover the store
/// gives the bits of one whole-store step (the sharded Stage 6 of
/// vmc/driver.cpp).
class AdamW {
 public:
  /// Elements [lo, hi) of the store.
  struct Slice {
    Index lo, hi;
  };

  /// Throws std::invalid_argument unless `params` is one contiguous run in
  /// both value and gradient and 0 <= lo <= hi <= its length.  No slice:
  /// the whole store.
  AdamW(std::vector<Parameter*> params, AdamWOptions opts = {},
        std::optional<Slice> slice = std::nullopt);

  /// One update of the slice using the gradients currently stored there,
  /// zeroing them in the same pass; the rest of the store is left alone.
  /// `lrScale` multiplies opts.lr (the schedule).  One kernels::adamw call
  /// (the elementwise kernel family, elementwise.hpp), so every kernel tier
  /// gives the same bits.
  void step(Real lrScale = 1.0);
  [[nodiscard]] const AdamWOptions& options() const { return opts_; }

  // Checkpoint access (io/checkpoint.cpp): the optimizer's full resumable
  // state is (m, v, t) over the fixed parameter list.
  [[nodiscard]] const std::vector<Parameter*>& parameters() const { return params_; }
  /// The store's length (every parameter's element count, summed).
  [[nodiscard]] Index storeSize() const { return n_; }
  [[nodiscard]] Slice slice() const { return slice_; }
  /// True unless the slice is the whole store.
  [[nodiscard]] bool sliced() const { return slice_.hi - slice_.lo != n_; }
  /// First and second moments of the slice, flat in store order: store
  /// element lo + i has moment i.
  [[nodiscard]] const std::vector<Real>& moments1() const { return m_; }
  [[nodiscard]] const std::vector<Real>& moments2() const { return v_; }
  [[nodiscard]] long stepCount() const { return t_; }
  /// Replace the moment estimates and step counter (checkpoint resume).
  /// Lengths must equal the slice's; validated before any member is
  /// touched, so a throw leaves the optimizer unchanged.
  void restoreState(std::vector<Real> m, std::vector<Real> v, long t);

 private:
  std::vector<Parameter*> params_;
  AdamWOptions opts_;
  Index n_ = 0;
  Slice slice_{};
  std::vector<Real> m_, v_;
  long t_ = 0;
};

/// The paper's learning-rate schedule, Eq. (13):
///   alpha_i = dModel^{-1/2} * min(i^{-1/2}, i * S_warmup^{-3/2}).
class NoamSchedule {
 public:
  NoamSchedule(Index dModel, long warmupSteps)
      : scale_(1.0 / std::sqrt(static_cast<Real>(dModel))),
        warmup_(warmupSteps) {}
  [[nodiscard]] Real lr(long step) const {
    const Real i = static_cast<Real>(step < 1 ? 1 : step);
    const Real w = static_cast<Real>(warmup_);
    const Real byStep = 1.0 / std::sqrt(i);
    const Real byWarmup = i / (w * std::sqrt(w));
    return scale_ * (byStep < byWarmup ? byStep : byWarmup);
  }

 private:
  Real scale_;
  long warmup_;
};

}  // namespace nnqs::nn
