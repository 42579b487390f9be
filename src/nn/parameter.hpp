#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace nnqs::nn {

/// A learnable tensor: a named, shaped (row-major) view of its values and of
/// their gradient accumulator.  A module builds its parameters on their own
/// zeroed storage; the network that owns the modules then packs them with
/// packParameters, after which every parameter is a view into the network's
/// one value buffer and one gradient buffer.  The storage moves with the
/// parameter, so a module may be moved (std::vector growth) before or after
/// packing; it cannot be copied.
struct Parameter {
  Parameter(std::vector<Index> shape, std::string name);
  Parameter(Parameter&&) noexcept = default;

  [[nodiscard]] Index numel() const { return numel_; }

  std::string name;
  std::vector<Index> shape;
  Real* value = nullptr;  ///< [numel()]
  Real* grad = nullptr;   ///< [numel()], accumulated by the backward

 private:
  friend void packParameters(const std::vector<Parameter*>& params,
                             std::vector<Real>& values, std::vector<Real>& grads);
  Index numel_ = 0;
  std::vector<Real> own_;  ///< values then gradients, until packParameters
};

/// Pack `params` back to back, in list order, into `values` and `grads`
/// (resized to the total element count): copy each parameter's values and
/// gradients over, point it at its slices and free its own storage.  The
/// buffers must then outlive the parameters and never reallocate.
void packParameters(const std::vector<Parameter*>& params, std::vector<Real>& values,
                    std::vector<Real>& grads);

}  // namespace nnqs::nn
