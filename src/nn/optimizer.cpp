#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/kernels/elementwise.hpp"

namespace nnqs::nn {

AdamW::AdamW(std::vector<Parameter*> params, AdamWOptions opts, std::optional<Slice> slice)
    : params_(std::move(params)), opts_(opts) {
  for (const Parameter* p : params_) {
    if (p->value != params_.front()->value + n_ || p->grad != params_.front()->grad + n_)
      throw std::invalid_argument("AdamW: " + p->name +
                                  " does not follow the previous parameter in one "
                                  "value and one gradient buffer");
    n_ += p->numel();
  }
  slice_ = slice.value_or(Slice{0, n_});
  if (slice_.lo < 0 || slice_.lo > slice_.hi || slice_.hi > n_)
    throw std::invalid_argument("AdamW: slice [" + std::to_string(slice_.lo) + ", " +
                                std::to_string(slice_.hi) + ") is not inside the store of " +
                                std::to_string(n_) + " elements");
  m_.assign(static_cast<std::size_t>(slice_.hi - slice_.lo), 0.0);
  v_.assign(m_.size(), 0.0);
}

void AdamW::step(Real lrScale) {
  ++t_;
  if (m_.empty()) return;
  kernels::AdamWArgs a;
  a.n = static_cast<Index>(m_.size());
  a.value = params_.front()->value + slice_.lo;
  a.grad = params_.front()->grad + slice_.lo;
  a.m = m_.data();
  a.v = v_.data();
  a.lr = opts_.lr * lrScale;
  a.beta1 = opts_.beta1;
  a.beta2 = opts_.beta2;
  a.eps = opts_.eps;
  a.weightDecay = opts_.weightDecay;
  a.bc1 = 1.0 - std::pow(opts_.beta1, static_cast<Real>(t_));
  a.bc2 = 1.0 - std::pow(opts_.beta2, static_cast<Real>(t_));
  kernels::adamw(a);
}

void AdamW::restoreState(std::vector<Real> m, std::vector<Real> v, long t) {
  if (t < 0) throw std::invalid_argument("AdamW::restoreState: negative step");
  if (m.size() != m_.size() || v.size() != v_.size())
    throw std::invalid_argument("AdamW::restoreState: moment length differs from the "
                                "slice's");
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = t;
}

}  // namespace nnqs::nn
