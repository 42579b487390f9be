#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/kernels/elementwise.hpp"

namespace nnqs::nn {

AdamW::AdamW(std::vector<Parameter*> params, AdamWOptions opts)
    : params_(std::move(params)), opts_(opts) {
  Index n = 0;
  for (const Parameter* p : params_) {
    if (p->value != params_.front()->value + n || p->grad != params_.front()->grad + n)
      throw std::invalid_argument("AdamW: " + p->name +
                                  " does not follow the previous parameter in one "
                                  "value and one gradient buffer");
    n += p->numel();
  }
  m_.assign(static_cast<std::size_t>(n), 0.0);
  v_.assign(static_cast<std::size_t>(n), 0.0);
}

void AdamW::step(Real lrScale) {
  ++t_;
  if (params_.empty()) return;
  kernels::AdamWArgs a;
  a.n = static_cast<Index>(m_.size());
  a.value = params_.front()->value;
  a.grad = params_.front()->grad;
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
                                "parameter count");
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = t;
}

}  // namespace nnqs::nn
