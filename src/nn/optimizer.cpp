#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/kernels/elementwise.hpp"

namespace nnqs::nn {

AdamW::AdamW(std::vector<Parameter*> params, AdamWOptions opts)
    : params_(std::move(params)), opts_(opts) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.shape);
    v_.emplace_back(p->value.shape);
  }
}

void AdamW::step(Real lrScale) {
  ++t_;
  kernels::AdamWArgs a;
  a.lr = opts_.lr * lrScale;
  a.beta1 = opts_.beta1;
  a.beta2 = opts_.beta2;
  a.eps = opts_.eps;
  a.weightDecay = opts_.weightDecay;
  a.bc1 = 1.0 - std::pow(opts_.beta1, static_cast<Real>(t_));
  a.bc2 = 1.0 - std::pow(opts_.beta2, static_cast<Real>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    a.n = p.numel();
    a.value = p.value.data.data();
    a.grad = p.grad.data.data();
    a.m = m_[k].data.data();
    a.v = v_[k].data.data();
    kernels::adamw(a);
  }
}

void AdamW::restoreState(std::vector<Tensor> m, std::vector<Tensor> v, long t) {
  if (t < 0) throw std::invalid_argument("AdamW::restoreState: negative step");
  if (m.size() != params_.size() || v.size() != params_.size())
    throw std::invalid_argument("AdamW::restoreState: moment-list size mismatch");
  for (std::size_t k = 0; k < params_.size(); ++k)
    if (m[k].shape != params_[k]->value.shape ||
        v[k].shape != params_[k]->value.shape)
      throw std::invalid_argument("AdamW::restoreState: moment shape mismatch at " +
                                  params_[k]->name);
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = t;
}

}  // namespace nnqs::nn
