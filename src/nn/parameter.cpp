#include "nn/parameter.hpp"

#include <algorithm>

namespace nnqs::nn {

Parameter::Parameter(std::vector<Index> s, std::string n)
    : name(std::move(n)), shape(std::move(s)), numel_(1) {
  for (const Index d : shape) numel_ *= d;
  own_.assign(static_cast<std::size_t>(2 * numel_), 0.0);
  value = own_.data();
  grad = value + numel_;
}

void packParameters(const std::vector<Parameter*>& params, std::vector<Real>& values,
                    std::vector<Real>& grads) {
  Index total = 0;
  for (const Parameter* p : params) total += p->numel();
  values.resize(static_cast<std::size_t>(total));
  grads.resize(static_cast<std::size_t>(total));
  Index off = 0;
  for (Parameter* p : params) {
    std::copy_n(p->value, p->numel(), values.data() + off);
    std::copy_n(p->grad, p->numel(), grads.data() + off);
    p->value = values.data() + off;
    p->grad = grads.data() + off;
    std::vector<Real>().swap(p->own_);
    off += p->numel();
  }
}

}  // namespace nnqs::nn
