#include "autograd/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace aneci::ag {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(std::vector<VarPtr> params, const Options& options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const VarPtr& p : params_) {
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

void Adam::SetMoments(std::vector<Matrix> m, std::vector<Matrix> v) {
  ANECI_CHECK_EQ(m.size(), params_.size());
  ANECI_CHECK_EQ(v.size(), params_.size());
  for (size_t k = 0; k < params_.size(); ++k) {
    ANECI_CHECK_EQ(m[k].rows(), params_[k]->value().rows());
    ANECI_CHECK_EQ(m[k].cols(), params_[k]->value().cols());
    ANECI_CHECK_EQ(v[k].rows(), params_[k]->value().rows());
    ANECI_CHECK_EQ(v[k].cols(), params_[k]->value().cols());
  }
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, t_);
  const double bc2 = 1.0 - std::pow(kBeta2, t_);
  for (size_t k = 0; k < params_.size(); ++k) {
    const VarPtr& p = params_[k];
    if (p->grad().empty()) continue;
    Matrix& w = p->mutable_value();
    const Matrix& g = p->grad();
    Matrix& m = m_[k];
    Matrix& v = v_[k];
    for (int64_t i = 0; i < w.size(); ++i) {
      double gi = g.data()[i] + options_.weight_decay * w.data()[i];
      m.data()[i] = kBeta1 * m.data()[i] + (1.0 - kBeta1) * gi;
      v.data()[i] = kBeta2 * v.data()[i] + (1.0 - kBeta2) * gi * gi;
      const double mhat = m.data()[i] / bc1;
      const double vhat = v.data()[i] / bc2;
      w.data()[i] -= options_.lr * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

}  // namespace aneci::ag
