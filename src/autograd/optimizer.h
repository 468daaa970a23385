// Adam over parameter nodes. The training loop pattern is:
//   optimizer.ZeroGrad(); auto loss = BuildLoss(); Backward(loss);
//   optimizer.Step();
#ifndef ANECI_AUTOGRAD_OPTIMIZER_H_
#define ANECI_AUTOGRAD_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"

namespace aneci::ag {

/// Adam (Kingma & Ba 2015) with L2 weight decay folded into the gradient,
/// at Kingma & Ba's defaults beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.
/// Owns references to the parameters it updates.
class Adam {
 public:
  struct Options {
    double lr = 0.01;
    double weight_decay = 0.0;
  };

  Adam(std::vector<VarPtr> params, const Options& options);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently stored on parameters.
  void Step();

  void ZeroGrad() {
    for (const VarPtr& p : params_) p->ZeroGrad();
  }

  const std::vector<VarPtr>& params() const { return params_; }

  // --- Checkpointable state (util/checkpoint.h) ------------------------------
  // Step counter, moment buffers and the (watchdog-adjustable) learning rate
  // are exposed so a training run can be snapshotted and later resumed
  // bit-identically.

  int step() const { return t_; }
  void set_step(int t) { t_ = t; }

  double lr() const { return options_.lr; }
  void set_lr(double lr) { options_.lr = lr; }

  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

  /// Replaces both moment buffers; shapes must match the parameters.
  void SetMoments(std::vector<Matrix> m, std::vector<Matrix> v);

 private:
  std::vector<VarPtr> params_;
  Options options_;
  int t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace aneci::ag

#endif  // ANECI_AUTOGRAD_OPTIMIZER_H_
