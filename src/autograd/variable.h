// Tape-free dynamic reverse-mode automatic differentiation over dense
// matrices. Each op builds a node holding the forward value and a closure
// that scatters the node's gradient into its parents; Backward() walks nodes
// in reverse creation order (a valid topological order for dynamically built
// graphs).
//
// Usage:
//   auto w = MakeParameter(Matrix::GlorotUniform(16, 8, rng));
//   auto h = LeakyRelu(SpMM(a_norm, MatMul(x, w)), 0.01);
//   auto loss = SumAll(h);
//   Backward(loss);          // w->grad() now holds dLoss/dW
#ifndef ANECI_AUTOGRAD_VARIABLE_H_
#define ANECI_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "linalg/matrix.h"

namespace aneci::ag {

class EpochArena;
class Variable;
using VarPtr = std::shared_ptr<Variable>;

/// A node in the autodiff graph: a dense value, an optional gradient buffer,
/// and the backward closure installed by the op that produced it. A node
/// created while an epoch arena is installed (autograd/memory_planner.h)
/// returns its value, gradient and saved buffer to that arena when it is
/// destroyed.
class Variable {
 public:
  explicit Variable(Matrix value, bool requires_grad);
  ~Variable();

  Variable(const Variable&) = delete;
  Variable& operator=(const Variable&) = delete;

  const Matrix& value() const { return value_; }
  Matrix& mutable_value() { return value_; }

  /// Gradient of the final scalar w.r.t. this node. Zero matrix before
  /// Backward() touches it.
  const Matrix& grad() const { return grad_; }
  Matrix& mutable_grad() { return grad_; }

  bool requires_grad() const { return requires_grad_; }
  uint64_t id() const { return id_; }

  /// Adds g into the gradient buffer, allocating it on first use.
  void AccumulateGrad(const Matrix& g);

  /// Move overload: adopts g's storage when the buffer is empty; otherwise
  /// adds and returns g's storage to the active memory planner (if any).
  /// Backward closures that build their gradient in an acquired buffer
  /// (autograd/memory_planner.h) should use this so storage recycles.
  void AccumulateGrad(Matrix&& g);

  /// Clears the gradient buffer (parameters keep theirs across steps unless
  /// the optimiser calls this).
  void ZeroGrad();

  // Graph wiring — used by op constructors.
  std::vector<VarPtr> parents;
  std::function<void(Variable&)> backward_fn;
  /// Static name of the op that made the node ("MatMul", ...); leaves keep
  /// "Leaf". Backward() times each closure under `autograd/backward_ms/<op>`.
  const char* op = "Leaf";
  /// A forward intermediate the backward closure reads (through `self`),
  /// held here rather than in the closure so it returns to the epoch arena
  /// with the node.
  Matrix saved;

 private:
  static uint64_t next_id_;

  Matrix value_;
  Matrix grad_;
  bool requires_grad_;
  uint64_t id_;
  std::shared_ptr<EpochArena> arena_;
};

/// Non-trainable input node.
VarPtr MakeConstant(Matrix value);

/// Trainable parameter node (requires_grad = true).
VarPtr MakeParameter(Matrix value);

struct BackwardOptions {
  /// Recycle intermediate gradient buffers through the sweep-scoped arena,
  /// or the thread's epoch arena when one is installed
  /// (autograd/memory_planner.h). Numerics are byte-identical either way;
  /// off additionally keeps intermediate grads readable after the sweep
  /// (with recycling on, only nodes without a backward closure — parameters
  /// and leaves — retain their gradient, which is all any caller in the
  /// library reads). Either way the sweep publishes the high-water mark of
  /// its in-use gradient bytes as the `autograd/peak_bytes` gauge, and the
  /// bytes its gradient buffers allocated fresh as `autograd/fresh_bytes`.
  bool recycle_buffers = true;
};

/// Reverse-mode sweep from `root`, which must be 1x1. Seeds droot/droot = 1
/// and propagates through every reachable node that requires a gradient.
/// While the metrics registry is enabled, each closure's wall time is
/// observed into the histogram `autograd/backward_ms/<op>`; disabled, the
/// sweep pays one flag check per node.
void Backward(const VarPtr& root);
void Backward(const VarPtr& root, const BackwardOptions& opts);

}  // namespace aneci::ag

#endif  // ANECI_AUTOGRAD_VARIABLE_H_
