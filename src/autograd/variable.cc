#include "autograd/variable.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "autograd/memory_planner.h"
#include "util/check.h"
#include "util/metrics.h"

namespace aneci::ag {

namespace {

/// The per-op backward histogram, looked up once per op name and thread.
Histogram* BackwardHistogram(const char* op) {
  thread_local std::unordered_map<const char*, Histogram*> cache;
  Histogram*& h = cache[op];
  if (h == nullptr) {
    h = MetricsRegistry::Global().GetHistogram(
        std::string("autograd/backward_ms/") + op,
        {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0},
        MetricClass::kScheduling);
  }
  return h;
}

}  // namespace

uint64_t Variable::next_id_ = 0;

Variable::Variable(Matrix value, bool requires_grad)
    : value_(std::move(value)),
      requires_grad_(requires_grad),
      id_(next_id_++),
      arena_(EpochArena::Current()) {}

Variable::~Variable() {
  if (arena_ == nullptr) return;
  arena_->Release(std::move(value_));
  arena_->Release(std::move(grad_));
  arena_->Release(std::move(saved));
}

void Variable::AccumulateGrad(const Matrix& g) {
  ANECI_CHECK(g.rows() == value_.rows() && g.cols() == value_.cols());
  if (grad_.empty()) {
    grad_ = g;
  } else {
    grad_ += g;
  }
}

void Variable::AccumulateGrad(Matrix&& g) {
  ANECI_CHECK(g.rows() == value_.rows() && g.cols() == value_.cols());
  if (grad_.empty()) {
    grad_ = std::move(g);
  } else {
    grad_ += g;
    ReleaseGrad(std::move(g));
  }
}

void Variable::ZeroGrad() {
  if (!grad_.empty()) grad_.SetZero();
}

VarPtr MakeConstant(Matrix value) {
  return std::make_shared<Variable>(std::move(value), /*requires_grad=*/false);
}

VarPtr MakeParameter(Matrix value) {
  return std::make_shared<Variable>(std::move(value), /*requires_grad=*/true);
}

void Backward(const VarPtr& root) { Backward(root, BackwardOptions{}); }

void Backward(const VarPtr& root, const BackwardOptions& opts) {
  ANECI_CHECK(root != nullptr);
  ANECI_CHECK_MSG(root->value().rows() == 1 && root->value().cols() == 1,
                  "Backward root must be a 1x1 scalar");

  // Collect reachable nodes; creation id gives a topological order because
  // every op's output is created after its inputs.
  std::vector<Variable*> nodes;
  std::unordered_set<Variable*> seen;
  std::vector<Variable*> stack = {root.get()};
  seen.insert(root.get());
  while (!stack.empty()) {
    Variable* v = stack.back();
    stack.pop_back();
    nodes.push_back(v);
    for (const VarPtr& p : v->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const Variable* a, const Variable* b) { return a->id() > b->id(); });

  // Closures acquire gradient matrices through the planner, and a node's
  // buffer returns to it the moment its closure has consumed it (reverse
  // order makes it dead — all consumers already ran; only closure-less
  // nodes are read later). The planner pools them for this sweep, or in the
  // thread's epoch arena when one is installed.
  MemoryPlanner planner(opts.recycle_buffers);

  Matrix seed(1, 1);
  seed(0, 0) = 1.0;
  root->AccumulateGrad(std::move(seed));

  for (Variable* v : nodes) {
    if (!v->backward_fn || v->grad().empty()) continue;
    if (MetricsEnabled()) {
      ScopedLatencyTimer timer(BackwardHistogram(v->op));
      v->backward_fn(*v);
    } else {
      v->backward_fn(*v);
    }
    if (opts.recycle_buffers) ReleaseGrad(std::move(v->mutable_grad()));
  }

  static Gauge* peak_bytes = MetricsRegistry::Global().GetGauge(
      "autograd/peak_bytes", MetricClass::kDeterministic);
  static Gauge* fresh_bytes = MetricsRegistry::Global().GetGauge(
      "autograd/fresh_bytes", MetricClass::kDeterministic);
  peak_bytes->Set(static_cast<double>(planner.peak_in_use_bytes()));
  fresh_bytes->Set(static_cast<double>(planner.fresh_bytes()));
}

}  // namespace aneci::ag
