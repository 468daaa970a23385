#include "autograd/memory_planner.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace aneci::ag {
namespace {

thread_local MemoryPlanner* g_current = nullptr;
thread_local std::shared_ptr<EpochArena> g_epoch_arena;

uint64_t Bytes(int64_t count) {
  return static_cast<uint64_t>(count) * sizeof(double);
}

}  // namespace

EpochArena::Scope::Scope(std::shared_ptr<EpochArena> arena)
    : prev_(std::exchange(g_epoch_arena, std::move(arena))) {}

EpochArena::Scope::~Scope() { g_epoch_arena = std::move(prev_); }

const std::shared_ptr<EpochArena>& EpochArena::Current() {
  return g_epoch_arena;
}

Matrix EpochArena::AcquireUninit(int rows, int cols) {
  const int64_t count = static_cast<int64_t>(rows) * cols;
  if (count == 0) return Matrix(rows, cols);
  const uint64_t bytes = Bytes(count);
  in_use_bytes_ += bytes;
  Matrix m;
  auto it = free_.find({rows, cols});
  if (it == free_.end() || it->second.empty()) {
    fresh_bytes_ += bytes;
    m = Matrix(rows, cols);
  } else {
    std::vector<double> storage = std::move(it->second.back().storage);
    it->second.pop_back();
    pooled_bytes_ -= bytes;
    reused_bytes_ += bytes;
    m = Matrix(rows, cols, std::move(storage));
  }
  handed_out_.insert(m.data());
  return m;
}

void EpochArena::Release(Matrix&& m) {
  if (m.empty()) return;
  // Only the arena's own buffers are pooled; any other storage (a
  // constant's value, say) is freed as it would be without an arena.
  if (handed_out_.erase(m.data()) == 0) {
    m = Matrix();
    return;
  }
  const uint64_t bytes = Bytes(m.size());
  in_use_bytes_ -= bytes;
  pooled_bytes_ += bytes;
  free_[{m.rows(), m.cols()}].push_back({m.TakeStorage(), period_});
}

void EpochArena::EvictIdle() {
  // A buffer released before the current period began sat in its free list
  // for the whole period: nothing asked for it since.
  const auto idle = [this](const Pooled& p) { return p.released_in < period_; };
  for (auto it = free_.begin(); it != free_.end();) {
    std::vector<Pooled>& list = it->second;
    const int64_t count = static_cast<int64_t>(it->first.first) *
                          it->first.second;
    const auto first_idle = std::remove_if(list.begin(), list.end(), idle);
    pooled_bytes_ -= Bytes(count) * static_cast<uint64_t>(list.end() -
                                                          first_idle);
    list.erase(first_idle, list.end());
    it = list.empty() ? free_.erase(it) : std::next(it);
  }
  ++period_;
}

Matrix AcquireValue(int rows, int cols) {
  EpochArena* arena = EpochArena::Current().get();
  if (arena != nullptr) return arena->AcquireUninit(rows, cols);
  return Matrix(rows, cols);
}

Matrix AcquireValueCopy(const Matrix& src) {
  Matrix m = AcquireValue(src.rows(), src.cols());
  std::copy(src.data(), src.data() + src.size(), m.data());
  return m;
}

void ReleaseValue(Matrix&& m) {
  EpochArena* arena = EpochArena::Current().get();
  if (arena != nullptr) {
    arena->Release(std::move(m));
  } else {
    m = Matrix();
  }
}

MemoryPlanner::MemoryPlanner(bool recycle)
    : recycle_(recycle),
      pool_(!recycle                           ? nullptr
            : EpochArena::Current() != nullptr ? EpochArena::Current().get()
                                               : &sweep_arena_),
      prev_(g_current) {
  g_current = this;
}

MemoryPlanner::~MemoryPlanner() { g_current = prev_; }

MemoryPlanner* MemoryPlanner::Current() { return g_current; }

Matrix MemoryPlanner::AcquireUninit(int rows, int cols) {
  const int64_t count = static_cast<int64_t>(rows) * cols;
  if (count == 0) return Matrix(rows, cols);
  const uint64_t bytes = Bytes(count);
  in_use_bytes_ += bytes;
  peak_in_use_bytes_ = std::max(peak_in_use_bytes_, in_use_bytes_);
  if (pool_ == nullptr) {
    fresh_bytes_ += bytes;
    return Matrix(rows, cols);
  }
  const uint64_t reused_before = pool_->reused_bytes();
  Matrix m = pool_->AcquireUninit(rows, cols);
  if (pool_->reused_bytes() == reused_before) {
    fresh_bytes_ += bytes;
  } else {
    reused_bytes_ += bytes;
  }
  return m;
}

Matrix MemoryPlanner::AcquireZeroed(int rows, int cols) {
  Matrix m = AcquireUninit(rows, cols);
  m.SetZero();
  return m;
}

void MemoryPlanner::Release(Matrix&& m) {
  if (m.empty()) return;
  in_use_bytes_ -= std::min(in_use_bytes_, Bytes(m.size()));
  if (pool_ != nullptr) pool_->Release(std::move(m));
}

Matrix AcquireGradUninit(int rows, int cols) {
  MemoryPlanner* planner = MemoryPlanner::Current();
  if (planner != nullptr) return planner->AcquireUninit(rows, cols);
  return Matrix(rows, cols);
}

Matrix AcquireGradZeroed(int rows, int cols) {
  MemoryPlanner* planner = MemoryPlanner::Current();
  if (planner != nullptr) return planner->AcquireZeroed(rows, cols);
  return Matrix(rows, cols);
}

Matrix AcquireGradCopy(const Matrix& src) {
  Matrix m = AcquireGradUninit(src.rows(), src.cols());
  std::copy(src.data(), src.data() + src.size(), m.data());
  return m;
}

void ReleaseGrad(Matrix&& m) {
  MemoryPlanner* planner = MemoryPlanner::Current();
  if (planner != nullptr) {
    planner->Release(std::move(m));
    if (!planner->recycle()) m = Matrix();
  } else {
    m = Matrix();
  }
}

}  // namespace aneci::ag
