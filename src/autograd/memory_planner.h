// Buffer recycling for the autograd tape, at two lifetimes.
//
// Sweep scope (MemoryPlanner). The reverse sweep visits nodes in decreasing
// creation order, so a node's gradient buffer is dead the moment its
// backward closure returns (all of its consumers ran earlier; only
// parameters — nodes without a closure — are read after Backward()).
// Backward() exploits that liveness structure: it installs a MemoryPlanner
// for the duration of the sweep, op closures acquire their gradient
// matrices through it, and dead buffers are released for the next
// acquisition to reuse. Without an epoch arena the planner pools them in an
// EpochArena of its own that dies with the sweep.
//
// Epoch scope (EpochArena). A trainer that rebuilds the same tape every
// epoch installs an EpochArena on its thread (EpochArena::Scope) for the
// whole run. Then forward values (op outputs, via AcquireValue), the
// buffers an op saves for its backward, and the sweep's gradients are all
// drawn from it, keyed by exact shape. A node created under the arena holds
// a reference to it and returns its value, gradient and saved buffer when
// the node is destroyed, that is, when the epoch's tape is dropped; the
// next epoch's tape draws the same buffers again, so a steady-state epoch
// touches no new pages. EvictIdle() at each epoch boundary frees what the
// last epoch did not use, so a shape that stops being asked for (a
// resample changes the pair count) is not kept. With no arena installed
// every op allocates exactly as it would without this file's epoch scope.
//
// Numerics are byte-identical with either scope on or off: zeroed
// acquisitions return an all-zero buffer exactly like a fresh Matrix, and
// uninitialised ones are only used by callers that overwrite every element
// before any read (GEMM/SpMM outputs with beta == 0 semantics, full
// elementwise rewrites).
//
// Accounting: a planner counts the bytes of the gradient buffers it has
// handed out and not yet taken back, and Backward() publishes their
// high-water mark over the sweep as the `autograd/peak_bytes` gauge
// (MetricClass::kDeterministic — the sweep is serial, so the value is
// thread-count invariant). This is the sweep's peak in-use gradient
// footprint; it does not depend on where the buffers came from, so it
// reads the same whether or not an epoch arena served them fresh. The
// bytes the sweep's acquisitions had to allocate go in the
// `autograd/fresh_bytes` gauge: with recycling off every acquisition
// allocates, so it reads the legacy allocate-per-op footprint, which is
// what the planner regression test compares against; with recycling on it
// drops by what was reused, to zero in a steady-state epoch under an epoch
// arena.
#ifndef ANECI_AUTOGRAD_MEMORY_PLANNER_H_
#define ANECI_AUTOGRAD_MEMORY_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "linalg/matrix.h"

namespace aneci::ag {

/// Exact-shape LIFO free lists (see the file comment). Every operation
/// happens on the thread that builds and differentiates the tape, in tape
/// order, so the reuse pattern is a function of the tape alone. Not
/// thread-safe: a tape built under an installed arena is built,
/// differentiated and dropped on the thread that installed it.
class EpochArena {
 public:
  /// Installs `arena` as this thread's current arena until destruction
  /// (nestable; the previous one is restored).
  class Scope {
   public:
    explicit Scope(std::shared_ptr<EpochArena> arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::shared_ptr<EpochArena> prev_;
  };

  /// This thread's installed arena, or null.
  static const std::shared_ptr<EpochArena>& Current();

  /// A (rows x cols) buffer with unspecified contents.
  Matrix AcquireUninit(int rows, int cols);

  /// Returns `m`'s storage to the free list of its shape, or frees it when
  /// this arena did not hand it out. Leaves `m` empty.
  void Release(Matrix&& m);

  /// Frees every pooled buffer that no acquisition took since the previous
  /// call. Call it at an epoch boundary, after the last tape was dropped.
  void EvictIdle();

  /// Bytes handed out and not yet returned.
  uint64_t in_use_bytes() const { return in_use_bytes_; }
  /// Bytes resident in the arena: handed out plus pooled.
  uint64_t resident_bytes() const { return in_use_bytes_ + pooled_bytes_; }
  /// Cumulative bytes of acquisitions that had to allocate.
  uint64_t fresh_bytes() const { return fresh_bytes_; }
  /// Cumulative bytes of acquisitions served from a free list.
  uint64_t reused_bytes() const { return reused_bytes_; }

 private:
  struct Pooled {
    std::vector<double> storage;
    uint64_t released_in = 0;  ///< The EvictIdle() period of the release.
  };

  std::map<std::pair<int, int>, std::vector<Pooled>> free_;
  std::unordered_set<const double*> handed_out_;
  uint64_t period_ = 0;
  uint64_t in_use_bytes_ = 0;
  uint64_t pooled_bytes_ = 0;
  uint64_t fresh_bytes_ = 0;
  uint64_t reused_bytes_ = 0;
};

// Helpers for op forward passes. With no epoch arena installed they are
// plain Matrix construction and destruction.

/// A (rows x cols) forward-value buffer. From the installed epoch arena its
/// contents are unspecified, so callers MUST overwrite every element before
/// reading any; without one it is a fresh zero Matrix.
Matrix AcquireValue(int rows, int cols);

/// A copy of `src` in an AcquireValue buffer.
Matrix AcquireValueCopy(const Matrix& src);

/// Returns a dead forward buffer to the installed epoch arena (plain
/// destruction without one). Leaves `m` empty.
void ReleaseValue(Matrix&& m);

/// Scoped planner installed by Backward() for one sweep (nestable; the
/// innermost instance is Current()). With recycle == false it only keeps
/// the byte accounting — acquisitions always allocate and releases drop —
/// which reproduces the legacy per-op allocation behaviour exactly. With
/// recycle == true it draws from the thread's epoch arena when one is
/// installed, and from a sweep-scoped arena of its own otherwise.
class MemoryPlanner {
 public:
  explicit MemoryPlanner(bool recycle);
  ~MemoryPlanner();

  MemoryPlanner(const MemoryPlanner&) = delete;
  MemoryPlanner& operator=(const MemoryPlanner&) = delete;

  /// The innermost planner on this thread, or nullptr outside Backward().
  static MemoryPlanner* Current();

  bool recycle() const { return recycle_; }

  /// Cumulative bytes of this sweep's acquisitions that had to allocate
  /// (every acquisition, with recycling off).
  uint64_t fresh_bytes() const { return fresh_bytes_; }

  /// Cumulative bytes of this sweep's acquisitions served by a free list.
  uint64_t reused_bytes() const { return reused_bytes_; }

  /// High-water mark of the bytes handed out and not yet released.
  uint64_t peak_in_use_bytes() const { return peak_in_use_bytes_; }

  Matrix AcquireUninit(int rows, int cols);
  Matrix AcquireZeroed(int rows, int cols);
  void Release(Matrix&& m);

 private:
  bool recycle_;
  EpochArena sweep_arena_;
  /// The thread's epoch arena or sweep_arena_ when recycling, else null.
  EpochArena* pool_;
  uint64_t fresh_bytes_ = 0;
  uint64_t reused_bytes_ = 0;
  uint64_t in_use_bytes_ = 0;
  uint64_t peak_in_use_bytes_ = 0;
  MemoryPlanner* prev_;
};

// Helpers for op backward closures. With no active planner they degrade to
// plain Matrix construction / destruction, so closures stay correct when
// invoked outside Backward() (e.g. unit tests driving backward_fn by hand).

/// A (rows x cols) gradient buffer with unspecified contents. Callers MUST
/// overwrite every element before reading any.
Matrix AcquireGradUninit(int rows, int cols);

/// A (rows x cols) all-zero gradient buffer — bit-identical to Matrix(rows,
/// cols) — for scatter-style closures that accumulate into zeros.
Matrix AcquireGradZeroed(int rows, int cols);

/// A copy of `src` in a recycled buffer (the common `Matrix g = self.grad()`
/// pattern).
Matrix AcquireGradCopy(const Matrix& src);

/// Returns a dead gradient's storage to the active planner (no-op without
/// one, or with recycling off). Leaves `m` empty.
void ReleaseGrad(Matrix&& m);

}  // namespace aneci::ag

#endif  // ANECI_AUTOGRAD_MEMORY_PLANNER_H_
