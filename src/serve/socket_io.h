// The audited raw-I/O seam for the serving layer. socket_io.cc is the ONLY
// file in src/ allowed to touch socket system calls — aneci_lint's
// banned-raw-io check flags socket/bind/listen/accept/connect/recv/send/
// poll/fcntl/... anywhere else under src/, the same way file I/O is confined
// to util/env.cc. Everything here returns Status; no errno leaks past this
// boundary.
//
// The seam is an injectable interface (`SocketIo`), mirroring util/env.h:
// the production `SocketIo::Default()` talks POSIX, and
// `FaultInjectingSocketIo` wraps any SocketIo to inject transport faults
// (short reads, delayed reads, connection resets, mid-frame disconnects) on
// a deterministic seeded schedule, so the chaos tests can check degradation
// instead of asserting only the happy path.
//
// Deadlines are poll-based and confined to this shim: every Read/WriteAll
// takes a `deadline_ms` budget (<= 0 blocks forever) and surfaces a typed
// Status::DeadlineExceeded when it runs out, which is how the server reaps
// slow-loris clients without hanging a connection thread.
//
// Scope is deliberately loopback-only: the embed server binds 127.0.0.1 and
// is meant to sit behind a real RPC front end in production (docs/serving.md
// §5 covers the trust model).
#ifndef ANECI_SERVE_SOCKET_IO_H_
#define ANECI_SERVE_SOCKET_IO_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace aneci::serve {

/// Owning socket file descriptor. Move-only; closes on destruction.
/// Close() is idempotent and self-move-assignment is a no-op (both are
/// pinned by tests/serve_protocol_test.cc).
class SocketFd {
 public:
  SocketFd() = default;
  explicit SocketFd(int fd) : fd_(fd) {}
  ~SocketFd() { Close(); }

  SocketFd(SocketFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  SocketFd& operator=(SocketFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  SocketFd(const SocketFd&) = delete;
  SocketFd& operator=(const SocketFd&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// Monotonic milliseconds since an arbitrary epoch — the serving layer's
/// deadline clock. Defined here (not util/timer.h) so the one blessed
/// time source for request deadlines lives at the same audited boundary as
/// the syscalls it gates.
double MonotonicMs();

/// The socket transport interface. One process-wide Default() instance
/// talks POSIX; tests substitute a FaultInjectingSocketIo. All methods are
/// thread-safe (the implementations hold no per-call state beyond the fds
/// the caller owns).
class SocketIo {
 public:
  virtual ~SocketIo() = default;

  /// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
  /// port). On success `*bound_port` holds the actual port.
  virtual StatusOr<SocketFd> Listen(int port, int* bound_port);

  /// Blocks until a client connects. Returns IoError if the listener was
  /// closed (the server's shutdown path) or the accept fails.
  virtual StatusOr<SocketFd> Accept(const SocketFd& listener);

  /// Connects to 127.0.0.1:`port`.
  virtual StatusOr<SocketFd> Connect(int port);

  /// Reads up to `capacity` bytes. Returns the bytes read; an empty string
  /// means orderly EOF (peer closed). Retries EINTR internally. With
  /// `deadline_ms` > 0, waits at most that long for readability and returns
  /// Status::DeadlineExceeded if nothing arrives in time.
  virtual StatusOr<std::string> Read(const SocketFd& socket, size_t capacity,
                                     int deadline_ms = 0);

  /// Writes all of `bytes`, looping over short writes. Retries EINTR. With
  /// `deadline_ms` > 0, each blocked wait for writability is bounded and a
  /// stalled peer surfaces as Status::DeadlineExceeded.
  virtual Status WriteAll(const SocketFd& socket, std::string_view bytes,
                          int deadline_ms = 0);

  /// Half-closes the read side (the server's graceful-drain path: a blocked
  /// reader on this fd sees EOF, finishes in-flight work, and exits).
  virtual Status ShutdownRead(const SocketFd& socket);

  /// Half-closes the write side (client signals "no more requests" while
  /// still draining responses).
  virtual Status ShutdownWrite(const SocketFd& socket);

  /// Shuts down both directions, unblocking any thread parked in recv() on
  /// the socket (the server's hard-stop path uses this to unwind connection
  /// threads whose clients are still connected).
  virtual Status ShutdownBoth(const SocketFd& socket);

  /// Process-wide default transport (plain POSIX loopback sockets).
  static SocketIo* Default();
};

/// A deterministic seeded fault schedule, the transport analogue of
/// util/env.h's FaultPlan. Probabilistic members draw from one xoshiro
/// stream per FaultInjectingSocketIo (mutex-serialised, so a given seed
/// yields one reproducible fault sequence for a given call order); the
/// `*_at` members target the Nth read/write exactly (0-based, -1 = off) for
/// pinpoint unit tests.
struct SocketFaultSchedule {
  uint64_t seed = 0;

  /// Probability a Read is truncated to at most 8 bytes (exercises
  /// byte-at-a-time frame reassembly on real sockets).
  double short_read = 0.0;
  /// Probability a Read is delayed by `delay_ms` before touching the fd
  /// (slow peer; lets server-side read deadlines fire).
  double delayed_read = 0.0;
  int delay_ms = 5;
  /// Probability a Read fails with an injected ECONNRESET. The socket is
  /// also shut down so the peer observes the drop.
  double reset_read = 0.0;
  /// Probability a WriteAll fails with an injected ECONNRESET before any
  /// byte is sent.
  double reset_write = 0.0;
  /// Probability a WriteAll sends only a prefix and then drops the
  /// connection — a mid-frame disconnect as seen by the peer.
  double partial_write = 0.0;

  /// Targeted one-shot faults against the Nth Read/WriteAll call (0-based).
  int reset_read_at = -1;
  int reset_write_at = -1;
  int partial_write_at = -1;
  size_t partial_write_bytes = 2;
};

/// Wraps a base transport and injects the scheduled faults. Thread-safe;
/// shareable by every connection of one server or client fleet. Injected
/// failures come back as Status::IoError("injected ECONNRESET...") so call
/// sites exercise exactly the paths a real reset would take.
class FaultInjectingSocketIo final : public SocketIo {
 public:
  explicit FaultInjectingSocketIo(SocketFaultSchedule schedule,
                                  SocketIo* base = SocketIo::Default())
      : base_(base), schedule_(schedule), rng_(schedule.seed) {}

  StatusOr<SocketFd> Listen(int port, int* bound_port) override;
  StatusOr<SocketFd> Accept(const SocketFd& listener) override;
  StatusOr<SocketFd> Connect(int port) override;
  StatusOr<std::string> Read(const SocketFd& socket, size_t capacity,
                             int deadline_ms = 0) override;
  Status WriteAll(const SocketFd& socket, std::string_view bytes,
                  int deadline_ms = 0) override;
  Status ShutdownRead(const SocketFd& socket) override;
  Status ShutdownWrite(const SocketFd& socket) override;
  Status ShutdownBoth(const SocketFd& socket) override;

  /// Reads/writes observed so far (faulted calls count).
  int reads() const;
  int writes() const;
  /// Faults injected so far, across all kinds.
  int injected_faults() const;

 private:
  /// One fault decision. Guarded by mu_ so a seed gives one reproducible
  /// fault stream for a given call order.
  enum class ReadFault { kNone, kShort, kDelay, kReset };
  enum class WriteFault { kNone, kReset, kPartial };
  ReadFault NextReadFault();
  WriteFault NextWriteFault();

  SocketIo* const base_;
  const SocketFaultSchedule schedule_;
  mutable std::mutex mu_;
  Rng rng_ ANECI_GUARDED_BY(mu_);
  int reads_ ANECI_GUARDED_BY(mu_) = 0;
  int writes_ ANECI_GUARDED_BY(mu_) = 0;
  int injected_ ANECI_GUARDED_BY(mu_) = 0;
};

}  // namespace aneci::serve

#endif  // ANECI_SERVE_SOCKET_IO_H_
