// rdcsynd daemon core (DESIGN.md §15): a unix-domain-socket server that
// accepts framed (spec bytes, pipeline spec) jobs, runs them on a bounded
// executor pool under per-request ExecBudgets, and replies with
// rdc.flow.report.v1 JSON — or a serialized exec::Status for anything
// that goes wrong.
//
// Robustness posture, in order of the request path:
//   * Hardened framing: every malformed byte stream becomes a Status
//     reply (then connection close — framing errors cannot resync), never
//     a crash. Frame bodies are size-capped.
//   * Slow-loris defense: a peer that starts a frame must finish it
//     within io_timeout_ms, and a peer not draining its replies is cut
//     off on the same deadline (serve.timeout counter).
//   * Explicit admission control: at most max_queue_depth requests wait
//     for an executor; past that — or past the max_rss_bytes in-flight
//     memory cap — requests are shed with kResourceExhausted instead of
//     buffered unboundedly (serve.shed counter).
//   * Content-addressed result cache (serve/cache.hpp) consulted before
//     admission, so repeated circuits cost a hash lookup, not a queue
//     slot.
//   * Graceful drain on SIGINT/SIGTERM via exec::shutdown: stop
//     accepting, let in-flight and queued work finish inside
//     drain_deadline_ms, then cooperatively cancel what remains
//     (kCancelled replies), flush a final metrics snapshot, and emit a
//     serve.drain event.
//
// Threading: one I/O thread owns every socket (poll loop; connections
// never block it — reads feed an incremental FrameDecoder, writes are
// buffered), executor_threads workers run jobs, and completions travel
// back to the I/O thread over a wake pipe. start() spawns the threads
// and returns; run_until_shutdown() parks the caller until a shutdown
// signal, then drains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "exec/status.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace rdc::serve {

struct ServerOptions {
  std::string socket_path;  ///< unix domain socket path (required)
  int executor_threads = 2;
  /// Admitted-but-not-yet-running cap; a request arriving with the queue
  /// full is shed with kResourceExhausted.
  std::size_t max_queue_depth = 64;
  /// Shed new work while process RSS exceeds this (0 = no memory gate).
  std::uint64_t max_rss_bytes = 0;
  /// Per-request wall-clock budget when the request doesn't carry one
  /// (0 = unbudgeted; cancellation still works via the budget scope).
  double default_deadline_ms = 0.0;
  /// Per-connection read/write deadline (slow-loris defense).
  double io_timeout_ms = 5000.0;
  /// How long a drain lets in-flight + queued work finish before
  /// cooperatively cancelling it.
  double drain_deadline_ms = 5000.0;
  std::uint64_t cache_max_bytes = std::uint64_t{64} << 20;
  std::size_t max_frame_bytes = kMaxBodyBytes;
};

struct ServeStats {
  std::uint64_t accepted = 0;   ///< admitted into the executor queue
  std::uint64_t shed = 0;       ///< rejected with kResourceExhausted
  std::uint64_t timeouts = 0;   ///< connections cut on an I/O deadline
  std::uint64_t completed = 0;  ///< jobs that produced an OK report
  std::uint64_t cancelled = 0;  ///< jobs cancelled (drain) or deadline-out
  std::uint64_t errors = 0;     ///< jobs that ended in any other error
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< drains (signal 0) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the I/O + executor threads. On error
  /// (bad path, bind failure) nothing is left running.
  exec::Status start();

  /// Parks until exec::shutdown_requested(), then drain()s with the
  /// received signal. The daemon main loop.
  void run_until_shutdown();

  /// Graceful drain (idempotent): stop accepting, finish or cancel work,
  /// flush replies, emit the serve.drain event and the final metrics
  /// snapshot. `signal` is recorded in the event (0 = programmatic).
  void drain(int signal);

  bool started() const;
  ServeStats stats() const;
  ResultCache& cache();
  const ServerOptions& options() const;

  /// Test hook: parks the executor threads so admission-control states
  /// (queued, shed) can be reached deterministically.
  void set_executors_paused(bool paused);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rdc::serve
