#include "serve/server.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "exec/budget.hpp"
#include "exec/shutdown.hpp"
#include "flow/batch_supervisor.hpp"
#include "flow/pass.hpp"
#include "flow/pipeline.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "pla/pla_io.hpp"

namespace rdc::serve {
namespace {

double now_ms() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One client connection, owned exclusively by the I/O thread.
struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbuf;
  std::size_t out_off = 0;
  double read_deadline = 0.0;   ///< armed while a partial frame is pending
  double write_deadline = 0.0;  ///< armed while replies are unflushed
  bool close_after_flush = false;
  bool read_closed = false;  ///< EOF or framing error: no more requests
  bool dead = false;         ///< remove at end of tick
  int inflight = 0;          ///< jobs executing for this connection

  explicit Conn(std::size_t max_frame) : decoder(max_frame) {}
};

struct Job {
  std::uint64_t conn_id = 0;
  JobRequest request;
  std::string canonical_pipeline;
  std::uint64_t cache_key = 0;
};

struct Completion {
  std::uint64_t conn_id = 0;
  std::string frame;
};

}  // namespace

struct Server::Impl {
  ServerOptions options;
  ResultCache cache;

  int listen_fd = -1;
  int wake_fds[2] = {-1, -1};
  std::thread io_thread;
  std::vector<std::thread> executors;

  // Executor queue + completion channel (I/O thread drains completions).
  std::mutex mutex;
  std::condition_variable queue_cv;
  std::deque<Job> queue;
  std::vector<Completion> completions;
  bool stop_executors = false;
  bool paused = false;

  // Budgets of jobs currently executing, for drain-time cancellation.
  std::mutex budgets_mutex;
  std::unordered_set<exec::ExecBudget*> active_budgets;

  std::atomic<bool> draining{false};
  std::atomic<bool> io_stop{false};
  std::atomic<int> inflight{0};
  bool started = false;
  bool drained = false;
  std::mutex drain_mutex;  ///< serializes drain() callers

  std::atomic<std::uint64_t> accepted{0}, shed{0}, timeouts{0};
  std::atomic<std::uint64_t> completed{0}, cancelled{0}, errors{0};

  // I/O-thread-only state.
  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), cache(options.cache_max_bytes) {}

  void wake_io() {
    const char byte = 0;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = write(wake_fds[1], &byte, 1);
  }

  void post_completion(std::uint64_t conn_id, std::string frame) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      completions.push_back({conn_id, std::move(frame)});
    }
    wake_io();
  }

  // --- I/O thread ---------------------------------------------------------

  void queue_reply(Conn& conn, std::string_view frame, double now) {
    if (conn.dead) return;
    if (conn.outbuf.empty() && options.io_timeout_ms > 0)
      conn.write_deadline = now + options.io_timeout_ms;
    conn.outbuf.append(frame);
  }

  void shed_request(Conn& conn, std::string message, double now) {
    shed.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kServeShed);
    queue_reply(conn,
                encode_error_reply({exec::StatusCode::kResourceExhausted,
                                    std::move(message)}),
                now);
  }

  void handle_request_frame(std::uint64_t conn_id, Conn& conn,
                            std::string_view body, double now) {
    JobRequest request;
    if (exec::Status status = decode_request(body, request); !status.ok()) {
      queue_reply(conn, encode_error_reply(status), now);
      return;
    }
    // Canonicalize the pipeline on the I/O thread (cheap string work):
    // parse errors come back immediately with their byte offset, and the
    // cache key never depends on spelling variations of one pipeline.
    exec::Result<flow::Pipeline> pipeline =
        flow::parse_pipeline(request.pipeline);
    if (!pipeline.ok()) {
      queue_reply(conn, encode_error_reply(pipeline.status()), now);
      return;
    }
    const std::string canonical = pipeline->to_string();
    exec::BudgetLimits limits;
    limits.deadline_ms = request.deadline_ms > 0
                             ? static_cast<double>(request.deadline_ms)
                             : options.default_deadline_ms;
    const std::uint64_t key = result_cache_key(
        request.spec_pla, canonical, flow::budget_fingerprint(limits));
    if (!request.no_cache) {
      if (std::optional<std::string> hit = cache.lookup(key)) {
        queue_reply(conn, encode_report_reply({true, std::move(*hit)}), now);
        return;
      }
    }
    if (draining.load(std::memory_order_relaxed)) {
      queue_reply(conn,
                  encode_error_reply({exec::StatusCode::kUnavailable,
                                      "server is draining"}),
                  now);
      return;
    }
    if (options.max_rss_bytes > 0 &&
        exec::current_rss_bytes() > options.max_rss_bytes) {
      shed_request(conn,
                   "in-flight RSS exceeds the " +
                       std::to_string(options.max_rss_bytes) + "-byte cap",
                   now);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (queue.size() >= options.max_queue_depth) {
        shed_request(conn,
                     "admission queue full (depth " +
                         std::to_string(queue.size()) + ")",
                     now);
        return;
      }
      // Count before the push: an executor may pop and finish the job the
      // moment the lock drops, and its inflight decrement must not land
      // before this increment.
      ++conn.inflight;
      inflight.fetch_add(1, std::memory_order_relaxed);
      queue.push_back({conn_id, std::move(request), canonical, key});
    }
    accepted.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kServeAccepted);
    queue_cv.notify_one();
  }

  void handle_frame(std::uint64_t conn_id, Conn& conn, Frame& frame,
                    double now) {
    switch (frame.type) {
      case FrameType::kPing:
        queue_reply(conn, encode_frame(FrameType::kPong, ""), now);
        return;
      case FrameType::kRequest:
        handle_request_frame(conn_id, conn, frame.body, now);
        return;
      default:
        // Reply frames flowing client→server are a protocol violation,
        // but framing is still intact — reply and keep the connection.
        queue_reply(
            conn,
            encode_error_reply(
                {exec::StatusCode::kInvalidArgument,
                 "unexpected frame type " +
                     std::to_string(static_cast<int>(frame.type)) +
                     " from client"}),
            now);
        return;
    }
  }

  void handle_readable(std::uint64_t conn_id, Conn& conn, double now) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = read(conn.fd, buf, sizeof buf);
      if (n > 0) {
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n == 0) {
        conn.read_closed = true;  // EOF; replies may still be pending
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.dead = true;
      return;
    }
    Frame frame;
    for (;;) {
      const FrameDecoder::Result result = conn.decoder.next(frame);
      if (result == FrameDecoder::Result::kFrame) {
        handle_frame(conn_id, conn, frame, now);
        continue;
      }
      if (result == FrameDecoder::Result::kError) {
        // Framing is unrecoverable: say why, flush, close.
        queue_reply(conn, encode_error_reply(conn.decoder.error()), now);
        conn.read_closed = true;
        conn.close_after_flush = true;
      }
      break;
    }
    conn.read_deadline = conn.decoder.partial() && options.io_timeout_ms > 0
                             ? now + options.io_timeout_ms
                             : 0.0;
  }

  void handle_writable(Conn& conn) {
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n =
          send(conn.fd, conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      conn.dead = true;
      return;
    }
    conn.outbuf.clear();
    conn.out_off = 0;
    conn.write_deadline = 0.0;
  }

  void accept_connections() {
    for (;;) {
      const int fd = accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or a transient accept error: next poll retries
      }
      if (!set_nonblocking(fd)) {
        close(fd);
        continue;
      }
      const std::uint64_t id = next_conn_id++;
      conns.emplace(id, Conn(options.max_frame_bytes));
      conns.at(id).fd = fd;
    }
  }

  void drain_completions(double now) {
    std::vector<Completion> ready;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ready.swap(completions);
    }
    for (Completion& completion : ready) {
      const auto it = conns.find(completion.conn_id);
      if (it == conns.end()) continue;  // client already gone
      queue_reply(it->second, completion.frame, now);
      --it->second.inflight;
    }
  }

  void check_deadlines(Conn& conn, double now) {
    if (conn.read_deadline > 0 && now >= conn.read_deadline) {
      timeouts.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::kServeTimeout);
      queue_reply(conn,
                  encode_error_reply(
                      {exec::StatusCode::kDeadlineExceeded,
                       "read deadline: partial frame not completed within " +
                           std::to_string(options.io_timeout_ms) + " ms"}),
                  now);
      conn.read_deadline = 0.0;
      conn.read_closed = true;
      conn.close_after_flush = true;
    }
    if (conn.write_deadline > 0 && now >= conn.write_deadline) {
      // The peer is not draining its replies; nothing we write can help.
      timeouts.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::kServeTimeout);
      conn.dead = true;
    }
  }

  bool conn_finished(const Conn& conn) const {
    const bool flushed = conn.out_off >= conn.outbuf.size();
    if (conn.dead) return true;
    if (!flushed || conn.inflight > 0) return false;
    return conn.close_after_flush || conn.read_closed;
  }

  void publish_gauges() {
    auto& registry = obs::MetricsRegistry::global();
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(mutex);
      depth = queue.size();
    }
    registry.set_gauge("serve.queue_depth", static_cast<double>(depth));
    registry.set_gauge(
        "serve.inflight",
        static_cast<double>(inflight.load(std::memory_order_relaxed)));
    registry.set_gauge("serve.connections",
                       static_cast<double>(conns.size()));
    registry.set_gauge("serve.cache_bytes",
                       static_cast<double>(cache.stats().bytes));
  }

  void io_loop() {
    bool listener_open = true;
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;
    double flush_deadline = 0.0;
    for (;;) {
      if (listener_open && draining.load(std::memory_order_relaxed)) {
        close(listen_fd);
        listen_fd = -1;
        listener_open = false;
      }
      const double now = now_ms();
      if (io_stop.load(std::memory_order_relaxed)) {
        if (flush_deadline == 0.0) flush_deadline = now + 1000.0;
        bool pending = false;
        for (auto& [id, conn] : conns)
          if (!conn.dead && conn.out_off < conn.outbuf.size()) pending = true;
        if (!pending || now >= flush_deadline) break;
      }

      fds.clear();
      ids.clear();
      fds.push_back({wake_fds[0], POLLIN, 0});
      ids.push_back(0);
      if (listener_open) {
        fds.push_back({listen_fd, POLLIN, 0});
        ids.push_back(0);
      }
      for (auto& [id, conn] : conns) {
        short events = 0;
        if (!conn.read_closed) events |= POLLIN;
        if (conn.out_off < conn.outbuf.size()) events |= POLLOUT;
        if (events == 0) continue;
        fds.push_back({conn.fd, events, 0});
        ids.push_back(id);
      }
      poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

      const double tick = now_ms();
      if (fds[0].revents & POLLIN) {
        char buf[256];
        while (read(wake_fds[0], buf, sizeof buf) > 0) {
        }
      }
      std::size_t at = 1;
      if (listener_open) {
        if (fds[at].revents & POLLIN) accept_connections();
        ++at;
      }
      drain_completions(tick);
      for (; at < fds.size(); ++at) {
        const auto it = conns.find(ids[at]);
        if (it == conns.end()) continue;
        Conn& conn = it->second;
        if (fds[at].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          // POLLHUP with readable data still pending is handled by the
          // read path returning EOF; a bare hangup with replies in
          // flight keeps the conn until inflight settles.
          if ((fds[at].revents & POLLIN) == 0) conn.read_closed = true;
        }
        if (fds[at].revents & POLLIN) handle_readable(ids[at], conn, tick);
        if (!conn.dead && conn.out_off < conn.outbuf.size())
          handle_writable(conn);
      }
      for (auto& [id, conn] : conns) check_deadlines(conn, tick);
      for (auto it = conns.begin(); it != conns.end();) {
        if (conn_finished(it->second)) {
          close(it->second.fd);
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
      publish_gauges();
    }
    for (auto& [id, conn] : conns) close(conn.fd);
    conns.clear();
    if (listener_open) close(listen_fd);
  }

  // --- executors ----------------------------------------------------------

  std::string run_job(const Job& job) {
    exec::BudgetLimits limits;
    limits.deadline_ms = job.request.deadline_ms > 0
                             ? static_cast<double>(job.request.deadline_ms)
                             : options.default_deadline_ms;
    exec::ExecBudget budget(limits);
    {
      std::lock_guard<std::mutex> lock(budgets_mutex);
      active_budgets.insert(&budget);
    }
    // Always install the scope, even unbudgeted: drain-time cancellation
    // reaches the job through it at the next checkpoint.
    exec::Status status;
    std::string json;
    {
      exec::BudgetScope scope(&budget);
      try {
        const IncompleteSpec spec =
            parse_pla_string(job.request.spec_pla, "job");
        flow::Design design(spec);
        exec::Result<flow::Pipeline> pipeline =
            flow::parse_pipeline(job.canonical_pipeline);
        if (!pipeline.ok()) {
          status = pipeline.status();
        } else {
          status = pipeline->run(design);
          if (status.ok()) json = design.report.to_json();
        }
      } catch (...) {
        status = exec::status_from_current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(budgets_mutex);
      active_budgets.erase(&budget);
    }
    if (!status.ok()) {
      if (status.code() == exec::StatusCode::kCancelled ||
          status.code() == exec::StatusCode::kDeadlineExceeded)
        cancelled.fetch_add(1, std::memory_order_relaxed);
      else
        errors.fetch_add(1, std::memory_order_relaxed);
      return encode_error_reply(status);
    }
    completed.fetch_add(1, std::memory_order_relaxed);
    if (!job.request.no_cache) cache.insert(job.cache_key, json);
    return encode_report_reply({false, std::move(json)});
  }

  void executor_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        queue_cv.wait(lock, [this] {
          return stop_executors || (!queue.empty() && !paused);
        });
        if (stop_executors) return;
        job = std::move(queue.front());
        queue.pop_front();
      }
      std::string frame = run_job(job);
      inflight.fetch_sub(1, std::memory_order_relaxed);
      post_completion(job.conn_id, std::move(frame));
    }
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  if (impl_->started && !impl_->drained) drain(0);
}

exec::Status Server::start() {
  Impl& s = *impl_;
  if (s.started)
    return {exec::StatusCode::kInvalidArgument, "server already started"};
  if (s.options.socket_path.empty())
    return {exec::StatusCode::kInvalidArgument, "socket path is required"};
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (s.options.socket_path.size() >= sizeof addr.sun_path)
    return {exec::StatusCode::kInvalidArgument,
            "socket path longer than sun_path (" +
                std::to_string(sizeof addr.sun_path - 1) + " bytes): " +
                s.options.socket_path};
  std::memcpy(addr.sun_path, s.options.socket_path.c_str(),
              s.options.socket_path.size() + 1);

  s.listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (s.listen_fd < 0)
    return {exec::StatusCode::kUnavailable,
            std::string("socket(): ") + std::strerror(errno)};
  // A previous daemon's socket file would make bind fail with EADDRINUSE;
  // a stale path is the common case after an unclean exit, so take it.
  unlink(s.options.socket_path.c_str());
  if (bind(s.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
           sizeof addr) != 0 ||
      listen(s.listen_fd, 128) != 0 || !set_nonblocking(s.listen_fd)) {
    const std::string detail = std::strerror(errno);
    close(s.listen_fd);
    s.listen_fd = -1;
    return {exec::StatusCode::kUnavailable,
            "cannot listen on " + s.options.socket_path + ": " + detail};
  }
  if (pipe(s.wake_fds) != 0 || !set_nonblocking(s.wake_fds[0]) ||
      !set_nonblocking(s.wake_fds[1])) {
    close(s.listen_fd);
    s.listen_fd = -1;
    return {exec::StatusCode::kUnavailable, "cannot create wake pipe"};
  }
  if (s.options.executor_threads < 1) s.options.executor_threads = 1;
  obs::metrics_init_from_env();
  s.started = true;
  s.io_thread = std::thread([&s] { s.io_loop(); });
  for (int i = 0; i < s.options.executor_threads; ++i)
    s.executors.emplace_back([&s] { s.executor_loop(); });
  return {};
}

void Server::run_until_shutdown() {
  exec::install_shutdown_handlers();
  while (!exec::shutdown_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  drain(exec::shutdown_signal());
}

void Server::drain(int signal) {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> drain_lock(s.drain_mutex);
  if (!s.started || s.drained) return;
  s.draining.store(true, std::memory_order_relaxed);
  s.wake_io();  // close the listener promptly

  const auto work_pending = [&s] {
    std::lock_guard<std::mutex> lock(s.mutex);
    return !s.queue.empty() ||
           s.inflight.load(std::memory_order_relaxed) > 0;
  };
  const double deadline = now_ms() + s.options.drain_deadline_ms;
  while (work_pending() && now_ms() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  if (work_pending()) {
    // Deadline-out what remains: cancel executing budgets cooperatively
    // and fail queued-but-unstarted jobs directly.
    {
      std::lock_guard<std::mutex> lock(s.budgets_mutex);
      for (exec::ExecBudget* budget : s.active_budgets)
        budget->request_cancel();
    }
    std::deque<Job> abandoned;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      abandoned.swap(s.queue);
    }
    for (const Job& job : abandoned) {
      s.inflight.fetch_sub(1, std::memory_order_relaxed);
      s.cancelled.fetch_add(1, std::memory_order_relaxed);
      s.post_completion(
          job.conn_id,
          encode_error_reply({exec::StatusCode::kCancelled,
                              "cancelled: server drain deadline"}));
    }
    // Cancellation lands at the next budget checkpoint; give in-flight
    // jobs the drain deadline again to reach one.
    const double grace = now_ms() + s.options.drain_deadline_ms;
    while (s.inflight.load(std::memory_order_relaxed) > 0 &&
           now_ms() < grace)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.stop_executors = true;
    s.paused = false;
  }
  s.queue_cv.notify_all();
  for (std::thread& worker : s.executors) worker.join();
  s.executors.clear();

  s.io_stop.store(true, std::memory_order_relaxed);
  s.wake_io();
  s.io_thread.join();
  close(s.wake_fds[0]);
  close(s.wake_fds[1]);
  unlink(s.options.socket_path.c_str());
  s.drained = true;

  if (obs::events_enabled()) {
    const ResultCache::Stats cache_stats = s.cache.stats();
    obs::Record fields;
    fields.set("signal", signal);
    fields.set("accepted", s.accepted.load(std::memory_order_relaxed));
    fields.set("shed", s.shed.load(std::memory_order_relaxed));
    fields.set("completed", s.completed.load(std::memory_order_relaxed));
    fields.set("cancelled", s.cancelled.load(std::memory_order_relaxed));
    fields.set("timeouts", s.timeouts.load(std::memory_order_relaxed));
    fields.set("cache_hits", cache_stats.hits);
    obs::emit_event("serve.drain", fields);
  }
  obs::flush_events();
  obs::flush_metrics_snapshot();
}

bool Server::started() const { return impl_->started; }

ServeStats Server::stats() const {
  const Impl& s = *impl_;
  return {s.accepted.load(std::memory_order_relaxed),
          s.shed.load(std::memory_order_relaxed),
          s.timeouts.load(std::memory_order_relaxed),
          s.completed.load(std::memory_order_relaxed),
          s.cancelled.load(std::memory_order_relaxed),
          s.errors.load(std::memory_order_relaxed)};
}

ResultCache& Server::cache() { return impl_->cache; }

const ServerOptions& Server::options() const { return impl_->options; }

void Server::set_executors_paused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->paused = paused;
  }
  impl_->queue_cv.notify_all();
}

}  // namespace rdc::serve
