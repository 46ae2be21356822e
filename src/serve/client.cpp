#include "serve/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace rdc::serve {
namespace {

double now_ms() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

exec::Status transport_error(const std::string& what) {
  return {exec::StatusCode::kUnavailable, what + ": " + std::strerror(errno)};
}

struct Socket {
  int fd = -1;
  ~Socket() {
    if (fd >= 0) close(fd);
  }
};

exec::Status connect_unix(const ClientOptions& options, Socket& sock) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.empty() ||
      options.socket_path.size() >= sizeof addr.sun_path)
    return {exec::StatusCode::kInvalidArgument,
            "bad socket path: " + options.socket_path};
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  sock.fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (sock.fd < 0) return transport_error("socket()");
  if (connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
              sizeof addr) != 0)
    return transport_error("connect " + options.socket_path);
  const int flags = fcntl(sock.fd, F_GETFL, 0);
  if (flags < 0 || fcntl(sock.fd, F_SETFL, flags | O_NONBLOCK) != 0)
    return transport_error("fcntl");
  return {};
}

exec::Status wait_io(int fd, short events, double deadline) {
  for (;;) {
    const double remaining = deadline - now_ms();
    if (remaining <= 0)
      return {exec::StatusCode::kDeadlineExceeded,
              "client I/O deadline expired"};
    pollfd pfd{fd, events, 0};
    const int n = poll(&pfd, 1, static_cast<int>(remaining) + 1);
    if (n > 0) return {};
    if (n < 0 && errno != EINTR) return transport_error("poll");
  }
}

exec::Status write_all(int fd, std::string_view bytes, double deadline) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + at, bytes.size() - at, MSG_NOSIGNAL);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (exec::Status status = wait_io(fd, POLLOUT, deadline); !status.ok())
        return status;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return transport_error("send");
  }
  return {};
}

/// Reads until the decoder yields one frame (or errors).
exec::Status read_frame(int fd, FrameDecoder& decoder, Frame& frame,
                        double deadline) {
  char buf[1 << 16];
  for (;;) {
    switch (decoder.next(frame)) {
      case FrameDecoder::Result::kFrame:
        return {};
      case FrameDecoder::Result::kError:
        return decoder.error();
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0)
      return {exec::StatusCode::kUnavailable,
              "connection closed before a reply frame"};
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (exec::Status status = wait_io(fd, POLLIN, deadline); !status.ok())
        return status;
      continue;
    }
    if (errno == EINTR) continue;
    return transport_error("read");
  }
}

/// One connection, one request, one reply.
SubmitResult submit_once(const ClientOptions& options,
                         const JobRequest& request) {
  SubmitResult result;
  result.transport_error = true;  // until a reply frame is decoded
  const double deadline = now_ms() + options.io_timeout_ms;
  Socket sock;
  if (exec::Status status = connect_unix(options, sock); !status.ok()) {
    result.status = std::move(status);
    return result;
  }
  if (exec::Status status =
          write_all(sock.fd, encode_request(request), deadline);
      !status.ok()) {
    result.status = std::move(status);
    return result;
  }
  FrameDecoder decoder;
  Frame frame;
  if (exec::Status status = read_frame(sock.fd, decoder, frame, deadline);
      !status.ok()) {
    result.status = std::move(status);
    return result;
  }
  result.transport_error = false;
  switch (frame.type) {
    case FrameType::kReportReply: {
      ReportReply reply;
      if (exec::Status status = decode_report_reply(frame.body, reply);
          !status.ok()) {
        result.status = std::move(status);
        return result;
      }
      result.report_json = std::move(reply.report_json);
      result.cache_hit = reply.cache_hit;
      return result;  // status stays OK
    }
    case FrameType::kErrorReply: {
      exec::Status decoded;
      if (exec::Status status = decode_error_reply(frame.body, decoded);
          !status.ok()) {
        result.status = std::move(status);
        return result;
      }
      result.status = std::move(decoded);
      return result;
    }
    default:
      result.status = {exec::StatusCode::kInternal,
                       "unexpected reply frame type " +
                           std::to_string(static_cast<int>(frame.type))};
      return result;
  }
}

}  // namespace

bool result_is_transient(const SubmitResult& result) {
  exec::JobOutcome outcome;
  outcome.status = result.status;
  outcome.crashed = result.transport_error;
  return exec::outcome_is_transient(outcome);
}

SubmitResult submit_job(const ClientOptions& options,
                        const JobRequest& request) {
  const int max_attempts = options.retry.max_attempts > 0
                               ? options.retry.max_attempts
                               : 1;
  SubmitResult result;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result = submit_once(options, request);
    result.attempts = attempt;
    if (result.status.ok() || attempt == max_attempts ||
        !result_is_transient(result))
      return result;
    const double backoff =
        exec::retry_backoff_ms(options.retry, options.retry_key, attempt);
    if (backoff > 0)
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(backoff * 1000)));
  }
  return result;
}

exec::Status ping_server(const ClientOptions& options, double wait_ms) {
  const double deadline = now_ms() + wait_ms;
  exec::Status last{exec::StatusCode::kUnavailable, "never attempted"};
  do {
    Socket sock;
    last = connect_unix(options, sock);
    if (last.ok()) {
      const double io_deadline = now_ms() + options.io_timeout_ms;
      last = write_all(sock.fd, encode_frame(FrameType::kPing, ""),
                       io_deadline);
      if (last.ok()) {
        FrameDecoder decoder;
        Frame frame;
        last = read_frame(sock.fd, decoder, frame, io_deadline);
        if (last.ok() && frame.type != FrameType::kPong)
          last = {exec::StatusCode::kInternal,
                  "ping answered with frame type " +
                      std::to_string(static_cast<int>(frame.type))};
      }
    }
    if (last.ok()) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (now_ms() < deadline);
  return last.with_context("ping " + options.socket_path);
}

}  // namespace rdc::serve
