#include "obs/events.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace rdc::obs {
namespace detail {

std::atomic<int> g_events_enabled{-1};

}  // namespace detail

namespace {

/// Sink state. The mutex serializes line assembly + write so `seq` always
/// matches the physical line order in the file.
struct Sink {
  std::mutex mutex;
  std::FILE* file = nullptr;  // owned unless == stderr
  bool capture = false;
  std::vector<std::string> captured;
  std::uint64_t next_seq = 1;
};

Sink& sink() {
  static Sink* instance = new Sink;  // leaked: usable during static dtors
  return *instance;
}

void close_file_locked(Sink& s) {
  if (s.file != nullptr && s.file != stderr) std::fclose(s.file);
  s.file = nullptr;
}

/// Opens `path` (append mode) under the sink mutex; empty disables.
void install_path_locked(Sink& s, const std::string& path) {
  close_file_locked(s);
  if (path.empty()) return;
  if (path == "-") {
    s.file = stderr;
    return;
  }
  s.file = std::fopen(path.c_str(), "a");
  if (s.file == nullptr)
    std::fprintf(stderr, "[rdc::obs] cannot open event log %s\n",
                 path.c_str());
}

void update_enabled_locked(const Sink& s) {
  detail::g_events_enabled.store(
      (s.file != nullptr || s.capture) ? 1 : 0, std::memory_order_relaxed);
}

void flush_at_exit() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file != nullptr && s.file != stderr) std::fflush(s.file);
}

}  // namespace

namespace detail {

int init_events_enabled_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("RDC_EVENTS");
    Sink& s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (env != nullptr && *env != '\0') {
      install_path_locked(s, env);
      if (s.file != nullptr) std::atexit(flush_at_exit);
    }
    update_enabled_locked(s);
  });
  return g_events_enabled.load(std::memory_order_relaxed);
}

}  // namespace detail

void emit_event(const char* name, const Record& fields) {
  if (!events_enabled()) return;
  // Stamp the timestamp and thread id outside the sink lock; the sequence
  // number inside it, so seq is dense and matches line order.
  const std::uint64_t ts_ns = trace_now_ns();
  const std::uint32_t tid = current_thread_id();

  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file == nullptr && !s.capture) return;

  JsonWriter w(/*compact=*/true);
  w.begin_object();
  w.key("schema").value("rdc.events.v1");
  w.key("seq").value(s.next_seq++);
  w.key("ts_ns").value(ts_ns);
  w.key("tid").value(std::uint64_t{tid});
  w.key("event").value(name);
  fields.write_fields(w);  // caller fields spliced into the same object
  w.end_object();

  if (s.file != nullptr) {
    std::fwrite(w.str().data(), 1, w.str().size(), s.file);
    std::fputc('\n', s.file);
  }
  if (s.capture) s.captured.push_back(w.str());
}

void emit_event(const char* name) { emit_event(name, Record()); }

void flush_events() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file != nullptr && s.file != stderr) std::fflush(s.file);
}

void set_events_capture(bool capture) {
  detail::init_events_enabled_from_env();
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.capture = capture;
  if (!capture) s.captured.clear();
  update_enabled_locked(s);
}

std::vector<std::string> drain_events() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mutex);
  return std::exchange(s.captured, {});
}

}  // namespace rdc::obs
