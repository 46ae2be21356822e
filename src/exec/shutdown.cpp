#include "exec/shutdown.hpp"

#include <atomic>
#include <csignal>

namespace rdc::exec {
namespace {

// sig_atomic_t is the only object a plain C signal handler may touch;
// everything else here runs in normal thread context.
volatile std::sig_atomic_t g_signal = 0;
std::atomic<bool> g_owned{false};
std::atomic<bool> g_installed{false};

extern "C" void shutdown_handler(int sig) { g_signal = sig; }

}  // namespace

void install_shutdown_handlers() {
  if (g_installed.exchange(true, std::memory_order_acq_rel)) return;
#if defined(SIGINT)
  std::signal(SIGINT, shutdown_handler);
#endif
#if defined(SIGTERM)
  std::signal(SIGTERM, shutdown_handler);
#endif
}

bool shutdown_requested() { return g_signal != 0; }

int shutdown_signal() { return static_cast<int>(g_signal); }

void claim_shutdown_ownership() {
  g_owned.store(true, std::memory_order_release);
}

bool shutdown_owned() { return g_owned.load(std::memory_order_acquire); }

void reraise_shutdown_signal() {
  const int sig = shutdown_signal();
  if (sig == 0) return;
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

namespace testing {

void reset_shutdown() {
  g_signal = 0;
  g_owned.store(false, std::memory_order_release);
}

}  // namespace testing

}  // namespace rdc::exec
