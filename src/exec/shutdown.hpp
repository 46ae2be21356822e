// Cooperative SIGINT/SIGTERM handling (DESIGN.md §14).
//
// install_shutdown_handlers() replaces the default die-immediately
// disposition with a handler that records the signal in a sig_atomic_t
// flag; pollers (the batch supervisor's event loop, the metrics
// snapshotter thread) observe it and perform an orderly teardown: kill
// in-flight workers, flush the final rdc.metrics.v1 snapshot, append a
// terminating rdc.events.v1 record.
//
// Ownership decides who completes the shutdown. A driver that calls
// claim_shutdown_ownership() (rdc_batch) handles the exit itself —
// journal flushed, partial report written, a documented exit code. When
// nobody owns it, the snapshotter performs the telemetry flush and then
// re-raises the signal with the default disposition restored, so the
// process still dies with the conventional 128+N status and the parent
// shell sees an interrupt, not a success.
//
// Only install the handlers when something polls the flag: a handler
// with no poller would turn Ctrl-C into a no-op.
#pragma once

namespace rdc::exec {

/// Installs the SIGINT/SIGTERM flag handlers (idempotent, async-safe
/// handler body). No-op on platforms without those signals.
void install_shutdown_handlers();

/// True once a shutdown signal has been received.
bool shutdown_requested();

/// The received signal number (SIGINT/SIGTERM), or 0 when none yet.
int shutdown_signal();

/// Marks a driver as the shutdown owner: background pollers flush their
/// own telemetry but must not re-raise; the driver controls the exit.
void claim_shutdown_ownership();
bool shutdown_owned();

/// Restores the default disposition for the received signal and
/// re-raises it (process-terminating when a signal was in fact
/// received; plain return otherwise).
void reraise_shutdown_signal();

namespace testing {

/// Clears the recorded signal and ownership (between tests).
void reset_shutdown();

}  // namespace testing

}  // namespace rdc::exec
