/* C-compatible interface to the transaction-friendly condition variables:
 * a drop-in pattern for pthread_cond_t users (the paper's abstract promises
 * compatibility with "existing C/C++ interfaces for condition
 * synchronization").
 *
 * Semantics match pthread_cond_* with one strengthening: tmcv_cond_wait
 * never returns spuriously (§3.4).  All functions return 0 on success.
 * Signals/broadcasts issued from inside a transaction (when the calling
 * thread is running under tm::atomically in C++ callers) are deferred to
 * that transaction's commit, like the C++ API.
 */
#pragma once

#include <pthread.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct tmcv_cond tmcv_cond_t;

/* Allocate / free a condition variable.  Destroying one with waiters is
 * undefined behaviour (asserted in debug builds), as with pthreads. */
tmcv_cond_t* tmcv_cond_create(void);
void tmcv_cond_destroy(tmcv_cond_t* cond);

/* Atomically release `mutex` and sleep until signaled, then re-acquire
 * `mutex` before returning.  The mutex must be held by the caller. */
int tmcv_cond_wait(tmcv_cond_t* cond, pthread_mutex_t* mutex);

/* As tmcv_cond_wait, bounded by `timeout_ms` milliseconds.  Returns 0 when
 * signaled, ETIMEDOUT on timeout (mutex re-acquired either way). */
int tmcv_cond_timedwait_ms(tmcv_cond_t* cond, pthread_mutex_t* mutex,
                           unsigned timeout_ms);

/* Wake one / all waiting threads.  Safe from any context, including naked
 * (mutex-less) calls. */
int tmcv_cond_signal(tmcv_cond_t* cond);
int tmcv_cond_broadcast(tmcv_cond_t* cond);

/* Process-wide tuning knob (see docs/TUNING.md).
 *
 * Spin budget: max backoff rounds a blocking wait spins before parking in
 * the kernel (0 disables spinning; the TMCV_NO_SPIN env var forces 0 at
 * startup). */
void tmcv_set_spin_budget(unsigned rounds);
unsigned tmcv_get_spin_budget(void);

/* TM backend selection (see docs/BACKENDS.md).
 *
 * tmcv_tm_set_backend sets the process-wide default to a fixed backend by
 * label ("eager", "lazy", "htm", "norec") or to the "hybrid" retry ladder
 * (hardware attempts, then eager, then serial); the switch happens at
 * a quiescence point (every in-flight transaction drains first).  Returns
 * 0 on success, -1 on an unknown label.  Must not be called from inside a
 * transaction.  tmcv_tm_get_backend returns the current default's label
 * (a static string). */
int tmcv_tm_set_backend(const char* name);
const char* tmcv_tm_get_backend(void);

/* Live telemetry endpoint (implemented in the obs library -- linking
 * tmcv_obs is required to use these two; everything above needs only
 * tmcv_core).  Starts a background HTTP/1.0 server bound to 127.0.0.1
 * serving GET /metrics (Prometheus text), /metrics.json, /healthz and
 * /profile (every conflict-attribution entry); the metric routes snapshot
 * the registry when the request arrives.  `port` 0 picks an ephemeral
 * port.  Returns the bound port, or -1 on failure (including: a server
 * already running).  tmcv_telemetry_stop is idempotent and joins the
 * server thread. */
int tmcv_telemetry_start(int port);
void tmcv_telemetry_stop(void);

/* Flight recorder (also obs-library-only): atomically write a post-mortem
 * JSON -- full metrics snapshot, time-series history, unsliced conflict
 * attribution, and the Chrome trace document -- to `path`.  Capture flags
 * are frozen during serialization and restored after.  Returns 0 on
 * success, -1 on failure (errno intact).  Validate/summarize the file with
 * tools/trace_report.py. */
int tmcv_flight_dump(const char* path);

#ifdef __cplusplus
}  /* extern "C" */
#endif
