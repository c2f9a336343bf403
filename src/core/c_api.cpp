#include "core/c_api.h"

#include <errno.h>

#include <chrono>
#include <new>

#include "core/condvar.h"
#include "sync/spin.h"
#include "sync/sync_context.h"
#include "sync/wait_morph.h"
#include "tm/api.h"

struct tmcv_cond {
  tmcv::CondVar cv;
};

namespace {

// Adapter: present a pthread_mutex_t as a Lockable for LockSync.
struct PthreadMutexRef {
  pthread_mutex_t* m;
  void lock() { pthread_mutex_lock(m); }
  void unlock() { pthread_mutex_unlock(m); }
};

}  // namespace

extern "C" {

tmcv_cond_t* tmcv_cond_create(void) {
  return new (std::nothrow) tmcv_cond;
}

void tmcv_cond_destroy(tmcv_cond_t* cond) { delete cond; }

int tmcv_cond_wait(tmcv_cond_t* cond, pthread_mutex_t* mutex) {
  if (cond == nullptr || mutex == nullptr) return EINVAL;
  PthreadMutexRef ref{mutex};
  tmcv::LockSync sync(ref);
  cond->cv.wait(sync);  // traditional style: returns with the mutex held
  return 0;
}

int tmcv_cond_timedwait_ms(tmcv_cond_t* cond, pthread_mutex_t* mutex,
                           unsigned timeout_ms) {
  if (cond == nullptr || mutex == nullptr) return EINVAL;
  PthreadMutexRef ref{mutex};
  tmcv::LockSync sync(ref);
  const bool notified =
      cond->cv.wait_for(sync, std::chrono::milliseconds(timeout_ms));
  return notified ? 0 : ETIMEDOUT;
}

int tmcv_cond_signal(tmcv_cond_t* cond) {
  if (cond == nullptr) return EINVAL;
  cond->cv.notify_one();
  return 0;
}

int tmcv_cond_broadcast(tmcv_cond_t* cond) {
  if (cond == nullptr) return EINVAL;
  cond->cv.notify_all();
  return 0;
}

int tmcv_cond_broadcast_locked(tmcv_cond_t* cond, pthread_mutex_t* mutex) {
  if (cond == nullptr || mutex == nullptr) return EINVAL;
  tmcv::WakeHandoffScope scope(static_cast<const void*>(mutex));
  cond->cv.notify_all();
  return 0;
}

void tmcv_set_spin_budget(unsigned rounds) { tmcv::set_spin_budget(rounds); }

unsigned tmcv_get_spin_budget(void) { return tmcv::spin_budget(); }

void tmcv_set_wait_morphing(int enabled) {
  tmcv::set_wait_morphing(enabled != 0);
}

int tmcv_get_wait_morphing(void) { return tmcv::wait_morphing() ? 1 : 0; }

int tmcv_tm_set_backend(const char* name) {
  if (name == nullptr) return -1;
  tmcv::tm::Backend b{};
  if (!tmcv::tm::backend_from_label(name, b)) return -1;
  tmcv::tm::set_default_backend(b);
  return 0;
}

const char* tmcv_tm_get_backend(void) {
  return tmcv::tm::backend_label(tmcv::tm::default_backend());
}

}  // extern "C"
