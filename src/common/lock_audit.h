#ifndef E2NVM_COMMON_LOCK_AUDIT_H_
#define E2NVM_COMMON_LOCK_AUDIT_H_

#include <cstdint>
#include <mutex>

namespace e2nvm::debug {

/// Thread-local audit counter for *shared* (shard-external) lock
/// acquisitions — the ones the contention-free steady-state contract
/// (DESIGN.md §13) forbids on the PUT/GET/DELETE path. Instrumented at
/// the shared lock sites a shard operation could reach:
///   - the ThreadPool queue mutex (Submit / parallel dispatch),
///   - the FaultInjector state mutex (skipped entirely by the unarmed
///     write fast path — an attached injector with no stuck cells and
///     no tear probability stays off the steady-state audit).
/// Per-shard locks are intentionally NOT counted: holding your own
/// shard's lock is the steady-state design, not a violation.
///
/// Tests snapshot `SharedLockAcquisitions()` around a steady-state
/// operation window and assert a zero delta. The counter is
/// thread-local, so each client thread audits exactly the locks *it*
/// acquired; background workers' own acquisitions (e.g. a retrain task
/// dequeuing work) land on the worker's counter, not the client's.
inline thread_local uint64_t t_shared_lock_acquisitions = 0;

inline void NoteSharedLockAcquired() { ++t_shared_lock_acquisitions; }

/// The calling thread's lifetime count of shared-lock acquisitions.
inline uint64_t SharedLockAcquisitions() {
  return t_shared_lock_acquisitions;
}

/// Drop-in replacement for std::lock_guard at shared-lock sites: takes
/// the mutex and books the acquisition on the calling thread's audit
/// counter.
class AuditedLockGuard {
 public:
  explicit AuditedLockGuard(std::mutex& m) : lock_(m) {
    NoteSharedLockAcquired();
  }
  AuditedLockGuard(const AuditedLockGuard&) = delete;
  AuditedLockGuard& operator=(const AuditedLockGuard&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace e2nvm::debug

#endif  // E2NVM_COMMON_LOCK_AUDIT_H_
