#include "common/mutex.h"

#include <cstdio>
#include <cstdlib>

namespace moaflat {

#ifndef NDEBUG

namespace {

// Per-thread stack of held Mutexes, innermost last. Plain array: the rank
// checker must not allocate (Cancel() can fire on any thread, including
// under an injected bad_alloc), and legal chains are short — the full
// documented order is eight ranks deep.
constexpr int kMaxHeld = 64;
// lint:allow(thread-local) a lock is held by a thread, so its stack is one
thread_local const Mutex* g_held[kMaxHeld];
// lint:allow(thread-local) the depth of this thread's g_held stack
thread_local int g_held_n = 0;

[[noreturn]] void RankAbort(const char* why, const Mutex& mu) {
  std::fprintf(stderr,
               "[moaflat] lock-rank violation: %s \"%s\" (rank %d)\n",
               why, mu.name(), mu.rank_value());
  std::fprintf(stderr, "[moaflat]   held by this thread:");
  if (g_held_n == 0) {
    std::fprintf(stderr, " (nothing)");
  }
  for (int i = 0; i < g_held_n; ++i) {
    std::fprintf(stderr, "%s \"%s\" (rank %d)", i ? " ->" : "",
                 g_held[i]->name(), g_held[i]->rank_value());
  }
  std::fprintf(stderr,
               "\n[moaflat]   rule: a thread may only acquire a mutex of "
               "strictly higher rank than every mutex it already holds\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void Mutex::RankCheckAcquire() const {
  for (int i = 0; i < g_held_n; ++i) {
    if (g_held[i] == this) RankAbort("re-entrant acquisition of", *this);
  }
  if (g_held_n > 0 && g_held[g_held_n - 1]->rank_ >= rank_) {
    RankAbort("acquiring", *this);
  }
}

void Mutex::RankRecordAcquire() const {
  if (g_held_n == kMaxHeld) RankAbort("held-stack overflow acquiring", *this);
  g_held[g_held_n++] = this;
}

void Mutex::RankRecordRelease() const {
  // Locks release LIFO in practice (MutexLock scopes), but tolerate
  // out-of-order release: remove the most recent matching entry.
  for (int i = g_held_n - 1; i >= 0; --i) {
    if (g_held[i] != this) continue;
    for (int j = i; j + 1 < g_held_n; ++j) g_held[j] = g_held[j + 1];
    --g_held_n;
    return;
  }
  RankAbort("releasing un-held", *this);
}

#else  // NDEBUG

void Mutex::RankCheckAcquire() const {}
void Mutex::RankRecordAcquire() const {}
void Mutex::RankRecordRelease() const {}

#endif  // NDEBUG

void Mutex::Lock() {
  RankCheckAcquire();
  mu_.lock();
  RankRecordAcquire();
}

void Mutex::Unlock() {
  RankRecordRelease();
  mu_.unlock();
}

bool Mutex::TryLock() {
  RankCheckAcquire();
  if (!mu_.try_lock()) return false;
  RankRecordAcquire();
  return true;
}

}  // namespace moaflat
