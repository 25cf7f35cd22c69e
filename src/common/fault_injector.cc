#include "common/fault_injector.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace moaflat {
namespace {

/// splitmix64: the decision hash. Statistically uniform, so comparing it
/// against rate * 2^64 fires the requested fraction of events.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector::FaultInjector(uint64_t seed, double rate)
    : seed_(seed), rate_(rate < 0 ? 0.0 : rate > 1 ? 1.0 : rate) {
  // ldexp(rate, 64) would overflow uint64 at rate 1; clamp explicitly.
  const double t = std::ldexp(rate_, 64);
  threshold_ = t >= std::ldexp(1.0, 64) ? ~uint64_t{0}
                                        : static_cast<uint64_t>(t);
  for (auto& f : forced_nth_) f.store(~uint64_t{0}, std::memory_order_relaxed);
}

bool FaultInjector::Fire(Site site) {
  const int s = static_cast<int>(site);
  const uint64_t n = counter_[s].fetch_add(1, std::memory_order_relaxed);
  bool fire = forced_nth_[s].load(std::memory_order_relaxed) == n;
  if (!fire && threshold_ != 0) {
    fire = Mix(seed_ ^ (static_cast<uint64_t>(s + 1) << 56) ^ n) < threshold_;
  }
  if (fire) fired_[s].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

void FaultInjector::FailNth(Site site, uint64_t nth) {
  forced_nth_[static_cast<int>(site)].store(nth, std::memory_order_relaxed);
}

void FaultInjector::StallBlock(size_t block, int millis) {
  stall_ms_.store(millis, std::memory_order_relaxed);
  stall_block_.store(block, std::memory_order_relaxed);
}

void FaultInjector::MaybeStall(size_t block, CancelState* cancel) {
  const size_t target = stall_block_.load(std::memory_order_relaxed);
  bool stall = target == block;
  if (!stall && threshold_ != 0) {
    stall = Fire(Site::kStall);
  }
  if (!stall) return;
  int ms = stall_ms_.load(std::memory_order_relaxed);
  if (ms <= 0) ms = 5;  // rate-drawn stalls default to a short hiccup
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    if (cancel != nullptr && cancel->ShouldStop()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void FaultInjector::CrashNow() {
  // SIGKILL cannot be caught or blocked: no destructors, no stream flushes,
  // no atexit — exactly the crash the recovery path must survive. _Exit is
  // the (unreachable in practice) fallback for the raise() failure path.
  (void)std::raise(SIGKILL);
  std::_Exit(137);
}

Result<std::unique_ptr<FaultInjector>> FaultInjector::ParseEnv(
    const char* seed_text, const char* rate_text) {
  const bool has_rate = rate_text != nullptr && rate_text[0] != '\0';
  if (seed_text == nullptr || seed_text[0] == '\0') {
    if (has_rate) {
      return Status::Invalid(
          "MOAFLAT_FAULT_RATE is set but MOAFLAT_FAULT_SEED is not; a rate "
          "without a seed arms nothing — set MOAFLAT_FAULT_SEED or unset "
          "the rate");
    }
    return std::unique_ptr<FaultInjector>();  // unset: injection disabled
  }
  if (!std::isdigit(static_cast<unsigned char>(seed_text[0]))) {
    return Status::Invalid(
        std::string("malformed MOAFLAT_FAULT_SEED '") + seed_text +
        "': expected a plain decimal number");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text, &end, 10);
  if (errno != 0 || *end != '\0') {
    return Status::Invalid(
        std::string("malformed MOAFLAT_FAULT_SEED '") + seed_text +
        "': expected a plain decimal number");
  }
  double rate = 0.01;
  if (has_rate) {
    errno = 0;
    const double r = std::strtod(rate_text, &end);
    if (errno != 0 || *end != '\0' || !(r >= 0.0 && r <= 1.0)) {
      return Status::Invalid(
          std::string("malformed MOAFLAT_FAULT_RATE '") + rate_text +
          "': expected a decimal fraction in [0, 1]");
    }
    rate = r;
  }
  return std::make_unique<FaultInjector>(seed, rate);
}

FaultInjector* FaultInjector::FromEnv() {
  // Resolved once: the sweep sets the variables before process start, and
  // a process-lifetime injector keeps the site counters (and thus the
  // fired-event numbers) globally deterministic.
  static FaultInjector* global = []() -> FaultInjector* {
    auto parsed = ParseEnv(std::getenv("MOAFLAT_FAULT_SEED"),
                           std::getenv("MOAFLAT_FAULT_RATE"));
    if (!parsed.ok()) {
      std::fprintf(stderr, "moaflat: %s\n",
                   parsed.status().message().c_str());
      std::exit(2);
    }
    return parsed->release();
  }();
  return global;
}

namespace {
// lint:allow(thread-local) alloc sites have no ExecContext in reach
thread_local FaultInjector* t_current_injector = nullptr;
}  // namespace

FaultInjector* CurrentFaultInjector() { return t_current_injector; }

FaultScope::FaultScope(FaultInjector* injector)
    : previous_(t_current_injector) {
  t_current_injector = injector;
}

FaultScope::~FaultScope() { t_current_injector = previous_; }

}  // namespace moaflat
