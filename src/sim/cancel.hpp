// Cooperative cancellation and deadlines for long-running campaign
// work.
//
// A CancelToken is shared between a controller thread (a daemon session
// handler, a CLI signal handler) and the campaign workers. Workers
// never block on it — they poll stop_requested() at their natural
// boundaries (between trials inside a campaign batch task, at round
// completion in the campaign driver) and drain. Because an interrupted
// round is discarded wholesale and the checkpoint only ever advances at
// round boundaries, cancellation can land at ANY instant without
// touching the determinism contract: the resumed campaign recomputes
// the abandoned round bit-for-bit.
//
// cancel() is a lock-free atomic store, so it is safe to call from a
// POSIX signal handler (the ofdm_campaign SIGINT/SIGTERM path).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace ofdm::sim {

class CancelToken {
 public:
  /// Request a cooperative stop. Safe from any thread and from
  /// async-signal context. Irreversible for the lifetime of the token.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Arm (or re-arm) an absolute deadline; past it, stop_requested()
  /// turns true. Call before handing the token to a run.
  void set_deadline(std::chrono::steady_clock::time_point t) noexcept {
    deadline_ns_.store(t.time_since_epoch().count(),
                       std::memory_order_release);
  }

  /// Convenience: deadline `seconds` from now; <= 0 disarms.
  void set_deadline_after(double seconds) noexcept {
    if (seconds <= 0.0) {
      deadline_ns_.store(0, std::memory_order_release);
      return;
    }
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds)));
  }

  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool deadline_expired() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_acquire);
    if (d == 0) return false;
    return std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

  bool stop_requested() const noexcept {
    return cancelled() || deadline_expired();
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock ticks since epoch; 0 = no deadline armed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

}  // namespace ofdm::sim
