#ifndef S4_COMMON_STOP_TOKEN_H_
#define S4_COMMON_STOP_TOKEN_H_

#include <atomic>
#include <chrono>

namespace s4 {

// Cooperative cancellation + deadline signal for a search request.
// The issuing side (a client holding the service ticket, or the service
// itself when the request carries a deadline) calls Cancel() or lets the
// deadline pass; the strategies poll ShouldStop() at batch/group
// boundaries and wind down, returning whatever partial top-k they have
// with SearchResult::interrupted set. Polling keeps the hot evaluation
// loops free of synchronization: a stop is observed at the next
// boundary, never mid-join.
//
// Thread-safe: any number of threads may poll while another cancels.
class StopToken {
 public:
  StopToken() = default;

  // A token that expires `deadline_seconds` from now (<= 0 expires
  // immediately). The atomic member makes the type immovable, so
  // deadlines are set at construction or via SetDeadline in place.
  explicit StopToken(double deadline_seconds) { SetDeadline(deadline_seconds); }

  // Arms (or re-arms) the deadline `seconds` from now. A deadline of
  // kNoDeadlineSeconds (about 31 years) or more, infinity included,
  // saturates to no deadline at all: the clock's int64 nanosecond ticks
  // overflow near 9.2e9 s, which would expire the token at once.
  static constexpr double kNoDeadlineSeconds = 1e9;
  void SetDeadline(double seconds) {
    if (!(seconds < kNoDeadlineSeconds)) {
      has_deadline_ = false;
      return;
    }
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    has_deadline_ = true;
  }

  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool deadline_expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  // True once the request should wind down (either trigger).
  bool ShouldStop() const { return cancelled() || deadline_expired(); }

 private:
  std::atomic<bool> cancelled_{false};
  // Written before the token is shared (SetDeadline happens-before any
  // poll via the mechanism that publishes the token), read-only after.
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace s4

#endif  // S4_COMMON_STOP_TOKEN_H_
