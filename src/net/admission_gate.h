// AdmissionGate: the planner daemon's bounded two-stage admission
// (docs/DAEMON.md, "Deadlines and backpressure").
//
// `permits` requests plan concurrently, at most `queue_limit` more wait
// behind them, everything else is shed immediately. Waiters are served in
// arrival order: Release hands its permit straight to the head of the
// ticket queue, so a newcomer is admitted only when nobody waits and can
// never overtake a queued request. Waiters honor their request deadline — a
// queued request whose deadline passes leaves the queue without ever
// starting to plan — and Shutdown empties the queue.
#ifndef SRC_NET_ADMISSION_GATE_H_
#define SRC_NET_ADMISSION_GATE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "src/obs/metrics.h"

namespace zeppelin {
namespace net {

class AdmissionGate {
 public:
  using Clock = std::chrono::steady_clock;
  enum class Result { kAdmitted, kOverloaded, kDeadline, kShutdown };

  // The two gauges (borrowed, non-null) mirror the permits in use and the
  // queue length, so the admission state is visible in every metrics
  // snapshot; they are updated under the gate's mutex at each transition,
  // so the mirrored levels can never drift from the truth.
  AdmissionGate(int permits, int queue_limit, obs::Gauge* active_gauge,
                obs::Gauge* waiting_gauge);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  // Blocks until a permit is this caller's (kAdmitted), the deadline passes
  // while queued (kDeadline), or the gate shuts down (kShutdown). Sheds at
  // once with kOverloaded when the queue is full. Clock::time_point::max()
  // waits without a deadline.
  Result Acquire(Clock::time_point deadline);
  // Returns an admitted caller's permit: to the head waiter if any, else to
  // the pool.
  void Release();
  // Wakes every waiter with kShutdown and refuses later arrivals.
  void Shutdown();

  // Requests waiting for a permit right now.
  int waiting() const;

 private:
  // One queued request; lives on its waiter's stack while it is queued.
  struct Ticket {
    std::condition_variable cv;
    bool granted = false;
  };

  mutable std::mutex mu_;
  std::deque<Ticket*> queue_;  // Front = longest waiting.
  int active_ = 0;             // Permits held, including handed-over ones.
  bool shutdown_ = false;
  const int permits_;
  const int queue_limit_;
  obs::Gauge* const g_active_;
  obs::Gauge* const g_waiting_;
};

}  // namespace net
}  // namespace zeppelin

#endif  // SRC_NET_ADMISSION_GATE_H_
