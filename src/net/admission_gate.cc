#include "src/net/admission_gate.h"

#include <algorithm>

namespace zeppelin {
namespace net {

AdmissionGate::AdmissionGate(int permits, int queue_limit, obs::Gauge* active_gauge,
                             obs::Gauge* waiting_gauge)
    : permits_(std::max(1, permits)),
      queue_limit_(std::max(0, queue_limit)),
      g_active_(active_gauge),
      g_waiting_(waiting_gauge) {}

AdmissionGate::Result AdmissionGate::Acquire(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    return Result::kShutdown;
  }
  // A free permit implies an empty queue (Release hands permits to waiters
  // before returning them to the pool), so a newcomer never overtakes.
  if (active_ < permits_) {
    ++active_;
    g_active_->Add(1);
    return Result::kAdmitted;
  }
  if (static_cast<int>(queue_.size()) >= queue_limit_) {
    return Result::kOverloaded;
  }
  Ticket ticket;
  queue_.push_back(&ticket);
  g_waiting_->Add(1);
  const auto woken = [&] { return ticket.granted || shutdown_; };
  if (deadline == Clock::time_point::max()) {
    ticket.cv.wait(lock, woken);
  } else {
    ticket.cv.wait_until(lock, deadline, woken);
  }
  // A permit handed over in the same instant as the timeout or the shutdown
  // still wins: Release already counted it as held.
  if (ticket.granted) {
    return Result::kAdmitted;
  }
  queue_.erase(std::find(queue_.begin(), queue_.end(), &ticket));
  g_waiting_->Sub(1);
  return shutdown_ ? Result::kShutdown : Result::kDeadline;
}

void AdmissionGate::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) {
    --active_;
    g_active_->Sub(1);
    return;
  }
  // Hand the permit over: `active_` is unchanged. Notify under the lock — the
  // ticket lives on its waiter's stack and may be gone once the lock drops.
  Ticket* head = queue_.front();
  queue_.pop_front();
  g_waiting_->Sub(1);
  head->granted = true;
  head->cv.notify_one();
}

void AdmissionGate::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  for (Ticket* ticket : queue_) {
    ticket->cv.notify_one();
  }
}

int AdmissionGate::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

}  // namespace net
}  // namespace zeppelin
