#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/common/trace_json.h"

namespace perfbench {

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin)
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Mean() const {
  if (values_.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values_) {
    sum += v;
  }
  return sum / static_cast<double>(values_.size());
}

void Tracer::AddSpan(const std::string& name, double start_us, double end_us, int64_t op,
                     int64_t parent, int lane, bool sample, int64_t id) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0) {
    id = next_span_id_++;
  }
  if (sample) {
    samples_[name].Add(end_us - start_us);
  }
  if (kept_per_name_[name]++ < kMaxSpansPerName) {
    spans_.push_back({name, start_us, end_us, id, parent, op, lane});
  }
}

int64_t Tracer::NewSpanId() {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return next_span_id_++;
}

void Tracer::AddSample(const std::string& name, double value) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].Add(value);
}

void Tracer::SetValue(const std::string& name, double value) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

int64_t Tracer::NextOpId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_id_++;
}

std::map<std::string, Samples> Tracer::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

std::map<std::string, double> Tracer::values() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  constexpr double kSegmentUs = 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  zeppelin::ChromeTraceWriter writer;
  std::vector<std::pair<int, int>> lanes;  // (segment, lane) pairs seen.
  for (const SpanRecord& span : spans_) {
    const int segment = static_cast<int>(span.start_us / kSegmentUs);
    if (std::find(lanes.begin(), lanes.end(), std::make_pair(segment, span.lane)) ==
        lanes.end()) {
      lanes.emplace_back(segment, span.lane);
    }
    writer.Add({span.name,
                "op=" + std::to_string(span.op) + ",span=" + std::to_string(span.id) +
                    ",parent=" + std::to_string(span.parent),
                span.start_us - segment * kSegmentUs, span.end_us - span.start_us, segment,
                span.lane});
  }
  for (const auto& [segment, lane] : lanes) {
    writer.NameThread(segment, lane,
                      (lane == 0 ? std::string("main") : "lane " + std::to_string(lane)) + " @ " +
                          std::to_string(segment) + " s");
  }
  return writer.WriteFile(path);
}

CpuPin::CpuPin() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      cpu_ = pinned_ ? cpu : -1;
      return;
    }
  }
}

void CpuPin::Release() {
  if (pinned_) {
    sched_setaffinity(0, sizeof(saved_), &saved_);
    pinned_ = false;
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

void Fingerprint::Mix(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ull;
  }
}

void Fingerprint::MixLens(const std::vector<int64_t>& lens) {
  Mix(lens.size());
  for (int64_t len : lens) {
    Mix(static_cast<uint64_t>(len));
  }
}

}  // namespace perfbench
