// Measurement plumbing shared by every workload of the benchmark: a
// steady-clock timebase, sample sets with nearest-rank quantiles, and the
// in-memory span tracer behind the traced (per-layer) run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside the library is instrumented.
// Each span carries a name (the layer call, e.g. "core.plan_verify.verify"),
// start and end, the span that encloses it, and the id of the operation it
// belongs to. The tracer keeps every duration for the per-layer statistics
// and the first `kMaxSpansPerName` records of each name for the
// Chrome-trace file, so every layer appears in it however long the run.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Microseconds since the first call in this process (steady clock).
double NowUs();

// A set of measurements; quantiles use the nearest-rank definition.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root.
  int64_t op = -1;      // Operation the span belongs to.
  int lane = 0;         // Trace lane (one per benchmark thread).
};

// Thread-safe span and sample store. Disabled tracers record nothing, so
// the untraced run pays one branch per call site.
class Tracer {
 public:
  static constexpr size_t kMaxSpansPerName = 2048;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Records a finished span; its duration becomes a sample of `name` unless
  // `sample` is false. `id` is a NewSpanId() reserved so children could name
  // the span as their parent before it finished; -1 allocates one.
  void AddSpan(const std::string& name, double start_us, double end_us, int64_t op,
               int64_t parent, int lane, bool sample = true, int64_t id = -1);
  // Reserves the id of a span that will enclose others (-1 if disabled).
  int64_t NewSpanId();
  // Records a sample that has no span of its own (a value reported by the
  // program, e.g. the daemon's queue wait).
  void AddSample(const std::string& name, double value);
  // Sets a scalar per-layer value (counts, shares, busy times).
  void SetValue(const std::string& name, double value);

  int64_t NextOpId();

  // Per-name samples and scalar values recorded so far.
  std::map<std::string, Samples> samples() const;
  std::map<std::string, double> values() const;

  // Writes the kept spans as Chrome-trace JSON through ChromeTraceWriter.
  // The writer prints timestamps with six significant digits, so the run is
  // cut into one-second segments — one trace process per segment, one
  // thread per benchmark lane — keeping timestamps below 10^6 us and exact
  // to the microsecond. Children nest under their parent by time; the
  // category carries the op, span and parent ids. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const;
  size_t span_count() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, Samples> samples_;
  std::map<std::string, size_t> kept_per_name_;
  std::map<std::string, double> values_;
  int64_t next_span_id_ = 0;
  int64_t next_op_id_ = 0;
};

// Times one call into a layer and records it as a span on `tracer`.
// Usage: { ScopedSpan s(tracer, "core.plan_io.serialize", op, parent, lane); ... }
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int64_t op, int64_t parent, int lane)
      : tracer_(tracer), name_(std::move(name)), op_(op), parent_(parent), lane_(lane),
        start_(tracer.enabled() ? NowUs() : 0) {}
  ~ScopedSpan() {
    if (tracer_.enabled()) {
      tracer_.AddSpan(name_, start_, NowUs(), op_, parent_, lane_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::string name_;
  int64_t op_;
  int64_t parent_;
  int lane_;
  double start_;
};

// Pins the calling thread — and every thread it creates afterwards — to one
// CPU, the highest-numbered one it may run on, and restores the previous
// CPU set on Release() or destruction. On a shared virtual machine, threads
// handing work to each other across virtual CPUs pay the host's scheduling
// delays on every wake-up; measured runs of the serve workloads moved by up
// to 3x with the host's load. On one CPU the same work moves by about as
// much as a single-threaded loop (roughly +-15%).
class CpuPin {
 public:
  CpuPin();
  ~CpuPin() { Release(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  void Release();
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
  int cpu_ = -1;
};

// Peak resident set size of this process in MiB.
double PeakRssMb();

// FNV-1a over 64-bit words: fingerprints the generated inputs of a run.
class Fingerprint {
 public:
  void Mix(uint64_t word);
  void MixLens(const std::vector<int64_t>& lens);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
