// perfbench: the entry point of the repository's benchmark.
//
//   perfbench --workload <serve-miss|serve-hit|serve-stream|train-sim>
//             --seed <n> --seconds <s> --trace <0|1> [--trace_out <file>]
//
// Runs one workload, checks its outputs, prints a human-readable summary and
// an "info" JSON line of diagnostics, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones (see README.md for every name and unit). A run
// whose inputs leave a planner zone empty or exceed the memory model prints
// no result and exits 3.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/harness.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer calls reported as .p50_us / .p90_us of their samples.
const char* const kTimedLayers[] = {
    "core.plan_service.plan",          "core.plan_cache.key",
    "core.plan_cache.lookup_exact",    "core.plan_cache.lookup_permuted",
    "core.plan_cache.insert",          "core.delta_planner.patch",
    "core.plan_verify.verify",         "core.partitioner.digest",
    "core.plan_io.serialize",          "core.plan_io.parse",
    "net.wire.encode_request",         "net.wire.parse_request",
    "net.wire.encode_response",        "net.wire.parse_response",
    "net.plan_client.ping",            "net.planner_daemon.queue_wait",
    "core.zeppelin.plan",              "core.attention_engine.emit",
    "sim.engine.run",                  "data.next_batch",
};

// Per-layer quantities reported as the mean of their samples. "sim_us" is
// simulated time, a deterministic function of the plans, not a measurement.
const struct {
  const char* name;
  const char* unit;
} kMeanLayers[] = {
    {"core.plan_io.plan_bytes", "bytes"},   {"net.wire.request_bytes", "bytes"},
    {"sim.graph_tasks", "count"},           {"sim.attention_compute_us", "sim_us"},
    {"sim.linear_compute_us", "sim_us"},    {"sim.intra_comm_us", "sim_us"},
    {"sim.inter_comm_us", "sim_us"},        {"sim.remap_comm_us", "sim_us"},
    {"sim.nic_utilization", "share"},
};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double OpsPerSecond(const RunOutcome& outcome) {
  return outcome.wall_s > 0 ? static_cast<double>(outcome.ops) / outcome.wall_s : 0;
}

std::vector<Metric> EndToEnd(const RunOutcome& outcome, const std::string& prefix) {
  return {
      {prefix + "ops_per_s", OpsPerSecond(outcome), "1/s"},
      {prefix + "latency_p50_us", outcome.latency_us.Quantile(0.5), "us"},
      {prefix + "latency_p90_us", outcome.latency_us.Quantile(0.9), "us"},
  };
}

// Builds the per-layer metrics; `missing` collects layers with no samples.
std::vector<Metric> PerLayer(const RunOutcome& outcome, const Tracer& tracer,
                             std::vector<std::string>* missing) {
  const std::map<std::string, Samples> samples = tracer.samples();
  const std::map<std::string, double> values = tracer.values();
  std::vector<Metric> metrics;
  for (const char* layer : kTimedLayers) {
    auto it = samples.find(layer);
    if (it == samples.end() || it->second.empty()) {
      missing->push_back(layer);
      continue;
    }
    metrics.push_back({std::string(layer) + ".p50_us", it->second.Quantile(0.5), "us"});
    metrics.push_back({std::string(layer) + ".p90_us", it->second.Quantile(0.9), "us"});
  }
  for (const auto& layer : kMeanLayers) {
    auto it = samples.find(layer.name);
    if (it == samples.end() || it->second.empty()) {
      missing->push_back(layer.name);
      continue;
    }
    metrics.push_back({layer.name, it->second.Mean(), layer.unit});
  }
  for (const char* share : {"core.plan_cache.hit_share", "core.delta_planner.applied_share"}) {
    auto it = values.find(share);
    if (it == values.end()) {
      missing->push_back(share);
      continue;
    }
    metrics.push_back({share, it->second, "share"});
  }
  metrics.push_back({"core.partitioner.inter_seqs", outcome.inter_seqs, "count"});
  metrics.push_back({"core.partitioner.intra_seqs", outcome.intra_seqs, "count"});
  metrics.push_back({"core.partitioner.local_seqs", outcome.local_seqs, "count"});
  for (Metric& metric : EndToEnd(outcome, "traced.")) {
    metrics.push_back(std::move(metric));
  }
  return metrics;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-miss|serve-hit|serve-stream|train-sim> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace_out <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace_out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) {
    return Usage();
  }
  const bool serve = options.workload == "serve-miss" || options.workload == "serve-hit" ||
                     options.workload == "serve-stream";
  if (!serve && options.workload != "train-sim") {
    return Usage();
  }

  Tracer tracer(options.trace);
  RunOutcome outcome = serve ? RunServe(options, tracer) : RunTrainSim(options, tracer);

  std::vector<Metric> metrics;
  std::vector<std::string> missing;
  if (options.trace) {
    metrics = PerLayer(outcome, tracer, &missing);
  } else {
    metrics = EndToEnd(outcome, "");
    metrics.push_back({"sim_tokens_per_s", outcome.sim_tokens_per_s, "tokens/s"});
    metrics.push_back({"setup_s", outcome.setup_s.Quantile(0.5), "s"});
    metrics.push_back({"peak_rss_mb", outcome.peak_rss_mb, "MiB"});
  }
  bool trace_written = false;
  if (options.trace && !trace_out.empty()) {
    trace_written = tracer.WriteChromeTrace(trace_out);
    if (!trace_written) {
      outcome.Fail("could not write the trace file " + trace_out);
    }
  }

  std::printf("workload %s  seed %llu  window %.1f s  trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), outcome.wall_s, options.trace);
  for (const Metric& metric : metrics) {
    std::printf("  %-44s %16.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& error : outcome.errors) {
    std::printf("  FAILED: %s\n", error.c_str());
  }

  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(outcome.input_fingerprint));
  std::string info = "{\"info\": {\"workload\": \"" + options.workload +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"trace\": " + (options.trace ? "true" : "false") +
                     ", \"input_fingerprint\": \"" + fingerprint +
                     "\", \"latency_samples\": " + std::to_string(outcome.latency_us.size()) +
                     ", \"latency_p99_us\": " + Number(outcome.latency_us.Quantile(0.99)) +
                     ", \"inter_seqs\": " + Number(outcome.inter_seqs) +
                     ", \"intra_seqs\": " + Number(outcome.intra_seqs) +
                     ", \"local_seqs\": " + Number(outcome.local_seqs) +
                     ", \"setup_reps\": " + std::to_string(outcome.setup_s.size());
  for (const auto& [key, value] : outcome.info) {
    info += ", \"" + key + "\": " + Number(value);
  }
  if (trace_written) {
    info += ", \"trace_file\": \"" + Escape(trace_out) +
            "\", \"trace_spans\": " + std::to_string(tracer.span_count());
  }
  info += ", \"errors\": [";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    info += (i ? ", \"" : "\"") + Escape(outcome.errors[i]) + "\"";
  }
  info += "]}}";
  std::printf("%s\n", info.c_str());

  if (!outcome.refusals.empty() || !missing.empty()) {
    for (const std::string& refusal : outcome.refusals) {
      std::fprintf(stderr, "perfbench: refusing to report: %s\n", refusal.c_str());
    }
    for (const std::string& layer : missing) {
      std::fprintf(stderr, "perfbench: no samples for layer %s\n", layer.c_str());
    }
    return 3;
  }

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
              Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
