#include "perfbench/common.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_io.h"
#include "src/data/stream.h"
#include "src/model/memory.h"
#include "src/net/plan_client.h"
#include "src/net/planner_daemon.h"
#include "src/net/wire.h"

namespace perfbench {

using namespace zeppelin;

namespace {

constexpr size_t kMaxErrors = 8;
// Deltas each probe item's mini delta session patches.
constexpr int kProbeDeltas = 4;
// The lane (trace thread) of set-up, probes and single-threaded loops.
constexpr int kMainLane = 0;
// Threads (and their first trace lane) of the simulated-throughput sample.
constexpr int kSimThreads = 2;
constexpr int kSimLane = 10;

// Decorates a ZeppelinStrategy so Trainer::Run's calls into it are timed.
class TimedStrategy : public Strategy {
 public:
  TimedStrategy(ZeppelinStrategy& inner, Tracer& tracer, int64_t op, int64_t parent, int lane)
      : inner_(inner), tracer_(tracer), op_(op), parent_(parent), lane_(lane) {}

  std::string name() const override { return inner_.name(); }

  void Plan(const Batch& batch, const CostModel& cost_model,
            const FabricResources& fabric) override {
    ScopedSpan span(tracer_, "core.zeppelin.plan", op_, parent_, lane_);
    inner_.Plan(batch, cost_model, fabric);
  }

  std::vector<TaskId> EmitLayer(TaskGraph& graph, Direction direction) override {
    const bool forward = direction == Direction::kForward;
    const double start = NowUs();
    if (!forward) {
      // The trainer ran the forward graph between the two EmitLayer calls.
      EngineRun("sim.engine.run.fwd", start);
    }
    std::vector<TaskId> done = inner_.EmitLayer(graph, direction);
    last_emit_end_ = NowUs();
    tracer_.AddSpan(forward ? "core.attention_engine.emit.fwd" : "core.attention_engine.emit.bwd",
                    start, last_emit_end_, op_, parent_, lane_, /*sample=*/false);
    emit_us_ += last_emit_end_ - start;
    graph_tasks_ += graph.size();
    return done;
  }

  std::vector<int64_t> LinearTokensPerRank() const override {
    return inner_.LinearTokensPerRank();
  }
  std::shared_ptr<const PartitionPlan> plan_handle() const override {
    return inner_.plan_handle();
  }

  // Closes the backward simulator run (it ends when Trainer::Run returns)
  // and records the per-step totals.
  void Finish(double end_us) {
    EngineRun("sim.engine.run.bwd", end_us);
    tracer_.AddSample("core.attention_engine.emit", emit_us_);
    tracer_.AddSample("sim.engine.run", engine_us_);
    tracer_.AddSample("sim.graph_tasks", static_cast<double>(graph_tasks_));
  }

 private:
  void EngineRun(const char* name, double end_us) {
    tracer_.AddSpan(name, last_emit_end_, end_us, op_, parent_, lane_, /*sample=*/false);
    engine_us_ += end_us - last_emit_end_;
  }

  ZeppelinStrategy& inner_;
  Tracer& tracer_;
  int64_t op_;
  int64_t parent_;
  int lane_;
  double last_emit_end_ = 0;
  double emit_us_ = 0;
  double engine_us_ = 0;
  int64_t graph_tasks_ = 0;
};

}  // namespace

void RunOutcome::Fail(const std::string& message) {
  ++failed;
  if (errors.size() < kMaxErrors) {
    errors.push_back(message);
  }
}

Regime::Regime(TransformerConfig model, ClusterSpec cluster)
    : model_(std::move(model)),
      cluster_(ApplyTensorParallelism(cluster, 1)),
      fabric_(cluster_),
      cost_model_(model_, cluster_, 1) {}

PlanRequest Regime::Request(const Batch& batch) const {
  PlanRequest request;
  request.batch = &batch;
  request.cost_model = &cost_model_;
  request.fabric = &fabric_;
  return request;
}

int64_t Regime::MemoryCap() const { return TokenCapacity(model_, cluster_, world()); }

PlanVerifyOptions Regime::VerifyOptions() const {
  PlanVerifyOptions options;
  options.world = world();
  options.eps = 0.25;
  return options;
}

void Regime::CheckFeasible(const Batch& batch, RunOutcome* outcome) const {
  const int64_t cap = MemoryCap();
  const double average = static_cast<double>(batch.total_tokens()) / world();
  if (average >= static_cast<double>(cap)) {
    outcome->refusals.push_back("batch averages " + std::to_string(average) +
                                " tokens/GPU, at or above the memory cap " + std::to_string(cap));
  }
}

void ZoneMix::Add(const PartitionPlan& plan) {
  inter += static_cast<double>(plan.inter_node.size());
  intra += static_cast<double>(plan.intra_node.size());
  local += static_cast<double>(plan.local.size());
  ++plans;
  int64_t heaviest = 0;
  for (int64_t tokens : plan.tokens_per_rank) {
    heaviest = std::max(heaviest, tokens);
  }
  const double ratio = static_cast<double>(heaviest) / static_cast<double>(memory_cap);
  over_memory_cap += ratio > 1 ? 1 : 0;
  max_load_over_memory_cap = std::max(max_load_over_memory_cap, ratio);
}

void ZoneMix::Report(RunOutcome* outcome) const {
  const double n = plans > 0 ? plans : 1;
  outcome->inter_seqs = inter / n;
  outcome->intra_seqs = intra / n;
  outcome->local_seqs = local / n;
  outcome->info["plans_over_memory_cap"] = over_memory_cap;
  outcome->info["plans_checked_against_memory_cap"] = plans;
  outcome->info["max_load_over_memory_cap"] = max_load_over_memory_cap;
  if (plans == 0 || inter == 0 || intra == 0 || local == 0) {
    outcome->refusals.push_back("a zone is empty: mean inter/intra/local = " +
                                std::to_string(outcome->inter_seqs) + "/" +
                                std::to_string(outcome->intra_seqs) + "/" +
                                std::to_string(outcome->local_seqs));
  }
}

IterationResult TimedTrainerStep(const Trainer& trainer, ZeppelinStrategy& strategy,
                                 const Batch& batch, Tracer& tracer, int64_t op, int lane) {
  if (!tracer.enabled()) {
    return trainer.Run(strategy, batch);
  }
  const int64_t root = tracer.NewSpanId();
  const double start = NowUs();
  TimedStrategy timed(strategy, tracer, op, root, lane);
  IterationResult result = trainer.Run(timed, batch);
  const double end = NowUs();
  timed.Finish(end);
  tracer.AddSpan("op.train_step", start, end, op, -1, lane, /*sample=*/false, root);
  tracer.AddSample("sim.attention_compute_us", result.attention_compute_us);
  tracer.AddSample("sim.linear_compute_us", result.linear_compute_us);
  tracer.AddSample("sim.intra_comm_us", result.intra_comm_us);
  tracer.AddSample("sim.inter_comm_us", result.inter_comm_us);
  tracer.AddSample("sim.remap_comm_us", result.remap_comm_us);
  tracer.AddSample("sim.nic_utilization", result.nic_utilization);
  return result;
}

double SimulateSample(const Regime& regime, const std::vector<Batch>& batches,
                      const std::vector<uint64_t>& twins, Tracer& tracer, RunOutcome* outcome) {
  // Batches are split round-robin over kSimThreads threads, each with its
  // own trainer and strategy; throughputs are deterministic per batch.
  std::vector<double> throughput(batches.size(), 0);
  std::vector<std::string> failures(kSimThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSimThreads; ++t) {
    threads.emplace_back([&, t] {
      const Trainer trainer(regime.model(), regime.cluster());
      ZeppelinStrategy strategy;
      for (size_t i = t; i < batches.size(); i += kSimThreads) {
        throughput[i] = TimedTrainerStep(trainer, strategy, batches[i], tracer,
                                         tracer.NextOpId(), kSimLane + t)
                            .tokens_per_second;
        if (strategy.plan_handle()->StateDigest() != twins[i] && failures[t].empty()) {
          failures[t] = "simulated plan " + std::to_string(i) + " differs from the served plan";
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  outcome->attempted += batches.size();
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      outcome->Fail(failure);
    }
  }
  double sum = 0;
  for (double tps : throughput) {
    sum += tps;
  }
  return batches.empty() ? 0 : sum / static_cast<double>(batches.size());
}

Batch TimedNextBatch(const std::function<Batch()>& generate, Tracer& tracer, int64_t op,
                     int lane) {
  ScopedSpan span(tracer, "data.next_batch", op, -1, lane);
  return generate();
}

void PermuteSlots(Batch* batch, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = batch->seq_lens.size(); i > 1; --i) {
    std::swap(batch->seq_lens[i - 1], batch->seq_lens[rng.NextBounded(i)]);
  }
}

ProbeShares ProbeLayers(const Regime& regime, const std::vector<ProbeItem>& items,
                        const LengthDistribution& dist, uint64_t seed, Tracer& tracer,
                        RunOutcome* outcome) {
  PlannerService service;
  PlanCache cache(&service, PlanCacheOptions{.near_match = false});
  uint64_t natural_hits = 0;
  uint64_t deltas = 0;
  uint64_t applied = 0;
  const int lane = kMainLane;

  for (size_t i = 0; i < items.size(); ++i) {
    const Batch& batch = items[i].batch;
    const int64_t op = tracer.NextOpId();
    const int64_t root = tracer.NewSpanId();
    const double op_start = NowUs();
    const PlanRequest request = regime.Request(batch);
    auto fail = [&](const std::string& what) {
      outcome->Fail("probe item " + std::to_string(i) + ": " + what);
    };

    {
      ScopedSpan span(tracer, "core.plan_cache.key", op, root, lane);
      ComputePlanCacheKey(request);
    }
    // Lookup as the generator produced the request; on a miss, plan and
    // insert, then serve the same shape verbatim and permuted.
    const double lookup_start = NowUs();
    std::optional<PlanResponse> served = cache.TryServe(request);
    const char* lookup_name =
        items[i].permuted ? "core.plan_cache.lookup_permuted" : "core.plan_cache.lookup_exact";
    if (served) {
      ++natural_hits;
      tracer.AddSpan(lookup_name, lookup_start, NowUs(), op, root, lane);
    } else {
      tracer.AddSpan("core.plan_cache.lookup_miss", lookup_start, NowUs(), op, root, lane,
                     /*sample=*/false);
      {
        ScopedSpan span(tracer, "core.plan_cache.insert", op, root, lane);
        served = cache.PlanAndInsert(request);
      }
      std::optional<PlanResponse> exact;
      {
        ScopedSpan span(tracer, "core.plan_cache.lookup_exact", op, root, lane);
        exact = cache.TryServe(request);
      }
      Batch permuted = batch;
      PermuteSlots(&permuted, seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
      std::optional<PlanResponse> remapped;
      {
        ScopedSpan span(tracer, "core.plan_cache.lookup_permuted", op, root, lane);
        remapped = cache.TryServe(regime.Request(permuted));
      }
      if (!exact || !remapped || !remapped->stats.verified) {
        fail("cache did not serve an inserted shape");
      }
    }

    PlanResponse fresh;
    {
      ScopedSpan span(tracer, "core.plan_service.plan", op, root, lane);
      fresh = service.Plan(request);
    }
    const PartitionPlan& plan = *fresh.plan;
    if (served->digest != fresh.digest) {
      fail("cached plan digest differs from a fresh plan's");
    }
    uint64_t digest = 0;
    {
      ScopedSpan span(tracer, "core.partitioner.digest", op, root, lane);
      digest = plan.StateDigest();
    }
    PlanVerifyResult verdict;
    {
      ScopedSpan span(tracer, "core.plan_verify.verify", op, root, lane);
      verdict = VerifyPlan(plan, batch, regime.fabric(),
                           regime.VerifyOptions());
    }
    if (!verdict.ok() || digest != fresh.digest) {
      fail("plan failed certification: " + verdict.message);
    }

    std::string bytes;
    {
      ScopedSpan span(tracer, "core.plan_io.serialize", op, root, lane);
      bytes = SerializePlan(plan);
    }
    tracer.AddSample("core.plan_io.plan_bytes", static_cast<double>(bytes.size()));
    PartitionPlan decoded;
    PlanIoResult parsed;
    {
      ScopedSpan span(tracer, "core.plan_io.parse", op, root, lane);
      parsed = ParsePlan(bytes, &decoded, regime.world());
    }
    if (!parsed.ok()) {
      fail("ParsePlan rejected a serialized plan: " + parsed.message);
    }

    net::WireRequest wire_request;
    wire_request.request_id = i + 1;
    wire_request.batch = batch;
    std::string request_payload;
    {
      ScopedSpan span(tracer, "net.wire.encode_request", op, root, lane);
      request_payload = net::EncodeRequest(wire_request);
    }
    tracer.AddSample("net.wire.request_bytes", static_cast<double>(request_payload.size()));
    net::WireRequest request_back;
    std::string error;
    net::WireStatus request_status;
    {
      ScopedSpan span(tracer, "net.wire.parse_request", op, root, lane);
      request_status = net::ParseRequest(request_payload, &request_back, &error);
    }
    net::WireResponse wire_response;
    wire_response.request_id = wire_request.request_id;
    wire_response.stats = fresh.stats;
    wire_response.digest = fresh.digest;
    wire_response.plan_bytes = std::move(bytes);
    std::string response_payload;
    {
      ScopedSpan span(tracer, "net.wire.encode_response", op, root, lane);
      response_payload = net::EncodeResponse(wire_response);
    }
    net::WireResponse response_back;
    net::WireStatus response_status;
    {
      ScopedSpan span(tracer, "net.wire.parse_response", op, root, lane);
      response_status = net::ParseResponse(net::FrameType::kResponse, response_payload,
                                           &response_back, &error);
    }
    if (request_status != net::WireStatus::kOk || response_status != net::WireStatus::kOk ||
        request_back.batch.seq_lens != batch.seq_lens ||
        response_back.digest != fresh.digest) {
      fail("wire round trip failed: " + error);
    }

    // A short delta session on this batch: full base plan, then 1%-churn
    // patches from the same generator the streaming workload uses.
    const std::string stream_id = "probe-" + std::to_string(i);
    PlanRequest session = request;
    session.stream_id = stream_id;
    {
      const double base_start = NowUs();
      service.Plan(session);
      tracer.AddSpan("core.delta_planner.base", base_start, NowUs(), op, root, lane,
                     /*sample=*/false);
    }
    WorkloadStream stream(dist, batch, StreamOptions{.stream_id = stream_id},
                          seed ^ (0xc2b2ae3d27d4eb4full * (i + 1)));
    for (int d = 0; d < kProbeDeltas; ++d) {
      const BatchDelta delta = stream.Next();
      session.batch = &stream.batch();
      session.delta = &delta;
      PlanResponse patched;
      {
        ScopedSpan span(tracer, "core.delta_planner.patch", op, root, lane);
        patched = service.Plan(session);
      }
      ++deltas;
      if (patched.stats.delta_outcome == DeltaOutcome::kApplied) {
        ++applied;
      }
      const PlanVerifyResult patched_verdict =
          VerifyPlan(*patched.plan, stream.batch(), regime.fabric(), regime.VerifyOptions());
      if (!patched_verdict.ok()) {
        fail("patched plan failed certification: " + patched_verdict.message);
      }
    }
    service.CloseSession(stream_id);
    tracer.AddSpan("probe", op_start, NowUs(), op, -1, lane, /*sample=*/false, root);
  }
  ProbeShares shares;
  if (!items.empty()) {
    shares.cache_hit_share =
        static_cast<double>(natural_hits) / static_cast<double>(items.size());
    shares.delta_applied_share = static_cast<double>(applied) / static_cast<double>(deltas);
  }
  return shares;
}

void ProbeDaemon(const Regime& regime, const std::vector<ProbeItem>& items, Tracer& tracer,
                 RunOutcome* outcome) {
  net::PlannerDaemon daemon(regime.model(), regime.cluster());
  std::string error;
  if (!daemon.Start(&error)) {
    outcome->Fail("probe daemon failed to start: " + error);
    return;
  }
  net::PlanClient client("127.0.0.1", daemon.port());
  PlannerService twin;
  for (const ProbeItem& item : items) {
    const int64_t op = tracer.NextOpId();
    {
      ScopedSpan span(tracer, "net.plan_client.ping", op, -1, kMainLane);
      if (!client.Ping().ok()) {
        outcome->Fail("probe ping failed");
      }
    }
    net::WireRequest request;
    request.batch = item.batch;
    const double start = NowUs();
    const net::PlanClientResult result = client.Plan(std::move(request));
    tracer.AddSpan("net.plan_client.plan", start, NowUs(), op, -1, kMainLane, /*sample=*/false);
    if (!result.ok() || result.digest != twin.Plan(regime.Request(item.batch)).digest) {
      outcome->Fail("probe daemon served a wrong plan: " + result.message);
      continue;
    }
    if (result.stats.cache_outcome != CacheOutcome::kHit) {
      tracer.AddSample("net.planner_daemon.queue_wait", result.queue_wait_us);
    }
  }
  client.Close();
  daemon.Stop();
}

}  // namespace perfbench
