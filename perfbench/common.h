// Pieces every workload shares: the (model, cluster) regime a workload plans
// for, the run outcome main.cc prints, the simulated training step timed
// layer by layer, and the layer probe of the traced run.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"
#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/data/distribution.h"
#include "src/data/sampler.h"
#include "src/model/cost_model.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// What one run measured and checked; main.cc turns it into metrics.
struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // First few failure messages.
  // Conditions that make the numbers meaningless (empty zone, infeasible
  // batch): the run refuses to report when any is set.
  std::vector<std::string> refusals;

  Samples latency_us;  // Per timed operation.
  uint64_t ops = 0;    // Timed operations completed.
  double wall_s = 0;   // Wall time of the timed window.
  double sim_tokens_per_s = 0;
  Samples setup_s;     // One sample per set-up repetition.
  // Peak RSS at the end of the timed window: set-up and the workload itself,
  // not the post-window checks.
  double peak_rss_mb = 0;

  // Mean zone mix of the workload's plans.
  double inter_seqs = 0;
  double intra_seqs = 0;
  double local_seqs = 0;
  uint64_t input_fingerprint = 0;
  std::map<std::string, double> info;  // Diagnostics printed beside the result.

  void Fail(const std::string& message);
};

// A (model, cluster) pair with the fabric and cost model the daemon and the
// trainer derive from it (tensor parallelism 1).
class Regime {
 public:
  Regime(zeppelin::TransformerConfig model, zeppelin::ClusterSpec cluster);
  Regime(const Regime&) = delete;
  Regime& operator=(const Regime&) = delete;

  const zeppelin::TransformerConfig& model() const { return model_; }
  const zeppelin::ClusterSpec& cluster() const { return cluster_; }
  const zeppelin::FabricResources& fabric() const { return fabric_; }
  int world() const { return cluster_.world_size(); }

  // A stateless request for `batch` with default planning options.
  zeppelin::PlanRequest Request(const zeppelin::Batch& batch) const;
  // The memory model's per-GPU token cap for this model and cluster.
  int64_t MemoryCap() const;
  // The certification the plan cache applies before serving: the world and
  // the balance clause at slack 0.25. The library promises no per-rank
  // token ceiling, so the capacity clause stays off; ZoneMix reports plans
  // whose heaviest rank exceeds the memory cap instead.
  zeppelin::PlanVerifyOptions VerifyOptions() const;
  // Refuses batches whose average tokens/GPU reaches the memory model's cap.
  void CheckFeasible(const zeppelin::Batch& batch, RunOutcome* outcome) const;

 private:
  zeppelin::TransformerConfig model_;
  zeppelin::ClusterSpec cluster_;
  zeppelin::FabricResources fabric_;
  zeppelin::CostModel cost_model_;
};

// Running mean of the zone mix over the plans of a workload, and how many
// plans load some rank beyond the memory cap.
struct ZoneMix {
  explicit ZoneMix(int64_t memory_cap) : memory_cap(memory_cap) {}

  int64_t memory_cap;
  double inter = 0;
  double intra = 0;
  double local = 0;
  int plans = 0;
  int over_memory_cap = 0;
  double max_load_over_memory_cap = 0;  // Heaviest rank / memory cap.

  void Add(const zeppelin::PartitionPlan& plan);
  // Writes the means and the memory diagnostics into `outcome` and refuses
  // the run if a zone is empty.
  void Report(RunOutcome* outcome) const;
};

// One simulated training step, Trainer::Run(strategy, batch). When tracing,
// the strategy's Plan and EmitLayer calls are timed by a decorator and the
// simulator runs are the gaps between them (the trainer calls Engine::Run
// right after each EmitLayer), so no library code is instrumented.
zeppelin::IterationResult TimedTrainerStep(const zeppelin::Trainer& trainer,
                                           zeppelin::ZeppelinStrategy& strategy,
                                           const zeppelin::Batch& batch, Tracer& tracer,
                                           int64_t op, int lane);

// Mean simulated tokens/s of Zeppelin's plans for `batches` on `regime`'s
// model and cluster, simulated on two threads: each plan's digest must equal
// `twins` (the digest the workload served for that batch).
double SimulateSample(const Regime& regime, const std::vector<zeppelin::Batch>& batches,
                      const std::vector<uint64_t>& twins, Tracer& tracer,
                      RunOutcome* outcome);

// An input of the layer probe: a request batch and whether the workload's
// generator produced it as a slot permutation of an earlier shape.
struct ProbeItem {
  zeppelin::Batch batch;
  bool permuted = false;
};

// Outcome shares the layer probe measured on its own cache and sessions.
struct ProbeShares {
  double cache_hit_share = 0;      // Items the probe's cache served as sent.
  double delta_applied_share = 0;  // Probe deltas patched, not rebased.
};

// The traced run's layer probe: calls each layer's public function on the
// workload's own inputs, in-process, and records one span per call under
// one operation id per item (see README.md, "Per-layer metrics").
ProbeShares ProbeLayers(const Regime& regime, const std::vector<ProbeItem>& items,
                        const zeppelin::LengthDistribution& dist, uint64_t seed,
                        Tracer& tracer, RunOutcome* outcome);

// Serves `items` through an in-process daemon for `regime` with one client,
// timing PlanClient::Ping and recording the daemon-reported queue wait —
// the probe of the two network-facing layers for workloads without a daemon.
void ProbeDaemon(const Regime& regime, const std::vector<ProbeItem>& items, Tracer& tracer,
                 RunOutcome* outcome);

// Times `generate` as one data.next_batch call.
zeppelin::Batch TimedNextBatch(const std::function<zeppelin::Batch()>& generate,
                               Tracer& tracer, int64_t op, int lane);

// Shuffles `batch`'s slot order in place with a seeded Fisher-Yates pass.
void PermuteSlots(zeppelin::Batch* batch, uint64_t seed);

RunOutcome RunServe(const RunOptions& options, Tracer& tracer);
RunOutcome RunTrainSim(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
