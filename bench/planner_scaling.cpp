// Planner-scaling bench: per-iteration Plan() cost of the hierarchical
// partitioner — the reference greedy vs the sharded production engine.
//
// The paper's premise (§3.1) is that two-level sequence partitioning is cheap
// enough to run every iteration on the global batch. This harness sweeps the
// batch size S and the cluster size P over the Table 2 length distributions
// and times the partitioning step per engine: the production engine through
// ZeppelinStrategy::Plan() (surfaced as partition_time_us), and the reference
// linear-scan greedy ("naive", the seed algorithm, kept as the test oracle)
// through SequencePartitioner directly at the capacity the strategy derived.
// Both plans are verified bit-identical at every point — the determinism
// contract of partitioner.h.
//
// Each point also times the *materialization* cost of the flat plan layout:
// building a fresh plan's ring storage (headers + rank arena) from the
// production plan, which is a fixed three allocations plus bulk copies
// regardless of ring count — what any plan copy pays.
//
// Output: a human-readable table plus machine-readable BENCH_planner.json:
//   { "bench": "planner_scaling", "model": ..., "cluster": ...,
//     "quick": bool, "reps": int,
//     "points": [ { "dataset", "num_seqs", "gpus", "total_tokens",
//                   "naive_partition_time_us", "partition_time_us",
//                   "speedup", "materialize_time_us", "plans_identical" } ],
//     "all_plans_identical": bool }
// Times are the median over `reps` interleaved repetitions after one untimed
// warmup (noise-robust and fair to both arms). speedup = naive / production.
#include <algorithm>
#include <chrono>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/core/partitioner.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

int main(int argc, char** argv) {
  using namespace zeppelin;
  const bool quick = bench::QuickMode(argc, argv);
  const int reps = quick ? 1 : 7;
  const std::vector<int> seq_counts = quick ? std::vector<int>{1024}
                                            : std::vector<int>{1024, 4096, 16384, 65536};
  const std::vector<int> gpu_counts = quick ? std::vector<int>{16, 64}
                                            : std::vector<int>{16, 64, 256, 512};

  bench::PrintHeader("Planner scaling — naive vs production engine (3B, Cluster A)");
  Table table({"dataset", "seqs", "GPUs", "naive us", "plan us", "speedup", "mat us",
               "identical"});

  bench::JsonEmitter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("planner_scaling");
  json.Key("model");
  json.Value("llama3b");
  json.Key("cluster");
  json.Value("A");
  json.Key("quick");
  json.Value(quick);
  json.Key("reps");
  json.Value(reps);
  json.Key("points");
  json.BeginArray();

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  bool all_identical = true;
  for (const auto& dist : EvaluationDatasets()) {
    for (int num_seqs : seq_counts) {
      for (int gpus : gpu_counts) {
        const Trainer trainer(MakeLlama3B(), MakeClusterA(gpus / 8));

        // Exactly `num_seqs` sequences per batch (the sweep axis), lengths
        // drawn from the dataset histogram. The strategy derives its token
        // capacity from the batch, so any S fits any P.
        Rng rng(0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(num_seqs) << 20) ^
                static_cast<uint64_t>(gpus));
        Batch batch;
        batch.seq_lens.reserve(num_seqs);
        for (int i = 0; i < num_seqs; ++i) {
          batch.seq_lens.push_back(dist.Sample(rng));
        }

        ZeppelinStrategy production;
        production.Plan(batch, trainer.cost_model(), trainer.fabric());
        SequencePartitioner naive(
            trainer.fabric().cluster(),
            {.token_capacity = production.last_plan_stats().token_capacity, .fast_path = false});
        PlannerScratch naive_scratch;
        PartitionPlan naive_plan;

        using clock = std::chrono::steady_clock;
        std::vector<double> naive_times;
        std::vector<double> times;
        for (int r = 0; r < reps + 1; ++r) {
          const auto t0 = clock::now();
          naive.Partition(batch, &naive_scratch, &naive_plan);
          const auto t1 = clock::now();
          production.Plan(batch, trainer.cost_model(), trainer.fabric());
          if (r == 0) {
            continue;  // Warmup: both arms grow their buffers untimed.
          }
          naive_times.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
          times.push_back(production.partition_time_us());
        }
        const double naive_us = median(naive_times);
        const double plan_us = median(times);
        const double speedup = plan_us > 0 ? naive_us / plan_us : 0;
        const bool point_identical = naive_plan == production.partition_plan();
        all_identical = all_identical && point_identical;

        // Materialization: a from-scratch copy of the plan's ring storage.
        const PartitionPlan& src = production.partition_plan();
        std::vector<double> mat_times;
        [[maybe_unused]] static volatile size_t sink;  // Keeps materializations observable.
        for (int r = 0; r < reps + 1; ++r) {
          const auto t0 = clock::now();
          {
            PartitionPlan fresh;
            fresh.inter_node = src.inter_node;
            fresh.intra_node = src.intra_node;
            fresh.rank_arena = src.rank_arena;
            sink = fresh.rank_arena.size();
          }
          const auto t1 = clock::now();
          if (r > 0) {
            mat_times.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
          }
        }
        const double mat_us = median(mat_times);

        table.AddRow({dist.name(), Table::Cell(static_cast<int64_t>(num_seqs)),
                      Table::Cell(static_cast<int64_t>(gpus)), Table::Cell(naive_us, 1),
                      Table::Cell(plan_us, 1), Table::Cell(speedup, 2) + "x",
                      Table::Cell(mat_us, 1), point_identical ? "yes" : "NO"});

        json.BeginObject();
        json.Key("dataset");
        json.Value(dist.name());
        json.Key("num_seqs");
        json.Value(num_seqs);
        json.Key("gpus");
        json.Value(gpus);
        json.Key("total_tokens");
        json.Value(batch.total_tokens());
        json.Key("naive_partition_time_us");
        json.Value(naive_us);
        json.Key("partition_time_us");
        json.Value(plan_us);
        json.Key("speedup");
        json.Value(speedup);
        json.Key("materialize_time_us");
        json.Value(mat_us);
        json.Key("plans_identical");
        json.Value(point_identical);
        json.EndObject();
      }
    }
  }
  json.EndArray();
  json.Key("all_plans_identical");
  json.Value(all_identical);
  json.EndObject();

  table.Print();
  const std::string out_path = "BENCH_planner.json";
  if (json.WriteFile(out_path)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nERROR: could not write %s\n", out_path.c_str());
    return 1;
  }
  if (!all_identical) {
    std::printf("ERROR: the production plan diverged from the naive reference\n");
    return 1;
  }
  std::printf(
      "Expected shape: the production/naive speedup grows with S and P\n"
      "(round-batched packing and incremental restarts against per-sequence\n"
      "scans and whole-stage replays).\n");
  return 0;
}
