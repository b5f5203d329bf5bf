// Tests for the schedule validator itself, plus randomized fuzzing of the
// discrete-event engine: every schedule the engine produces — over random
// DAGs, random resource sets, and every strategy's real graphs — must be
// legal (dependencies honored, resources exclusive, FIFO respected).
#include <gtest/gtest.h>

#include <string>

#include "src/baselines/hybrid_dp.h"
#include "src/baselines/llama_cp.h"
#include "src/baselines/te_cp.h"
#include "src/common/rng.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/sim/validate.h"

namespace zeppelin {
namespace {

// Task label "<prefix><i>", built by appends (GCC 12 flags
// `"literal" + std::string` with a false -Wrestrict).
std::string Label(char prefix, int i) {
  std::string label(1, prefix);
  label += std::to_string(i);
  return label;
}

TEST(ValidateTest, AcceptsLegalSchedule) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  const TaskId a =
      g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric.ComputeLane(0), 3.0, TaskCategory::kAttentionCompute, {a}, "b", 0);
  const Engine engine(fabric);
  const SimResult r = engine.Run(g);
  EXPECT_TRUE(IsLegalSchedule(g, r, fabric.num_resources()));
}

TEST(ValidateTest, DetectsDependencyViolation) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  const TaskId a =
      g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric.ComputeLane(1), 3.0, TaskCategory::kAttentionCompute, {a}, "b", 1);
  const Engine engine(fabric);
  SimResult r = engine.Run(g);
  r.start_us[1] = 0.0;  // Forge: b starts before a finishes.
  r.finish_us[1] = 3.0;
  const auto violations = ValidateSchedule(g, r, fabric.num_resources());
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].description.find("dependency"), std::string::npos);
}

TEST(ValidateTest, DetectsResourceOverlap) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "b", 0);
  const Engine engine(fabric);
  SimResult r = engine.Run(g);
  r.start_us[1] = 2.0;  // Forge overlap on the shared lane.
  r.finish_us[1] = 7.0;
  const auto violations = ValidateSchedule(g, r, fabric.num_resources());
  ASSERT_FALSE(violations.empty());
}

TEST(ValidateTest, DetectsMissingTask) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  const Engine engine(fabric);
  SimResult r = engine.Run(g);
  r.start_us[0] = -1;
  const auto violations = ValidateSchedule(g, r, fabric.num_resources());
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].description.find("never ran"), std::string::npos);
}

// Random-DAG fuzz: arbitrary layered dependency structure over a mix of
// compute lanes and transfer paths.
class EngineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzzTest, RandomDagsProduceLegalSchedules) {
  Rng rng(GetParam());
  const int nodes = 1 + static_cast<int>(rng.NextBounded(3));
  const ClusterSpec cluster = MakeClusterA(nodes);
  const FabricResources fabric(cluster);
  TaskGraph g;

  const int num_tasks = 60 + static_cast<int>(rng.NextBounded(120));
  for (int i = 0; i < num_tasks; ++i) {
    // Up to 3 random backward dependencies.
    std::vector<TaskId> deps;
    const int ndeps = static_cast<int>(rng.NextBounded(4));
    for (int d = 0; d < ndeps && g.size() > 0; ++d) {
      deps.push_back(static_cast<TaskId>(rng.NextBounded(g.size())));
    }
    const int kind = static_cast<int>(rng.NextBounded(3));
    if (kind == 0) {
      const int gpu = static_cast<int>(rng.NextBounded(cluster.world_size()));
      g.AddCompute(fabric.ComputeLane(gpu), 1.0 + static_cast<double>(rng.NextBounded(50)),
                   TaskCategory::kAttentionCompute, std::move(deps), Label('c', i), gpu);
    } else if (kind == 1) {
      const int src = static_cast<int>(rng.NextBounded(cluster.world_size()));
      const int dst = static_cast<int>(rng.NextBounded(cluster.world_size()));
      g.AddTransfer(fabric.Resolve(src, dst), 1 + static_cast<int64_t>(rng.NextBounded(1 << 22)),
                    TaskCategory::kIntraComm, std::move(deps), Label('x', i), src);
    } else {
      g.AddBarrier(std::move(deps), Label('b', i));
    }
  }

  const Engine engine(fabric);
  const SimResult result = engine.Run(g);
  const auto violations = ValidateSchedule(g, result, fabric.num_resources());
  for (const auto& v : violations) {
    ADD_FAILURE() << v.description;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest, ::testing::Range(1, 31));

// Real strategy graphs: every strategy's emitted layer must simulate to a
// legal schedule on every dataset.
class StrategyScheduleTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyScheduleTest, AllStrategyGraphsAreLegal) {
  const int seed = GetParam();
  const ClusterSpec cluster = MakeClusterA(2);
  const FabricResources fabric(cluster);
  const CostModel cost_model(MakeLlama7B(), cluster);
  const auto datasets = EvaluationDatasets();
  BatchSampler sampler(datasets[seed % datasets.size()], 65536, seed);
  const Batch batch = sampler.NextBatch();

  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(std::make_unique<TeCpStrategy>());
  strategies.push_back(std::make_unique<TeCpStrategy>(TeCpOptions{.routing = {.enabled = true}}));
  strategies.push_back(std::make_unique<LlamaCpStrategy>());
  strategies.push_back(std::make_unique<HybridDpStrategy>());
  strategies.push_back(std::make_unique<ZeppelinStrategy>());
  ZeppelinOptions zone_aware;
  zone_aware.zone_aware_thresholds = true;
  strategies.push_back(std::make_unique<ZeppelinStrategy>(zone_aware));

  const Engine engine(fabric);
  for (auto& strategy : strategies) {
    strategy->Plan(batch, cost_model, fabric);
    for (const Direction d : {Direction::kForward, Direction::kBackward}) {
      TaskGraph g;
      strategy->EmitLayer(g, d);
      const SimResult result = engine.Run(g);
      const auto violations = ValidateSchedule(g, result, fabric.num_resources());
      for (const auto& v : violations) {
        ADD_FAILURE() << strategy->name() << ": " << v.description;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyScheduleTest, ::testing::Range(1, 10));

}  // namespace
}  // namespace zeppelin
