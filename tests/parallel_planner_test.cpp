// Sharded planner engine: the determinism contract and the bulk packing
// kernel.
//
// The contract (partitioner.h): plans are byte-identical between the naive
// reference and the sharded production engine — including batches that force
// overflow restarts and degenerate clusters, and on repeated plans through
// one reused scratch. These tests pin the contract, the GreedyPacker's
// placement-for-placement equivalence with LoadTracker::pack_min, and the
// division-free Alg. 2 helpers against the division formulas they replace.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/greedy_packer.h"
#include "src/common/load_tracker.h"
#include "src/common/rng.h"
#include "src/core/partitioner.h"
#include "src/core/partitioner_internal.h"
#include "src/core/plan_service.h"
#include "src/data/datasets.h"
#include "src/data/mixture.h"
#include "src/data/sampler.h"
#include "src/model/cost_model.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace {

// --- GreedyPacker vs LoadTracker -----------------------------------------------

struct PackTrace {
  std::vector<int> buckets;
  int stop = 0;
};

PackTrace ReferencePack(const std::vector<int64_t>& loads, const std::vector<int64_t>& weights,
                        int64_t cap) {
  LoadTracker tracker;
  tracker.Assign(loads);
  PackTrace trace;
  for (size_t i = 0; i < weights.size(); ++i) {
    const int bucket = tracker.pack_min(weights[i], cap);
    if (bucket < 0) {
      trace.stop = static_cast<int>(i);
      return trace;
    }
    trace.buckets.push_back(bucket);
  }
  trace.stop = static_cast<int>(weights.size());
  return trace;
}

PackTrace PackerPack(const std::vector<int64_t>& loads, const std::vector<int64_t>& weights,
                     int64_t cap, GreedyPacker* packer) {
  packer->Assign(loads);
  PackTrace trace;
  trace.buckets.resize(weights.size(), -1);
  trace.stop = packer->Pack(
      static_cast<int>(weights.size()), cap, [&](int i) { return weights[i]; },
      [&](int i, int bucket, int64_t w) {
        EXPECT_EQ(w, weights[i]);
        trace.buckets[i] = bucket;
      });
  trace.buckets.resize(trace.stop);
  return trace;
}

// Random non-increasing weight streams with heavy duplication (uniform runs),
// random starting loads, and caps from "never binds" to "binds early".
TEST(GreedyPackerTest, MatchesLoadTrackerOnRandomStreams) {
  Rng rng(20260728);
  for (int n : {1, 2, 7, 8, 64, 100}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<int64_t> loads(n);
      for (int64_t& l : loads) {
        l = static_cast<int64_t>(rng.NextBounded(5000));
      }
      const int count = 1 + static_cast<int>(rng.NextBounded(2000));
      std::vector<int64_t> weights(count);
      int64_t w = 64 * (1 + static_cast<int64_t>(rng.NextBounded(512)));
      int64_t total = 0;
      for (int i = 0; i < count; ++i) {
        // Decay in runs: ~30% chance to drop, quantized to 64.
        if (rng.NextBounded(10) < 3 && w > 64) {
          w -= 64 * (1 + static_cast<int64_t>(rng.NextBounded(4)));
          w = std::max<int64_t>(w, 64);
        }
        weights[i] = w;
        total += w;
      }
      for (int cap_case = 0; cap_case < 3; ++cap_case) {
        int64_t cap = INT64_MAX / 4;
        if (cap_case == 1) {
          cap = total / n + weights[0];  // Tight: may or may not bind.
        } else if (cap_case == 2) {
          cap = total / (2 * n) + weights[0];  // Binds partway through.
        }
        GreedyPacker packer;
        const PackTrace ref = ReferencePack(loads, weights, cap);
        const PackTrace got = PackerPack(loads, weights, cap, &packer);
        ASSERT_EQ(got.stop, ref.stop) << "n=" << n << " trial=" << trial << " cap=" << cap_case;
        ASSERT_EQ(got.buckets, ref.buckets)
            << "n=" << n << " trial=" << trial << " cap=" << cap_case;
        if (ref.stop == count) {
          // Final loads must match the reference too.
          LoadTracker tracker;
          tracker.Assign(loads);
          for (int i = 0; i < count; ++i) {
            tracker.add(ref.buckets[i], weights[i]);
          }
          std::vector<int64_t> got_loads;
          packer.Loads(&got_loads);
          for (int b = 0; b < n; ++b) {
            ASSERT_EQ(got_loads[b], tracker.load(b)) << "bucket " << b;
          }
        }
      }
    }
  }
}

// Valley regime: a few huge weights spread the loads far beyond the following
// tiny weights, forcing the round condition to fail and the packer into its
// heap fallback — placements must still match exactly.
TEST(GreedyPackerTest, MatchesLoadTrackerInValleyRegime) {
  for (int n : {8, 64}) {
    std::vector<int64_t> loads(n, 0);
    std::vector<int64_t> weights;
    for (int i = 0; i < n / 2; ++i) {
      weights.push_back(1 << 20);  // Cliff: half the buckets get huge loads.
    }
    for (int i = 0; i < 4000; ++i) {
      weights.push_back(64);  // Tiny items must fill the valleys one by one.
    }
    GreedyPacker packer;
    const PackTrace ref = ReferencePack(loads, weights, INT64_MAX / 4);
    const PackTrace got = PackerPack(loads, weights, INT64_MAX / 4, &packer);
    ASSERT_EQ(got.stop, ref.stop);
    ASSERT_EQ(got.buckets, ref.buckets) << "n=" << n;
  }
}

// Bulk behavior: on a quantized descending stream the op counter must stay
// near the item count — a per-item O(log n) walk would show up as a multiple.
TEST(GreedyPackerTest, BulkCommitsKeepOpsNearItemCount) {
  const int n = 64;
  const int count = 65536;
  Rng rng(7);
  std::vector<int64_t> weights(count);
  for (int i = 0; i < count; ++i) {
    weights[i] = 64 * (1 + static_cast<int64_t>(rng.NextBounded(4096)));
  }
  std::sort(weights.begin(), weights.end(), std::greater<>());
  GreedyPacker packer;
  packer.Assign(std::vector<int64_t>(n, 0));
  packer.ResetOps();
  const int stop = packer.Pack(count, INT64_MAX / 4, [&](int i) { return weights[i]; },
                               [](int, int, int64_t) {});
  ASSERT_EQ(stop, count);
  EXPECT_LE(packer.ops(), static_cast<int64_t>(8) * count)
      << "round batching degraded to per-item work";
}

// --- Division-free Alg. 2 helpers vs their division formulas -----------------

// The chunk spreading as it was written before it went division-free: the
// share of a chunk q*m + r on device d is q + floor((d+1)r/m) - floor(dr/m).
std::vector<int64_t> DivisionChunkBase(const std::vector<int64_t>& whole,
                                       const std::vector<int64_t>& rem, int node, int stride,
                                       int m) {
  std::vector<int64_t> out(m);
  const int64_t* row = rem.data() + static_cast<size_t>(node) * stride;
  for (int d = 0; d < m; ++d) {
    int64_t share = whole[node];
    for (int r = 1; r < m; ++r) {
      share += row[r] * ((d + 1) * r / m - d * r / m);
    }
    out[d] = share;
  }
  return out;
}

// Every divisor m in 1..16 at strides from m up (the delta re-pack expands
// m alive devices out of rows p wide), on empty, sparse, dense and
// large-count remainder rows, on a node past the first so the row offset
// counts too.
TEST(ChunkSpreadTest, ExpandChunkBaseMatchesTheDivisionFormula) {
  Rng rng(0xc4u);
  std::vector<int64_t> out;
  for (int m = 1; m <= 16; ++m) {
    for (int stride : {m, m + 1, 16, 24}) {
      if (stride < m) {
        continue;
      }
      for (int shape = 0; shape < 4; ++shape) {
        for (int trial = 0; trial < 8; ++trial) {
          const int nodes = 3;
          const int node = 1 + static_cast<int>(rng.NextBounded(nodes - 1));
          std::vector<int64_t> whole(nodes);
          std::vector<int64_t> rem(static_cast<size_t>(nodes) * stride, 0);
          for (int64_t& w : whole) {
            w = static_cast<int64_t>(rng.NextBounded(1 << 20));
          }
          int64_t* row = rem.data() + static_cast<size_t>(node) * stride;
          if (shape == 1 && m > 1) {  // Sparse: one non-empty bucket.
            row[1 + rng.NextBounded(m - 1)] = 1 + static_cast<int64_t>(rng.NextBounded(4));
          } else if (shape == 2) {  // Dense: every bucket, small counts.
            for (int r = 0; r < m; ++r) {
              row[r] = 1 + static_cast<int64_t>(rng.NextBounded(64));
            }
          } else if (shape == 3) {  // Large counts.
            for (int r = 0; r < m; ++r) {
              row[r] = static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 40));
            }
          }
          // Neighbouring rows must not leak into this one.
          for (int r = 0; r < stride; ++r) {
            rem[static_cast<size_t>(node - 1) * stride + r] = 1000 + r;
          }
          planner_internal::ExpandChunkBase(whole, rem, node, stride, m, &out);
          ASSERT_EQ(out, DivisionChunkBase(whole, rem, node, stride, m))
              << "m=" << m << " stride=" << stride << " shape=" << shape << " trial=" << trial;
        }
      }
    }
  }
}

// Fragment shares against len*(f+1)/F - len*f/F and devices against
// (cursor + f) % p, for every fragment count and cursor up to p = 16.
TEST(ChunkSpreadTest, ForEachFragmentMatchesTheDivisionFormula) {
  const int64_t lens[] = {0, 1, 7, 63, 64, 1000, 4097, 65536 + 13, (int64_t{1} << 43) - 1};
  for (int p = 1; p <= 16; ++p) {
    for (int fragments = 1; fragments <= p; ++fragments) {
      for (int cursor = 0; cursor < p; ++cursor) {
        for (int64_t len : lens) {
          int calls = 0;
          planner_internal::ForEachFragment(
              len, fragments, cursor, p, [&](int f, int device, int64_t share) {
                ASSERT_EQ(f, calls);
                EXPECT_EQ(device, (cursor + f) % p);
                EXPECT_EQ(share, len * (f + 1) / fragments - len * f / fragments)
                    << "len=" << len << " F=" << fragments << " f=" << f;
                ++calls;
              });
          EXPECT_EQ(calls, fragments);
        }
      }
    }
  }
}

// pop_least + push_popped(i, delta) must leave the tracker answering exactly
// as k_least followed by add(i, delta) on each of the k buckets would.
TEST(LoadTrackerTest, PopLeastAndPushPoppedMatchKLeastPlusAdds) {
  Rng rng(0x9e3u);
  for (int n : {1, 2, 7, 8, 64}) {
    LoadTracker fused(n);
    LoadTracker split(n);
    std::vector<int> got;
    std::vector<int> want;
    for (int step = 0; step < 3000; ++step) {
      const int k = 1 + static_cast<int>(rng.NextBounded(n));
      fused.pop_least(k, &got);
      split.k_least(k, &want);
      ASSERT_EQ(got, want) << "n=" << n << " step=" << step;
      // Push back in a scrambled order; some deltas are zero.
      std::vector<int> order = got;
      for (int i = k - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBounded(i + 1)]);
      }
      for (int bucket : order) {
        const int64_t delta =
            rng.NextBounded(4) == 0 ? 0 : static_cast<int64_t>(rng.NextBounded(5000));
        fused.push_popped(bucket, delta);
        split.add(bucket, delta);
      }
      ASSERT_EQ(fused.argmin(), split.argmin()) << "n=" << n << " step=" << step;
      for (int b = 0; b < n; ++b) {
        ASSERT_EQ(fused.load(b), split.load(b)) << "n=" << n << " step=" << step;
      }
    }
  }
}

// --- Plan equivalence across engines ------------------------------------------

void ExpectPlansIdentical(const PartitionPlan& got, const PartitionPlan& want,
                          const std::string& context) {
  ASSERT_EQ(got.inter_node.size(), want.inter_node.size()) << context;
  ASSERT_EQ(got.intra_node.size(), want.intra_node.size()) << context;
  ASSERT_EQ(got.local.size(), want.local.size()) << context;
  EXPECT_EQ(got.rank_arena, want.rank_arena) << context;
  EXPECT_EQ(got.tokens_per_rank, want.tokens_per_rank) << context;
  EXPECT_EQ(got.threshold_s1, want.threshold_s1) << context;
  EXPECT_EQ(got.threshold_s0, want.threshold_s0) << context;
  // The defaulted operator== covers every field byte-for-byte.
  EXPECT_TRUE(got == want) << context;
}

// Runs the naive reference and the sharded engine; both plans must be
// byte-identical.
void CheckAllEngines(const ClusterSpec& cluster, const Batch& batch, int64_t capacity,
                     const std::string& context) {
  SequencePartitioner naive(cluster,
                            {.token_capacity = capacity, .fast_path = false});
  const PartitionPlan naive_plan = naive.Partition(batch);

  SequencePartitioner sharded(cluster, {.token_capacity = capacity, .fast_path = true});
  PlannerScratch scratch;
  PartitionPlan sharded_plan;
  // Two runs through the same scratch: steady-state reuse must not leak.
  sharded.Partition(batch, &scratch, &sharded_plan);
  sharded.Partition(batch, &scratch, &sharded_plan);
  ExpectPlansIdentical(sharded_plan, naive_plan, context + " [sharded]");
}

TEST(ParallelPlannerTest, IdenticalOnEvaluationDatasets) {
  const std::vector<ClusterSpec> clusters = {MakeClusterA(2), MakeClusterA(8), MakeClusterC(4)};
  for (const auto& dist : EvaluationDatasets()) {
    for (const ClusterSpec& cluster : clusters) {
      const int world = cluster.num_nodes * cluster.gpus_per_node;
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        BatchSampler sampler(dist, static_cast<int64_t>(world) * 4096, seed);
        const Batch batch = sampler.NextBatch();
        CheckAllEngines(cluster, batch, 4096,
                        dist.name() + " " + cluster.name + " seed " + std::to_string(seed));
      }
    }
  }
}

// Zero-slack capacity forces overflow restarts in both stages; the sharded
// engine's incremental restarts (boundary advance + replay or re-label) must
// land on the same thresholds and placements as the naive whole-stage
// restarts.
TEST(ParallelPlannerTest, IdenticalUnderForcedOverflowRestarts) {
  const std::vector<ClusterSpec> clusters = {MakeClusterA(4), MakeClusterC(8)};
  for (const auto& dist : EvaluationDatasets()) {
    for (const ClusterSpec& cluster : clusters) {
      const int world = cluster.num_nodes * cluster.gpus_per_node;
      for (uint64_t seed = 11; seed <= 13; ++seed) {
        BatchSampler sampler(dist, static_cast<int64_t>(world) * 8192, seed);
        const Batch batch = sampler.NextBatch();
        const int64_t tight = (batch.total_tokens() + world - 1) / world;
        // The tight capacity must actually shrink a threshold somewhere.
        SequencePartitioner probe(cluster, {.token_capacity = tight, .fast_path = false});
        const PartitionPlan plan = probe.Partition(batch);
        bool restarted = plan.threshold_s1 < tight * cluster.gpus_per_node;
        for (int64_t s0 : plan.threshold_s0) {
          restarted = restarted || (s0 > 0 && s0 < tight);
        }
        EXPECT_TRUE(restarted) << dist.name() << " seed " << seed;
        CheckAllEngines(cluster, batch, tight,
                        dist.name() + " tight " + cluster.name + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(ParallelPlannerTest, IdenticalWithZoneThresholdCaps) {
  const ClusterSpec cluster = MakeClusterA(4);
  for (const auto& dist : EvaluationDatasets()) {
    BatchSampler sampler(dist, 32 * 8192, 99);
    const Batch batch = sampler.NextBatch();
    SequencePartitioner::Options base{.token_capacity = 8192,
                                      .max_inter_threshold = 8192,
                                      .max_local_threshold = 2048,
                                      .fast_path = false};
    const PartitionPlan naive_plan = SequencePartitioner(cluster, base).Partition(batch);
    SequencePartitioner::Options opts = base;
    opts.fast_path = true;
    const PartitionPlan got = SequencePartitioner(cluster, opts).Partition(batch);
    ExpectPlansIdentical(got, naive_plan, dist.name() + " capped");
    // The caps force nonempty z2 / z1 zones — make sure rings exist so the
    // ring-merge path is actually exercised.
    EXPECT_FALSE(got.inter_node.empty() && got.intra_node.empty()) << dist.name();
  }
}

TEST(ParallelPlannerTest, IdenticalOnEdgeBatches) {
  const ClusterSpec one_node = MakeClusterA(1);
  const ClusterSpec cluster = MakeClusterA(2);
  auto make = [](std::vector<int64_t> lens) {
    Batch b;
    b.seq_lens = std::move(lens);
    return b;
  };
  // Degenerate 1-node cluster: every z2 sequence is a single-node ring.
  CheckAllEngines(one_node, make({16384, 8192, 2048, 512, 512}), 4096, "one node");
  // Two sequences.
  CheckAllEngines(cluster, make({4096, 64}), 4096, "tiny batch");
  // Single sequence filling the cluster exactly.
  CheckAllEngines(cluster, make({16 * 4096}), 4096, "single full");
  // All-equal lengths: pure tie-breaking through the uniform-block path.
  CheckAllEngines(cluster, make(std::vector<int64_t>(64, 1024)), 4096, "uniform");
  // Duplicates around the promotion boundary.
  CheckAllEngines(cluster, make({8192, 8192, 8192, 4096, 4096, 4096, 4096, 64, 64, 64}), 4096,
                  "duplicates");
}

// The serve regime (Llama 3B on Cluster A x 64 = 512 GPUs, pretrain
// mixture, 16 Ki tokens/GPU, the service's derived capacity): larger than
// any pinned corpus row, and tight enough that Alg. 1 refines s1 and Alg. 2
// restarts. The production plan through PlannerService and the sharded
// engine straight through SequencePartitioner must both equal the oracle's.
TEST(ParallelPlannerTest, IdenticalInTheServeRegime) {
  const ClusterSpec cluster = MakeClusterA(64);
  const int world = cluster.num_nodes * cluster.gpus_per_node;
  const CostModel cost_model(MakeLlama3B(), cluster);
  const FabricResources fabric(cluster);
  PlannerService service;
  BatchSampler sampler(MakePretrainMixture(), static_cast<int64_t>(world) * 16384, 1);
  int refined = 0;
  int restarted = 0;
  for (int i = 0; i < 32; ++i) {
    const Batch batch = sampler.NextBatch();
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    const PlanResponse served = service.Plan(request);
    const int64_t capacity = served.stats.token_capacity;
    const std::string context = "batch " + std::to_string(i);

    const PartitionPlan naive_plan =
        SequencePartitioner(cluster, {.token_capacity = capacity, .fast_path = false})
            .Partition(batch);
    ExpectPlansIdentical(*served.plan, naive_plan, context + " [service]");
    CheckAllEngines(cluster, batch, capacity, context);

    refined += naive_plan.threshold_s1 < capacity * cluster.gpus_per_node ? 1 : 0;
    for (int64_t s0 : naive_plan.threshold_s0) {
      restarted += s0 < capacity ? 1 : 0;
    }
  }
  EXPECT_GT(refined, 0) << "no Alg. 1 refinement in the serve regime";
  EXPECT_GT(restarted, 0) << "no Alg. 2 restart in the serve regime";
}

// The sharded engine must route its packing through GreedyPacker in bulk:
// ops near the sequence count, not S log P.
TEST(ParallelPlannerTest, PackerOpCountStaysBulk) {
  const int kSeqs = 8192;
  const ClusterSpec cluster = MakeClusterA(32);  // P = 256.
  const int world = cluster.num_nodes * cluster.gpus_per_node;
  for (const auto& dist : EvaluationDatasets()) {
    Rng rng(7);
    Batch batch;
    for (int i = 0; i < kSeqs; ++i) {
      batch.seq_lens.push_back(dist.Sample(rng));
    }
    const int64_t average = (batch.total_tokens() + world - 1) / world;
    SequencePartitioner partitioner(
        cluster, {.token_capacity = average + average / 4, .fast_path = true});
    PlannerScratch scratch;
    const PartitionPlan plan = partitioner.Partition(batch, &scratch);
    EXPECT_EQ(plan.total_tokens(), batch.total_tokens());
    EXPECT_GT(scratch.packer_ops(), 0) << "sharded engine must route through GreedyPacker";
    EXPECT_LE(scratch.packer_ops(), static_cast<int64_t>(10) * (kSeqs + world))
        << dist.name() << ": packing degraded to per-item heap walks";
  }
}

}  // namespace
}  // namespace zeppelin
