// Production-engine equivalence: the sharded planner engine must produce
// byte-identical plans to the reference greedy (same zones, ring groups, rank
// loads, and thresholds) for every batch — including batches that force
// overflow restarts — and both must reproduce a pinned corpus of plan
// digests. LoadTracker, the heap behind the sharded engine's z2 placement
// and the delta planner, is checked against a linear reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/load_tracker.h"
#include "src/common/rng.h"
#include "src/core/partitioner.h"
#include "src/core/plan_service.h"
#include "src/core/zones.h"
#include "src/data/datasets.h"
#include "src/data/sampler.h"
#include "src/model/cost_model.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace {

SequencePartitioner::Options FastOptions(int64_t capacity) {
  return {.token_capacity = capacity, .fast_path = true};
}

SequencePartitioner::Options NaiveOptions(int64_t capacity) {
  return {.token_capacity = capacity, .fast_path = false};
}

// Full byte-level plan comparison with readable failure context: per-ring
// headers first (so a divergence names the ring), then the rank arena as one
// flat compare — the byte-identity definition of docs/PLAN_FORMAT.md.
void ExpectPlansIdentical(const PartitionPlan& fast, const PartitionPlan& naive,
                          const std::string& context) {
  ASSERT_EQ(fast.inter_node.size(), naive.inter_node.size()) << context;
  for (size_t i = 0; i < fast.inter_node.size(); ++i) {
    EXPECT_EQ(fast.inter_node[i].seq_id, naive.inter_node[i].seq_id) << context << " ring " << i;
    EXPECT_TRUE(fast.inter_node[i] == naive.inter_node[i]) << context << " ring " << i;
  }
  ASSERT_EQ(fast.intra_node.size(), naive.intra_node.size()) << context;
  for (size_t i = 0; i < fast.intra_node.size(); ++i) {
    EXPECT_EQ(fast.intra_node[i].seq_id, naive.intra_node[i].seq_id) << context << " ring " << i;
    EXPECT_TRUE(fast.intra_node[i] == naive.intra_node[i]) << context << " ring " << i;
  }
  EXPECT_EQ(fast.rank_arena, naive.rank_arena) << context;
  ASSERT_EQ(fast.local.size(), naive.local.size()) << context;
  EXPECT_EQ(fast.tokens_per_rank, naive.tokens_per_rank) << context;
  EXPECT_EQ(fast.threshold_s1, naive.threshold_s1) << context;
  EXPECT_EQ(fast.threshold_s0, naive.threshold_s0) << context;
  // The defaulted operator== covers every remaining field byte-for-byte.
  EXPECT_TRUE(fast == naive) << context;
}

void CheckEquivalence(const ClusterSpec& cluster, const Batch& batch, int64_t capacity,
                      const std::string& context) {
  SequencePartitioner fast(cluster, FastOptions(capacity));
  SequencePartitioner naive(cluster, NaiveOptions(capacity));
  PlannerScratch scratch;  // Shared between engines: contents must not leak.
  PartitionPlan fast_plan;
  fast.Partition(batch, &scratch, &fast_plan);
  PartitionPlan naive_plan;
  naive.Partition(batch, &scratch, &naive_plan);
  ExpectPlansIdentical(fast_plan, naive_plan, context);
}

// --- Randomized equivalence across Table 2 distributions and clusters --------

TEST(PlannerFastPathTest, EquivalentOnEvaluationDatasets) {
  const std::vector<ClusterSpec> clusters = {MakeClusterA(2), MakeClusterA(8), MakeClusterC(4)};
  for (const auto& dist : EvaluationDatasets()) {
    for (const ClusterSpec& cluster : clusters) {
      const int world = cluster.num_nodes * cluster.gpus_per_node;
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        BatchSampler sampler(dist, static_cast<int64_t>(world) * 4096, seed);
        const Batch batch = sampler.NextBatch();
        // Paper-style 4k tokens/GPU capacity: exercises all three zones.
        CheckEquivalence(cluster, batch, 4096,
                         dist.name() + " " + cluster.name + " seed " + std::to_string(seed));
      }
    }
  }
}

// Zero-slack capacity (L = ceil(total/world)) forces the packing loops to
// overflow and the thresholds to shrink — the restart paths must still match
// the reference exactly, including the incremental-continuation shortcut.
TEST(PlannerFastPathTest, EquivalentUnderForcedOverflowRestarts) {
  const std::vector<ClusterSpec> clusters = {MakeClusterA(4), MakeClusterC(8)};
  for (const auto& dist : EvaluationDatasets()) {
    for (const ClusterSpec& cluster : clusters) {
      const int world = cluster.num_nodes * cluster.gpus_per_node;
      for (uint64_t seed = 11; seed <= 14; ++seed) {
        BatchSampler sampler(dist, static_cast<int64_t>(world) * 8192, seed);
        const Batch batch = sampler.NextBatch();
        const int64_t tight = (batch.total_tokens() + world - 1) / world;
        SequencePartitioner probe(cluster, NaiveOptions(tight));
        const PartitionPlan plan = probe.Partition(batch);
        // The zero-slack capacity must actually shrink a threshold somewhere,
        // otherwise this test is not exercising restarts.
        const int64_t node_capacity = tight * cluster.gpus_per_node;
        bool restarted = plan.threshold_s1 < node_capacity;
        for (int64_t s0 : plan.threshold_s0) {
          restarted = restarted || (s0 > 0 && s0 < tight);
        }
        EXPECT_TRUE(restarted) << dist.name() << " seed " << seed;
        CheckEquivalence(cluster, batch, tight,
                         dist.name() + " tight " + cluster.name + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(PlannerFastPathTest, EquivalentWithZoneThresholdCaps) {
  // Capped initial thresholds (the zone-aware D6 extension) force nonempty
  // z2 / z1 zones with multi-node rings and multi-fragment splits.
  const ClusterSpec cluster = MakeClusterA(4);
  for (const auto& dist : EvaluationDatasets()) {
    BatchSampler sampler(dist, 32 * 8192, 99);
    const Batch batch = sampler.NextBatch();
    for (int64_t inter_cap : {int64_t{8192}, int64_t{32768}}) {
      SequencePartitioner::Options fast_opts{.token_capacity = 8192,
                                             .max_inter_threshold = inter_cap,
                                             .max_local_threshold = 2048,
                                             .fast_path = true};
      SequencePartitioner::Options naive_opts = fast_opts;
      naive_opts.fast_path = false;
      PartitionPlan fast_plan = SequencePartitioner(cluster, fast_opts).Partition(batch);
      PartitionPlan naive_plan = SequencePartitioner(cluster, naive_opts).Partition(batch);
      ExpectPlansIdentical(fast_plan, naive_plan, dist.name() + " capped");
      // With a finite inter threshold below max_len, long sequences must
      // actually be chunked (multi-node rings, or single-node rings when
      // s_avg lets a sequence fit one bucket).
      if (inter_cap <= batch.max_len()) {
        EXPECT_FALSE(fast_plan.inter_node.empty() && fast_plan.intra_node.empty())
            << dist.name();
      }
    }
  }
}

TEST(PlannerFastPathTest, EquivalentOnEdgeBatches) {
  const ClusterSpec one_node = MakeClusterA(1);
  const ClusterSpec cluster = MakeClusterA(2);
  auto make = [](std::vector<int64_t> lens) {
    Batch b;
    b.seq_lens = std::move(lens);
    return b;
  };
  // Single sequence filling the cluster exactly.
  CheckEquivalence(cluster, make({16 * 4096}), 4096, "single full");
  // All-equal lengths (pure tie-breaking).
  CheckEquivalence(cluster, make(std::vector<int64_t>(64, 1024)), 4096, "uniform");
  // Duplicate lengths around the promotion boundary (41k tokens on a 64k
  // cluster at L=4096 -> tight enough to promote, loose enough to fit).
  CheckEquivalence(cluster, make({8192, 8192, 8192, 4096, 4096, 4096, 4096, 64, 64, 64}), 4096,
                   "duplicates");
  // One-node cluster: every z2 sequence is a single-node ring.
  CheckEquivalence(one_node, make({16384, 8192, 2048, 512, 512}), 4096, "one node");
}

// --- Pinned digest corpus ----------------------------------------------------

// Golden residues in the style of a prime-search residue table: each seeded
// (dataset, S, Cluster A node count, capacity, zone-aware) input maps to the
// StateDigest every engine must reproduce. The constants were computed once
// and both engines agreed on every one of them, so an engine rewrite or
// deletion that keeps this table green is behaviour-preserving on the whole
// corpus. `tight` plans at capacity ceil(total/world), which forces overflow
// restarts; otherwise the service derives the capacity (average + 25%,
// capped by the memory model). A mismatch prints the row to paste back.
struct CorpusRow {
  const char* dataset;
  int nodes;
  int seqs;
  bool tight;
  bool zone_aware;
  uint64_t digest;
};

constexpr CorpusRow kDigestCorpus[] = {
    {"arxiv", 1, 32, false, false, 0x908435c318f6e1a4ull},
    {"arxiv", 1, 32, false, true, 0x6a73e3f3e3735065ull},
    {"arxiv", 1, 32, true, false, 0x908435c318f6e1a4ull},
    {"arxiv", 1, 32, true, true, 0x6a73e3f3e3735065ull},
    {"arxiv", 1, 2048, false, false, 0x09c45d0013d5174dull},
    {"arxiv", 1, 2048, false, true, 0x815c0b0d601cd72dull},
    {"arxiv", 1, 2048, true, false, 0x09c45d0013d5174dull},
    {"arxiv", 1, 2048, true, true, 0x815c0b0d601cd72dull},
    {"arxiv", 2, 32, false, false, 0xb31d94c63e8310e7ull},
    {"arxiv", 2, 32, false, true, 0xb38a10c63f3b679bull},
    {"arxiv", 2, 32, true, false, 0xb31d94c63e8310e7ull},
    {"arxiv", 2, 32, true, true, 0xb38a10c63f3b679bull},
    {"arxiv", 2, 2048, false, false, 0xc1177aeb4537a2a3ull},
    {"arxiv", 2, 2048, false, true, 0xc408370d54f24c2bull},
    {"arxiv", 2, 2048, true, false, 0xc1177aeb4537a2a3ull},
    {"arxiv", 2, 2048, true, true, 0xc408370d54f24c2bull},
    {"arxiv", 8, 32, false, false, 0xfa6e83781f17921bull},
    {"arxiv", 8, 32, false, true, 0x30e145dcb399c749ull},
    {"arxiv", 8, 32, true, false, 0x5893eb3df4f0903eull},
    {"arxiv", 8, 32, true, true, 0x11d5aeba2ebd7cc3ull},
    {"arxiv", 8, 2048, false, false, 0x0949965ad260601bull},
    {"arxiv", 8, 2048, false, true, 0xf471b39fe5f02023ull},
    {"arxiv", 8, 2048, true, false, 0x0949965ad260601bull},
    {"arxiv", 8, 2048, true, true, 0xf471b39fe5f02023ull},
    {"arxiv", 16, 32, false, false, 0xb3c330d78009fdc6ull},
    {"arxiv", 16, 32, false, true, 0x51710b7173a6784aull},
    {"arxiv", 16, 32, true, false, 0x41d83ebdbcd121afull},
    {"arxiv", 16, 32, true, true, 0x34ebcaa751a4c521ull},
    {"arxiv", 16, 2048, false, false, 0x51e8bbad71ec46e0ull},
    {"arxiv", 16, 2048, false, true, 0x71560730b4a111cbull},
    {"arxiv", 16, 2048, true, false, 0x51e8bbad71ec46e0ull},
    {"arxiv", 16, 2048, true, true, 0x71560730b4a111cbull},
    {"github", 1, 32, false, false, 0x0d6a48f5c34a8169ull},
    {"github", 1, 32, false, true, 0xf1f0862ba1b36a39ull},
    {"github", 1, 32, true, false, 0x0d6a48f5c34a8169ull},
    {"github", 1, 32, true, true, 0xf1f0862ba1b36a39ull},
    {"github", 1, 2048, false, false, 0x0025df542f605ecdull},
    {"github", 1, 2048, false, true, 0xd8c41dccf5322102ull},
    {"github", 1, 2048, true, false, 0x0025df542f605ecdull},
    {"github", 1, 2048, true, true, 0xd8c41dccf5322102ull},
    {"github", 2, 32, false, false, 0xc4a3bb8bb90d19ebull},
    {"github", 2, 32, false, true, 0x5426738d0c8dcdcbull},
    {"github", 2, 32, true, false, 0xc4a3bb8bb90d19ebull},
    {"github", 2, 32, true, true, 0x5426738d0c8dcdcbull},
    {"github", 2, 2048, false, false, 0xa7779cfed3032115ull},
    {"github", 2, 2048, false, true, 0x79c00724c081dc58ull},
    {"github", 2, 2048, true, false, 0xa7779cfed3032115ull},
    {"github", 2, 2048, true, true, 0x79c00724c081dc58ull},
    {"github", 8, 32, false, false, 0x5158725cae6395f0ull},
    {"github", 8, 32, false, true, 0xf2f739ff8957fe43ull},
    {"github", 8, 32, true, false, 0xc61fd11bd0c7e084ull},
    {"github", 8, 32, true, true, 0x34ff03b080e570bcull},
    {"github", 8, 2048, false, false, 0x900471eaed4d1233ull},
    {"github", 8, 2048, false, true, 0x83edecd8c0e3fa53ull},
    {"github", 8, 2048, true, false, 0x900471eaed4d1233ull},
    {"github", 8, 2048, true, true, 0x83edecd8c0e3fa53ull},
    {"github", 16, 32, false, false, 0x75201a47b30ba969ull},
    {"github", 16, 32, false, true, 0xfb291d75973a95f2ull},
    {"github", 16, 32, true, false, 0xb71d6be26656b392ull},
    {"github", 16, 32, true, true, 0xfb291d75973a95f2ull},
    {"github", 16, 2048, false, false, 0x994c9004bec3e723ull},
    {"github", 16, 2048, false, true, 0x8a823d45694a23e3ull},
    {"github", 16, 2048, true, false, 0x994c9004bec3e723ull},
    {"github", 16, 2048, true, true, 0x8a823d45694a23e3ull},
    {"prolong64k", 1, 32, false, false, 0xcad8121e3f805c17ull},
    {"prolong64k", 1, 32, false, true, 0xb2791a0d7b4fa49cull},
    {"prolong64k", 1, 32, true, false, 0xcad8121e3f805c17ull},
    {"prolong64k", 1, 32, true, true, 0xb2791a0d7b4fa49cull},
    {"prolong64k", 1, 2048, false, false, 0xfd851b96a619815full},
    {"prolong64k", 1, 2048, false, true, 0x937dd76d26de3fe5ull},
    {"prolong64k", 1, 2048, true, false, 0xfd851b96a619815full},
    {"prolong64k", 1, 2048, true, true, 0x937dd76d26de3fe5ull},
    {"prolong64k", 2, 32, false, false, 0xb86d9448ff5837c5ull},
    {"prolong64k", 2, 32, false, true, 0xd072744ba039fcd5ull},
    {"prolong64k", 2, 32, true, false, 0xb86d9448ff5837c5ull},
    {"prolong64k", 2, 32, true, true, 0xd072744ba039fcd5ull},
    {"prolong64k", 2, 2048, false, false, 0xa548cae759ede033ull},
    {"prolong64k", 2, 2048, false, true, 0x907a0e722d831aabull},
    {"prolong64k", 2, 2048, true, false, 0xa548cae759ede033ull},
    {"prolong64k", 2, 2048, true, true, 0x907a0e722d831aabull},
    {"prolong64k", 8, 32, false, false, 0x7a1a530630442520ull},
    {"prolong64k", 8, 32, false, true, 0x91d4ffe52fbf37ecull},
    {"prolong64k", 8, 32, true, false, 0x18095c92864c24bdull},
    {"prolong64k", 8, 32, true, true, 0x3070973aad05f21cull},
    {"prolong64k", 8, 2048, false, false, 0xc2f5ce5c6b07bb4bull},
    {"prolong64k", 8, 2048, false, true, 0x6d48a851885a0bd3ull},
    {"prolong64k", 8, 2048, true, false, 0xc2f5ce5c6b07bb4bull},
    {"prolong64k", 8, 2048, true, true, 0x6d48a851885a0bd3ull},
    {"prolong64k", 16, 32, false, false, 0x546ffd9014d0cce3ull},
    {"prolong64k", 16, 32, false, true, 0xff773416ee4a38c5ull},
    {"prolong64k", 16, 32, true, false, 0x861685bb30fb3314ull},
    {"prolong64k", 16, 32, true, true, 0x70a683f8b51f4b4eull},
    {"prolong64k", 16, 2048, false, false, 0x5487ebc1075c3b1cull},
    {"prolong64k", 16, 2048, false, true, 0xae58e1e5cedbe701ull},
    {"prolong64k", 16, 2048, true, false, 0x5487ebc1075c3b1cull},
    {"prolong64k", 16, 2048, true, true, 0xae58e1e5cedbe701ull},
};

TEST(PlannerFastPathTest, PinnedDigestCorpus) {
  PlannerService service;
  // Zone coverage of the corpus as a whole, so the table cannot quietly
  // shrink to plans that never chunk, fragment, pack or restart.
  bool inter_rings = false;
  bool intra_rings = false;
  bool locals = false;
  bool refined = false;
  for (const CorpusRow& row : kDigestCorpus) {
    const ClusterSpec cluster = MakeClusterA(row.nodes);
    const FabricResources fabric(cluster);
    const CostModel cost_model(MakeLlama3B(), cluster);
    const int world = cluster.world_size();

    const LengthDistribution dist = DatasetByName(row.dataset);
    Rng rng(static_cast<uint64_t>(row.nodes) * 10007 + static_cast<uint64_t>(row.seqs));
    Batch batch;
    for (int i = 0; i < row.seqs; ++i) {
      batch.seq_lens.push_back(dist.Sample(rng));
    }

    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    request.options.token_capacity = row.tight ? (batch.total_tokens() + world - 1) / world : 0;
    request.options.zone_aware_thresholds = row.zone_aware;

    const std::string context = std::string(row.dataset) + " nodes=" +
                                std::to_string(row.nodes) + " S=" + std::to_string(row.seqs) +
                                (row.tight ? " tight" : " derived") +
                                (row.zone_aware ? " zone-aware" : "");
    const PlanResponse response = service.Plan(request);
    const int64_t capacity = response.stats.token_capacity;
    char line[160];
    std::snprintf(line, sizeof(line), "    {\"%s\", %d, %d, %s, %s, 0x%016llxull},", row.dataset,
                  row.nodes, row.seqs, row.tight ? "true" : "false",
                  row.zone_aware ? "true" : "false",
                  static_cast<unsigned long long>(response.digest));
    EXPECT_EQ(response.digest, row.digest) << context << " [service]\n" << line;

    // The same inputs straight through SequencePartitioner.
    SequencePartitioner::Options options{.token_capacity = capacity};
    if (row.zone_aware) {
      const ZoneBoundaries zones = ZoneClassifier(cost_model).Compute();
      options.max_inter_threshold = zones.intra_max;
      options.max_local_threshold = zones.local_max;
    }
    for (bool fast_path : {false, true}) {
      options.fast_path = fast_path;
      const PartitionPlan plan = SequencePartitioner(cluster, options).Partition(batch);
      EXPECT_EQ(plan.StateDigest(), row.digest)
          << context << (fast_path ? " [partitioner, production]" : " [partitioner, naive]");
      inter_rings = inter_rings || !plan.inter_node.empty();
      intra_rings = intra_rings || !plan.intra_node.empty();
      locals = locals || !plan.local.empty();
      refined = refined || plan.threshold_s1 < capacity * cluster.gpus_per_node;
      for (int64_t s0 : plan.threshold_s0) {
        refined = refined || (s0 > 0 && s0 < capacity);
      }
    }
  }
  EXPECT_TRUE(inter_rings);
  EXPECT_TRUE(intra_rings);
  EXPECT_TRUE(locals);
  EXPECT_TRUE(refined);
}

// --- LoadTracker unit behavior -----------------------------------------------

// Reference implementation: plain array with linear scans.
struct ReferenceLoads {
  std::vector<int64_t> loads;
  int argmin() const {
    int best = 0;
    for (int i = 1; i < static_cast<int>(loads.size()); ++i) {
      if (loads[i] < loads[best]) {
        best = i;
      }
    }
    return best;
  }
  std::vector<int> k_least(int k) const {
    std::vector<int> order(loads.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return loads[a] < loads[b]; });
    order.resize(k);
    return order;
  }
};

TEST(PlannerFastPathTest, LoadTrackerMatchesLinearReference) {
  Rng rng(1234);
  for (int n : {1, 2, 7, 8, 64, 200}) {
    LoadTracker tracker(n);
    ReferenceLoads ref;
    ref.loads.assign(n, 0);
    std::vector<int> k_out;
    for (int step = 0; step < 2000; ++step) {
      const int op = static_cast<int>(rng.NextBounded(3));
      if (op == 0) {
        ASSERT_EQ(tracker.argmin(), ref.argmin()) << "n=" << n << " step=" << step;
        ASSERT_EQ(tracker.min_load(), ref.loads[ref.argmin()]);
      } else if (op == 1) {
        const int i = static_cast<int>(rng.NextBounded(n));
        int64_t delta = static_cast<int64_t>(rng.NextBounded(10000));
        if (rng.NextBounded(4) == 0) {
          delta = -std::min(delta, ref.loads[i]);  // Loads must stay >= 0.
        }
        tracker.add(i, delta);
        ref.loads[i] += delta;
        ASSERT_EQ(tracker.load(i), ref.loads[i]);
      } else {
        const int k = 1 + static_cast<int>(rng.NextBounded(n));
        tracker.k_least(k, &k_out);
        ASSERT_EQ(k_out, ref.k_least(k)) << "n=" << n << " step=" << step << " k=" << k;
        // k_least must not perturb subsequent queries.
        ASSERT_EQ(tracker.argmin(), ref.argmin());
      }
    }
  }
}

}  // namespace
}  // namespace zeppelin
