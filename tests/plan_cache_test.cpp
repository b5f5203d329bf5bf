// PlanCache (src/core/plan_cache.h): the cache-key canonicalization
// properties (randomized + seeded, twin-checked — permuting sequences or
// renaming slots never changes the key, any semantic change always does),
// exact-tier hit semantics (zero-copy repeats, seq-id remap for permuted
// batches — byte-identical to a fresh plan and to the comparison-sort
// pairing it replaced — every served plan certified), LRU eviction, the
// near-match family tier, the poisoned-entry hook on both hit tiers, and a
// concurrent hammer (the TSAN target together with plan_service_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"
#include "src/data/datasets.h"
#include "src/data/mixture.h"
#include "src/data/sampler.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace zeppelin {
namespace {

Batch SampleBatch(int num_seqs, uint64_t seed) {
  const LengthDistribution dist = DatasetByName("github");
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

Batch Permuted(const Batch& batch, uint64_t seed) {
  Batch out = batch;
  Rng rng(seed);
  // Fisher-Yates with the repo Rng: a uniformly random slot renaming.
  for (size_t i = out.seq_lens.size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap(out.seq_lens[i - 1], out.seq_lens[j]);
  }
  return out;
}

// The remap tier's bijection as two comparison sorts define it: order both
// sides by (length, slot) and pair them position by position.
std::vector<int> OracleRemap(const std::vector<int64_t>& cached,
                             const std::vector<int64_t>& request) {
  const size_t n = cached.size();
  std::vector<int> cached_order(n), request_order(n);
  std::iota(cached_order.begin(), cached_order.end(), 0);
  std::iota(request_order.begin(), request_order.end(), 0);
  std::sort(cached_order.begin(), cached_order.end(), [&](int a, int b) {
    return std::tie(cached[a], a) < std::tie(cached[b], b);
  });
  std::sort(request_order.begin(), request_order.end(), [&](int a, int b) {
    return std::tie(request[a], a) < std::tie(request[b], b);
  });
  std::vector<int> remap(n);
  for (size_t i = 0; i < n; ++i) {
    remap[cached_order[i]] = request_order[i];
  }
  return remap;
}

struct Rig {
  ClusterSpec cluster = MakeClusterA(2);
  FabricResources fabric{cluster};
  CostModel cost_model{MakeLlama3B(), cluster};

  PlanRequest Request(const Batch& batch) const {
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    return request;
  }
};

TEST(PlanCacheKeyTest, PermutationAndRenamingAreCanonical) {
  Rig rig;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const Batch batch = SampleBatch(64, seed);
    const Batch shuffled = Permuted(batch, seed * 977);
    const PlanCacheKey a = ComputePlanCacheKey(rig.Request(batch));
    const PlanCacheKey b = ComputePlanCacheKey(rig.Request(shuffled));
    EXPECT_EQ(a, b) << "seed " << seed;  // Order/renaming never changes the key.
    // Twin check: the unpermuted request keeps producing the same key.
    EXPECT_EQ(a, ComputePlanCacheKey(rig.Request(batch)));
  }
}

TEST(PlanCacheKeyTest, AnySemanticChangeSplitsTheKey) {
  Rig rig;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Batch batch = SampleBatch(64, seed);
    const PlanCacheKey base = ComputePlanCacheKey(rig.Request(batch));
    Rng rng(seed * 31);

    // Any single length change (including a swap-breaking one).
    Batch longer = batch;
    longer.seq_lens[rng.NextBounded(longer.seq_lens.size())] += 1;
    EXPECT_NE(base, ComputePlanCacheKey(rig.Request(longer)));

    // Adding or dropping a sequence.
    Batch grown = batch;
    grown.seq_lens.push_back(batch.seq_lens.front());
    EXPECT_NE(base, ComputePlanCacheKey(rig.Request(grown)));
    Batch shrunk = batch;
    shrunk.seq_lens.pop_back();
    EXPECT_NE(base, ComputePlanCacheKey(rig.Request(shrunk)));

    // A different model config.
    Rig other_model;
    other_model.cost_model = CostModel{MakeLlama13B(), other_model.cluster};
    EXPECT_NE(base, ComputePlanCacheKey(other_model.Request(batch)));

    // A different cluster shape.
    Rig other_cluster;
    other_cluster.cluster = MakeClusterA(4);
    other_cluster.fabric = FabricResources{other_cluster.cluster};
    other_cluster.cost_model = CostModel{MakeLlama3B(), other_cluster.cluster};
    EXPECT_NE(base, ComputePlanCacheKey(other_cluster.Request(batch)));

    // A topology change surfaced through the fabric: one straggler rank.
    Rig slowed;
    slowed.fabric.set_rank_speed(static_cast<int>(rng.NextBounded(16)), 0.5);
    EXPECT_NE(base, ComputePlanCacheKey(slowed.Request(batch)));

    // A planning-option change that alters the plan bytes.
    PlanRequest optioned = rig.Request(batch);
    optioned.options.token_capacity = 1 << 20;
    EXPECT_NE(base, ComputePlanCacheKey(optioned));
    PlanRequest flat = rig.Request(batch);
    flat.options.hierarchical_partitioning = false;
    EXPECT_NE(base, ComputePlanCacheKey(flat));

    // Twin check: recomputing the unchanged request still matches.
    EXPECT_EQ(base, ComputePlanCacheKey(rig.Request(batch)));
  }
}

TEST(PlanCacheKeyTest, EqualTotalMultisetsSplitTheKey) {
  // Regression: batches are sized to a fixed token budget, so distinct
  // batches routinely share (count, total tokens). The summed per-element
  // mix must still separate them — a single FNV step degraded to a function
  // of count + total for 64-aligned lengths, and these two real sampler
  // outputs collided.
  Batch a, b;
  a.seq_lens = {1280, 15488, 48768};
  b.seq_lens = {30080, 14720, 20736};
  EXPECT_NE(CanonicalBatchSignature(a), CanonicalBatchSignature(b));

  // Randomized: 64-aligned partitions of one total must get pairwise
  // distinct signatures whenever their multisets differ (and equal ones
  // when they do not).
  Rng rng(0x70741);
  std::vector<std::pair<std::vector<int64_t>, uint64_t>> seen;
  for (int trial = 0; trial < 64; ++trial) {
    Batch batch;
    int64_t remaining = 65536;
    while (remaining > 0) {
      const int64_t units = remaining / 64;
      const int64_t take =
          64 * (1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(units))));
      batch.seq_lens.push_back(take);
      remaining -= take;
    }
    const uint64_t sig = CanonicalBatchSignature(batch);
    std::vector<int64_t> sorted = batch.seq_lens;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [lens, other_sig] : seen) {
      if (lens == sorted) {
        EXPECT_EQ(sig, other_sig);
      } else {
        EXPECT_NE(sig, other_sig);
      }
    }
    seen.emplace_back(std::move(sorted), sig);
  }
}

TEST(PlanCacheTest, ExactHitIsZeroCopyAndCertified) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0xcac4e);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  ASSERT_NE(miss.plan, nullptr);
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);

  const PlanResponse hit = cache.Plan(rig.Request(batch));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(hit.stats.verified);
  EXPECT_EQ(hit.plan.get(), miss.plan.get());  // Shared immutable handle.
  EXPECT_EQ(hit.digest, miss.digest);
  EXPECT_EQ(hit.stats.partition_time_us, 0);
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(PlanCacheTest, PermutedBatchHitsWithARemappedPlan) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0x9e9);
  const Batch shuffled = Permuted(batch, 0x41);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  const PlanResponse hit = cache.Plan(rig.Request(shuffled));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  ASSERT_NE(hit.plan, nullptr);
  EXPECT_NE(hit.plan.get(), miss.plan.get());  // Remapped copy, not the handle.
  EXPECT_TRUE(hit.stats.verified);

  // The remap must be a *correct* plan for the permuted batch, not just a
  // cache artifact — certify it independently and line up the loads.
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  const PlanVerifyResult verdict = VerifyPlan(*hit.plan, &shuffled, nullptr, opts);
  EXPECT_TRUE(verdict.ok()) << verdict.message;
  EXPECT_EQ(hit.plan->tokens_per_rank, miss.plan->tokens_per_rank);
}

// A remapped serve is byte-identical to planning the permuted batch from
// scratch, in the serve regime and two smaller ones: the planner orders
// sequences by (length desc, slot asc), so relabelling a cached plan through
// the (length, slot) bijection reproduces the fresh plan exactly.
TEST(PlanCacheTest, PermutedServeIsByteIdenticalToAFreshPlan) {
  struct Regime {
    int nodes;
    int64_t tokens_per_gpu;
  };
  for (const Regime regime : {Regime{64, 16384}, Regime{64, 4096}, Regime{8, 4096}}) {
    const ClusterSpec cluster = MakeClusterA(regime.nodes);
    const FabricResources fabric(cluster);
    const CostModel cost_model(MakeLlama3B(), cluster);
    PlannerService cache_service, fresh_service;
    PlanCache cache(&cache_service, {.near_match = false});
    BatchSampler sampler(MakePretrainMixture(),
                         int64_t{cluster.world_size()} * regime.tokens_per_gpu, 0x5e7);
    for (uint64_t b = 0; b < 16; ++b) {
      SCOPED_TRACE(testing::Message() << cluster.world_size() << " GPUs, "
                                      << regime.tokens_per_gpu << " tok/GPU, batch " << b);
      const Batch batch = sampler.NextBatch();
      const Batch shuffled = Permuted(batch, 0x900d + b);
      ASSERT_NE(batch.seq_lens, shuffled.seq_lens);
      PlanRequest request;
      request.cost_model = &cost_model;
      request.fabric = &fabric;
      request.batch = &batch;
      ASSERT_EQ(cache.Plan(request).stats.cache_outcome, CacheOutcome::kMiss);
      request.batch = &shuffled;
      const PlanResponse hit = cache.Plan(request);
      ASSERT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
      ASSERT_TRUE(hit.stats.verified);
      const PlanResponse fresh = fresh_service.Plan(request);
      EXPECT_EQ(hit.plan->Serialize(), fresh.plan->Serialize());
      EXPECT_EQ(hit.digest, fresh.digest);
    }
  }
}

// PairPermutedSlots against the comparison-sort oracle, on the shapes where a
// radix pairing could go wrong: ties, constant lengths, one slot, lengths that
// need two radix passes.
TEST(PlanCacheTest, PairingMatchesTheComparisonSortBijection) {
  Rng rng(0x9a1);
  std::vector<std::vector<int64_t>> cases;
  cases.push_back(std::vector<int64_t>(64, 4096));  // All lengths equal.
  cases.push_back(std::vector<int64_t>(5, 0));      // All zero: no radix pass.
  cases.push_back({12345});                         // S = 1.
  std::vector<int64_t> ties(300), wide(300);
  for (size_t i = 0; i < ties.size(); ++i) {
    ties[i] = 64 * (1 + static_cast<int64_t>(rng.NextBounded(3)));
    wide[i] = 1 + 2 * static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 19));
  }
  cases.push_back(ties);
  // Odd lengths up to 2^20: the key sort needs two 16-bit passes.
  uint64_t or_acc = 0;
  int64_t max_len = 0;
  for (int64_t len : wide) {
    or_acc |= static_cast<uint64_t>(len);
    max_len = std::max(max_len, len);
  }
  ASSERT_GT(std::bit_width(static_cast<uint64_t>(max_len)) - std::countr_zero(or_acc), 16);
  cases.push_back(wide);
  cases.push_back(SampleBatch(256, 0x9a2).seq_lens);

  for (size_t c = 0; c < cases.size(); ++c) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "case " << c << ", permutation " << seed);
      Batch cached;
      cached.seq_lens = cases[c];
      const Batch request = Permuted(cached, 0x9a3 + seed);
      std::vector<int> remap;
      ASSERT_TRUE(PairPermutedSlots(cached.seq_lens, request.seq_lens, &remap));
      EXPECT_EQ(remap, OracleRemap(cached.seq_lens, request.seq_lens));
    }
  }

  // Different multisets, granularities or sizes never pair; neither does a
  // length outside the key range, on either side, and none of them aborts.
  std::vector<int> remap;
  std::vector<int64_t> changed = ties;
  changed[7] += 64;
  EXPECT_FALSE(PairPermutedSlots(ties, changed, &remap));
  std::vector<int64_t> fine = ties;
  for (int64_t& len : fine) {
    len += 1;
  }
  EXPECT_FALSE(PairPermutedSlots(ties, fine, &remap));
  EXPECT_FALSE(PairPermutedSlots(ties, std::vector<int64_t>(ties.begin(), ties.end() - 1), &remap));
  for (const int64_t bad : {int64_t{-1}, int64_t{1} << 43, INT64_MAX}) {
    std::vector<int64_t> out_of_range = ties;
    out_of_range[3] = bad;
    EXPECT_FALSE(PairPermutedSlots(ties, out_of_range, &remap)) << bad;
    EXPECT_FALSE(PairPermutedSlots(out_of_range, ties, &remap)) << bad;
    EXPECT_FALSE(PairPermutedSlots(out_of_range, out_of_range, &remap)) << bad;
  }
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  Rig rig;
  PlannerService service;
  PlanCacheOptions options;
  options.capacity = 2;
  options.near_match = false;
  PlanCache cache(&service, options);

  const Batch a = SampleBatch(64, 1), b = SampleBatch(64, 2), c = SampleBatch(64, 3);
  cache.Plan(rig.Request(a));
  cache.Plan(rig.Request(b));
  cache.Plan(rig.Request(a));  // Refresh a; b is now coldest.
  cache.Plan(rig.Request(c));  // Evicts b.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.Plan(rig.Request(a)).stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.Plan(rig.Request(b)).stats.cache_outcome, CacheOutcome::kMiss);
}

TEST(PlanCacheTest, NearMatchServesAPatchedPlan) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  Batch batch = SampleBatch(256, 0x7a7);

  const PlanResponse first = cache.Plan(rig.Request(batch));
  EXPECT_EQ(first.stats.cache_outcome, CacheOutcome::kMiss);

  // Nudge a few lengths without leaving their log2 buckets: a different
  // exact key, the same family bucket — the near-match tier's home turf.
  // Shrinks, not grows: growth can outgrow the family's derived capacity,
  // which legally rebases (and then counts as a miss, not a near-match).
  Batch nudged = batch;
  for (int slot : {3, 57, 200}) {
    nudged.seq_lens[slot] -= 1;
  }
  ASSERT_EQ(BatchBucketSignature(batch), BatchBucketSignature(nudged));
  const PlanResponse near = cache.Plan(rig.Request(nudged));
  ASSERT_NE(near.plan, nullptr);
  EXPECT_EQ(near.stats.cache_outcome, CacheOutcome::kNearMatch);
  EXPECT_TRUE(near.stats.verified);
  EXPECT_EQ(cache.counters().near_matches, 1u);

  // The patched plan covers the nudged batch exactly.
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  const PlanVerifyResult verdict = VerifyPlan(*near.plan, &nudged, nullptr, opts);
  EXPECT_TRUE(verdict.ok()) << verdict.message;

  // An exact repeat of the nudged batch is now a plain hit.
  EXPECT_EQ(cache.Plan(rig.Request(nudged)).stats.cache_outcome, CacheOutcome::kHit);
}

TEST(PlanCacheTest, FamilyEvictionClosesItsSession) {
  Rig rig;
  PlannerService service;
  PlanCacheOptions options;
  options.family_capacity = 1;
  PlanCache cache(&service, options);

  cache.Plan(rig.Request(SampleBatch(64, 11)));
  EXPECT_EQ(service.session_count(), 1u);
  cache.Plan(rig.Request(SampleBatch(128, 12)));  // New family; old one evicted.
  EXPECT_EQ(cache.family_count(), 1u);
  EXPECT_EQ(service.session_count(), 1u);  // The evicted session was closed.
}

TEST(PlanCacheTest, PoisonedEntryIsNeverServed) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0xbad);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  ASSERT_TRUE(cache.PoisonEntryForTest(rig.Request(batch)));

  // The poisoned entry is caught by the certifier, dropped, and replanned —
  // the caller still receives a correct (and certified) plan. The replan
  // rides the already-based family session (an empty-delta patch), so it
  // surfaces as a near-match; only never as a hit of the poisoned bytes.
  const PlanResponse replanned = cache.Plan(rig.Request(batch));
  EXPECT_NE(replanned.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(replanned.stats.verified);
  EXPECT_EQ(replanned.digest, miss.digest);
  EXPECT_EQ(cache.counters().verify_failures, 1u);

  // And the replanned insert restored a healthy entry.
  EXPECT_EQ(cache.Plan(rig.Request(batch)).stats.cache_outcome, CacheOutcome::kHit);
}

TEST(PlanCacheTest, SignatureCollisionIsAMissNotAVerifyFailure) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service, {.near_match = false});
  const Batch planted = SampleBatch(256, 0xc0111);
  const Batch other = SampleBatch(256, 0xd1ff);

  ASSERT_EQ(cache.Plan(rig.Request(planted)).stats.cache_outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(cache.RekeyEntryForTest(rig.Request(planted), rig.Request(other)));

  // `other` now finds an entry holding a different length multiset — a
  // simulated signature collision. That is not a poisoned entry: it must be
  // served as an ordinary miss with a correct plan, without touching the
  // verify-failure counter, and the replacement entry must hit afterwards.
  const PlanResponse miss = cache.Plan(rig.Request(other));
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);
  EXPECT_EQ(cache.counters().verify_failures, 0u);

  const PlanResponse hit = cache.Plan(rig.Request(other));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(hit.digest, miss.digest);
  EXPECT_EQ(cache.counters().verify_failures, 0u);
}

// The remap tier's twin of PoisonedEntryIsNeverServed: a permuted request
// finds the poisoned entry, the certifier rejects the relabelled copy, and
// the request is replanned — never served the poisoned bytes.
TEST(PlanCacheTest, PoisonedEntryIsNeverServedOnTheRemapTier) {
  Rig rig;
  PlannerService service, fresh_service;
  PlanCache cache(&service, {.near_match = false});
  const Batch batch = SampleBatch(256, 0xbad2);
  const Batch shuffled = Permuted(batch, 0xbad3);

  ASSERT_EQ(cache.Plan(rig.Request(batch)).stats.cache_outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(cache.PoisonEntryForTest(rig.Request(batch)));

  const PlanResponse replanned = cache.Plan(rig.Request(shuffled));
  EXPECT_EQ(replanned.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(replanned.stats.verified);
  EXPECT_EQ(cache.counters().verify_failures, 1u);
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(replanned.digest, fresh_service.Plan(rig.Request(shuffled)).digest);
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  const PlanVerifyResult verdict = VerifyPlan(*replanned.plan, &shuffled, nullptr, opts);
  EXPECT_TRUE(verdict.ok()) << verdict.message;

  // The replanned insert restored a healthy entry for the permuted order.
  EXPECT_EQ(cache.Plan(rig.Request(shuffled)).stats.cache_outcome, CacheOutcome::kHit);
}

// A collision whose two batches differ in length granularity (multiples of
// 64 against odd lengths) sorts on different radix digits; the pairing still
// sees the length mismatch and reports a miss.
TEST(PlanCacheTest, CollisionAcrossGranularitiesIsAMiss) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service, {.near_match = false});
  Batch planted, other;
  Rng rng(0x6a1);
  for (int i = 0; i < 128; ++i) {
    planted.seq_lens.push_back(64 * (1 + static_cast<int64_t>(rng.NextBounded(64))));
    other.seq_lens.push_back(1 + 2 * static_cast<int64_t>(rng.NextBounded(2048)));
  }
  ASSERT_EQ(cache.Plan(rig.Request(planted)).stats.cache_outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(cache.RekeyEntryForTest(rig.Request(planted), rig.Request(other)));

  EXPECT_FALSE(cache.TryServe(rig.Request(other)).has_value());
  const PlanResponse miss = cache.Plan(rig.Request(other));
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().verify_failures, 0u);
}

// PlanCache is an in-process API without the daemon's wire bounds: a request
// colliding with a cached entry while carrying a negative or over-wide length
// must come back as a miss from the lookup, not abort in the key sort.
TEST(PlanCacheTest, OutOfRangeCollisionIsAMissNotAnAbort) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service, {.near_match = false});
  const Batch planted = SampleBatch(128, 0x0b0);
  for (const int64_t bad : {int64_t{-64}, int64_t{1} << 43}) {
    Batch other = Permuted(planted, 0x0b1);
    other.seq_lens[5] = bad;
    cache.Plan(rig.Request(planted));
    ASSERT_TRUE(cache.RekeyEntryForTest(rig.Request(planted), rig.Request(other)));
    EXPECT_FALSE(cache.TryServe(rig.Request(other)).has_value()) << bad;
  }
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().verify_failures, 0u);
}

TEST(PlanCacheTest, SessionRequestsBypassTheCache) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(64, 0x5e5);
  PlanRequest request = rig.Request(batch);
  request.stream_id = "stream";
  const PlanResponse response = cache.Plan(request);
  EXPECT_EQ(response.stats.cache_outcome, CacheOutcome::kBypass);
  EXPECT_EQ(cache.counters().bypasses, 1u);
  EXPECT_EQ(cache.size(), 0u);
  service.CloseSession("stream");
}

TEST(PlanCacheTest, ConcurrentMixedTrafficIsSafe) {
  Rig rig;
  PlannerService service;
  PlanCacheOptions options;
  options.capacity = 8;
  PlanCache cache(&service, options);
  std::vector<Batch> batches;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    batches.push_back(SampleBatch(128, 0xc0 + seed));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xf00 + t);
      for (int i = 0; i < 40; ++i) {
        const Batch& batch = batches[rng.NextBounded(batches.size())];
        const PlanResponse response = cache.Plan(rig.Request(batch));
        ASSERT_NE(response.plan, nullptr);
        ASSERT_TRUE(response.stats.verified);
        ASSERT_EQ(response.plan->total_tokens(), batch.total_tokens());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const PlanCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits + counters.misses + counters.near_matches, 160u);
  EXPECT_LE(cache.size(), 8u);
}

}  // namespace
}  // namespace zeppelin
