// Sharded planner engine, the production engine (see the header comment in
// partitioner.h). It runs inline on the caller's thread.
//
// Layout of one Partition() call:
//
//   1. Key build + value radix sort: sequences become packed
//      ((kLenMask - len) << 20 | id) keys; sorting the values directly gives
//      the length-descending, id-ascending order with zero gathers, and the
//      granularity of the lengths (trailing zero bits shared by every length)
//      narrows the digit range — quantized workloads sort in one pass.
//   2. Inter-node stage: Alg. 1. The z2 chunking uses the LoadTracker (few,
//      long sequences); the z01 packing runs through the round-batched
//      GreedyPacker and emits each sequence's key straight into its node's
//      list — the per-node lists ARE the shard handoff to stage 3. Batching
//      is what makes this stage cheap: greedy list scheduling is P-complete,
//      so the decision stream itself is sequential.
//   3. Intra-node stage: Alg. 2, node by node, into per-node RingStores
//      (node-local arena offsets) through one reused scratch slab.
//   4. Merge: per-node results copy into the plan's flat arrays — locals,
//      ring headers (offset-shifted), and arena slices (one memcpy per node)
//      — in node order, byte-identical to the naive engine's append order,
//      with no per-ring allocation anywhere.
#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "src/common/check.h"
#include "src/core/partitioner.h"
#include "src/core/partitioner_internal.h"

namespace zeppelin {

using planner_internal::AdvanceZoneBoundary;
using planner_internal::EmitRing;
using planner_internal::ExpandChunkBase;
using planner_internal::ForEachFragment;
using planner_internal::FragmentZone1;
using planner_internal::InterNodeChunkCount;
using planner_internal::KeyId;
using planner_internal::KeyLen;
using planner_internal::kIdxBits;
using planner_internal::kIdxMask;
using planner_internal::kLenMask;
using planner_internal::PackKey;

namespace planner_internal {

int64_t BuildSortedKeys(const std::vector<int64_t>& lens, std::vector<uint64_t>* keys,
                        std::vector<uint64_t>* tmp, std::vector<int>* count) {
  const size_t n = lens.size();
  ZCHECK_LE(static_cast<uint64_t>(n), kIdxMask + 1) << "batch too large for packed keys";
  keys->resize(n);
  tmp->resize(n);

  // Summed unsigned: an out-of-range length must not overflow before the
  // range check below rejects it. In range, the sum fits (2^20 ids x 2^43).
  uint64_t total = 0;
  int64_t max_len = 0;
  uint64_t or_acc = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t len = lens[i];
    total += static_cast<uint64_t>(len);
    max_len = std::max(max_len, len);
    or_acc |= static_cast<uint64_t>(len);
    (*keys)[i] = PackKey(len, static_cast<int>(i));
  }
  // One range check for the whole batch: a negative length sets the high bits
  // of or_acc (two's complement), an oversized one exceeds the mask directly.
  if (or_acc > kLenMask) {
    return -1;
  }

  const int lo = or_acc == 0 ? 0 : std::countr_zero(or_acc);
  const int hi = std::bit_width(static_cast<uint64_t>(max_len));
  for (int shift = lo; shift < hi;) {
    const int digit_bits = std::min(16, hi - shift);
    const uint64_t digit_mask = (uint64_t{1} << digit_bits) - 1;
    const int key_shift = kIdxBits + shift;
    count->assign(size_t{1} << digit_bits, 0);
    for (uint64_t key : *keys) {
      ++(*count)[(key >> key_shift) & digit_mask];
    }
    int running = 0;
    for (int& c : *count) {
      const int digits = c;
      c = running;
      running += digits;
    }
    for (uint64_t key : *keys) {
      (*tmp)[(*count)[(key >> key_shift) & digit_mask]++] = key;
    }
    keys->swap(*tmp);
    shift += digit_bits;
  }
  return static_cast<int64_t>(total);
}

}  // namespace planner_internal

namespace {

// z0 argmin keys pack (load << kIdxBits) | device; a load below this bound
// keeps the shifted key clear of the sign bit.
constexpr int64_t kMaxDeviceLoad = int64_t{1} << (62 - kIdxBits);

// First position in the sorted key array whose length drops below
// `threshold` — the zone boundary index. O(log n).
int KeyBoundary(const std::vector<uint64_t>& keys, int64_t threshold) {
  if (static_cast<uint64_t>(threshold) > kLenMask) {
    return 0;  // No representable length reaches the threshold.
  }
  const uint64_t limit = ((kLenMask - static_cast<uint64_t>(threshold)) << kIdxBits) | kIdxMask;
  return static_cast<int>(std::partition_point(keys.begin(), keys.end(),
                                               [limit](uint64_t k) { return k <= limit; }) -
                          keys.begin());
}

}  // namespace

// --- Inter-node stage (Alg. 1), sharded engine --------------------------------

void SequencePartitioner::PartitionInterNodeSharded(const Batch& batch, PartitionPlan* plan,
                                                    PlannerScratch* s) const {
  const int num_nodes = cluster_.num_nodes;
  const int p = cluster_.gpus_per_node;
  const int64_t node_capacity = static_cast<int64_t>(p) * options_.token_capacity;
  const int n = batch.size();

  const int64_t total =
      planner_internal::BuildSortedKeys(batch.seq_lens, &s->keys, &s->keys_tmp, &s->key_count);
  ZCHECK_GE(total, 0) << "sequence length out of key range";
  s->batch_total = total;
  ZCHECK_LE(total, static_cast<int64_t>(num_nodes) * node_capacity)
      << "batch does not fit the cluster at capacity L=" << options_.token_capacity;

  // Rank-list template per node (single-node rings memcpy it).
  s->node_ranks.resize(num_nodes);
  for (int node = 0; node < num_nodes; ++node) {
    s->node_ranks[node].resize(p);
    std::iota(s->node_ranks[node].begin(), s->node_ranks[node].end(), node * p);
  }

  int64_t s1 = node_capacity;  // Alg. 1 line 2.
  if (options_.max_inter_threshold > 0) {
    s1 = std::min(s1, options_.max_inter_threshold);
  }
  int boundary = KeyBoundary(s->keys, s1);
  // Running sum of the first `boundary` lengths; a restart only advances the
  // boundary, so the total decode work stays O(n) across all restarts.
  int64_t z2_total = 0;
  for (int i = 0; i < boundary; ++i) {
    z2_total += KeyLen(s->keys[i]);
  }
  s->placed_node.resize(n);

  auto record_chunk = [&](int node, int64_t chunk) {
    planner_internal::RecordChunkAggregate(node, chunk, p, &s->node_chunk_whole,
                                           &s->node_chunk_rem);
  };
  auto emit_single_node = [&](int id, int64_t len, int node) {
    int* out = EmitRing(&plan->intra_node, &s->intra_ring_count, &plan->rank_arena,
                        &s->arena_count, id, len, Zone::kIntraNode, p);
    std::memcpy(out, s->node_ranks[node].data(), sizeof(int) * p);
    record_chunk(node, len);
  };

  int restarts = 0;
  // Incremental-restart shortcut: when the aborted pass was pure z01 packing
  // (empty z2) and every promoted sequence still chunks to k == 1 under the
  // new s_avg, a full replay would place those very sequences on the very
  // same nodes — so the restart only re-labels them (shard lists ->
  // single-node z2 rings, read back from placed_node) and resumes where the
  // aborted pass stopped.
  int continue_from = -1;
  for (;;) {
    int z2_start = 0;
    if (continue_from >= 0) {
      // Re-label [0, continue_from): ring order matches a replay (it is the
      // key order), chunk aggregates rebuild from zero (z2 was empty), and
      // the packer's loads carry over exactly. The aborted pass emitted no
      // rings, so header slot i and arena slice [i*p, (i+1)*p) are fully
      // determined by the sequence index alone.
      const size_t relabel_rings = static_cast<size_t>(continue_from);
      if (plan->intra_node.size() < relabel_rings) {
        plan->intra_node.resize(relabel_rings);
      }
      if (plan->rank_arena.size() < relabel_rings * p) {
        plan->rank_arena.resize(relabel_rings * p);
      }
      for (size_t i = 0; i < relabel_rings; ++i) {
        const uint64_t key = s->keys[i];
        const int node = s->placed_node[i];
        const int64_t len = KeyLen(key);
        RingRef& ring = plan->intra_node[i];
        ring.seq_id = KeyId(key);
        ring.length = len;
        ring.zone = Zone::kIntraNode;
        ring.rank_offset = static_cast<uint32_t>(i) * static_cast<uint32_t>(p);
        ring.rank_count = static_cast<uint32_t>(p);
        std::memcpy(plan->rank_arena.data() + i * p, s->node_ranks[node].data(),
                    sizeof(int) * p);
        record_chunk(node, len);
      }
      s->intra_ring_count = relabel_rings;
      s->arena_count = relabel_rings * p;
      s->node_packer.Loads(&s->node_loads_tmp);
      s->node_loads.Assign(s->node_loads_tmp);
      z2_start = continue_from;
      continue_from = -1;
    } else {
      s->node_chunk_whole.assign(num_nodes, 0);
      s->node_chunk_rem.assign(static_cast<size_t>(num_nodes) * p, 0);
      // Rewind all ring emission (headers + arena slots are recycled).
      s->inter_ring_count = 0;
      s->intra_ring_count = 0;
      s->arena_count = 0;
      s->node_loads.Reset(num_nodes);
    }

    // Chunk placement for z2 (lines 7-10), heap-based: z2 holds few, long
    // sequences.
    const double s_avg = static_cast<double>(z2_total) / num_nodes;
    for (int i = z2_start; i < boundary; ++i) {
      const uint64_t key = s->keys[i];
      const int id = KeyId(key);
      const int64_t len = KeyLen(key);
      const int k = InterNodeChunkCount(len, s_avg, num_nodes);

      if (k == 1) {
        emit_single_node(id, len, s->node_loads.add_min(len));
        continue;
      }

      // The k least-loaded nodes leave the heap and go back once each, with
      // their chunk added.
      s->node_loads.pop_least(k, &s->least);
      std::sort(s->least.begin(), s->least.end());  // Keep ring order node-ascending.
      int* out = EmitRing(&plan->inter_node, &s->inter_ring_count, &plan->rank_arena,
                          &s->arena_count, id, len, Zone::kInterNode, k * p);
      for (int node : s->least) {
        const int rank_base = node * p;
        for (int local = 0; local < p; ++local) {
          *out++ = rank_base + local;
        }
      }
      int64_t prev_edge = 0;
      for (int c = 0; c < k; ++c) {
        const int64_t edge = len * (c + 1) / k;
        const int64_t chunk = edge - prev_edge;
        prev_edge = edge;
        record_chunk(s->least[c], chunk);
        s->node_loads.push_popped(s->least[c], chunk);
      }
    }

    // Round-batched z01 packing (lines 11-19): bulk-committed placements,
    // sharded straight into per-node key lists.
    s->node_loads_tmp.resize(num_nodes);
    for (int node = 0; node < num_nodes; ++node) {
      s->node_loads_tmp[node] = s->node_loads.load(node);
    }
    s->node_packer.Assign(s->node_loads_tmp);
    const uint64_t* z01 = s->keys.data() + boundary;
    const int count = n - boundary;
    // Packing writes only the placement stream (4 bytes per sequence); the
    // per-node shard lists are built by one scatter pass after the pass
    // succeeds, so an overflow-doomed pass never pays for them.
    int* placed = s->placed_node.data() + boundary;
    const int packed = s->node_packer.Pack(
        count, node_capacity, [z01](int i) { return KeyLen(z01[i]); },
        [&](int i, int node, int64_t /*len*/) { placed[i] = node; });
    if (packed == count) {
      for (int node = 0; node < num_nodes; ++node) {
        s->node_items[node].clear();
      }
      for (int i = 0; i < count; ++i) {
        s->node_items[placed[i]].push_back(z01[i]);
      }
      break;
    }
    // Overflow: shrink s1 to max(z01) = the overflowing length and promote
    // every sequence of length >= it into z2 — a contiguous block, so the
    // boundary just advances (no re-sort, no zone re-split).
    const int nb = AdvanceZoneBoundary(
        n, boundary + packed, [&](int j) { return KeyLen(s->keys[j]); }, &s1);
    for (int i = boundary; i < nb; ++i) {
      z2_total += KeyLen(s->keys[i]);
    }
    // Incremental-continuation test: the aborted pass must have been pure
    // z01 packing, and under the new s_avg even the longest promoted
    // sequence must chunk to a single node. Then the replay is a no-op
    // re-labelling.
    const double next_avg = static_cast<double>(z2_total) / num_nodes;
    if (boundary == 0 &&
        static_cast<double>(KeyLen(s->keys[0])) <= std::max(next_avg, 1.0)) {
      continue_from = packed;
    }
    boundary = nb;
    // The boundary strictly advances on every restart, so more than n
    // restarts means a broken invariant; fall back to the reference greedy
    // once rather than looping.
    if (++restarts > n) {
      // The naive path rewinds the emission cursors itself and re-emits
      // every ring into the recycled plan storage.
      PartitionInterNodeNaive(batch, plan, s);
      // Rebuild the shard lists and chunk aggregates the intra stage reads.
      s->node_chunk_whole.assign(num_nodes, 0);
      s->node_chunk_rem.assign(static_cast<size_t>(num_nodes) * p, 0);
      for (int node = 0; node < num_nodes; ++node) {
        s->node_items[node].clear();
        for (const auto& [seq_id, chunk] : s->assignments[node].inter_chunks) {
          record_chunk(node, chunk);
        }
        for (int id : s->assignments[node].sequences) {
          s->node_items[node].push_back(PackKey(batch.seq_lens[id], id));
        }
      }
      return;
    }
  }
  plan->threshold_s1 = s1;
}

// --- Intra-node stage (Alg. 2), sharded engine --------------------------------

void SequencePartitioner::PartitionIntraNodeSharded(int node, PlannerScratch* s) const {
  const int p = cluster_.gpus_per_node;
  const int rank_base = node * p;
  const int64_t capacity = options_.token_capacity;
  IntraSlab& slab = s->intra_slab;
  NodeIntraResult& res = s->intra_results[node];
  const std::vector<uint64_t>& items = s->node_items[node];
  const int n = static_cast<int>(items.size());

  // Inter-node chunk spreading (lines 4-6) from the aggregates the inter
  // stage recorded; zone-independent, so hoisted out of the restart loop.
  ExpandChunkBase(s->node_chunk_whole, s->node_chunk_rem, node, p, p, &slab.chunk_base);
  slab.keys.resize(p);

  int64_t s0 = capacity;  // Alg. 2 line 1.
  if (options_.max_local_threshold > 0) {
    s0 = std::min(s0, options_.max_local_threshold);
  }
  int boundary = KeyBoundary(items, s0);

  int restarts = 0;
  for (;;) {
    res.rings.Reset();
    res.locals.clear();
    res.locals_z1.clear();
    slab.loads = slab.chunk_base;

    // Quadratic-balanced fragmentation of intra-node sequences (lines 8-12),
    // via the shared pass (cursor progression and fragment counts are
    // equivalence-critical across engines).
    FragmentZone1(
        boundary, p, [&](int i) { return KeyLen(items[i]); },
        [&](int i, int64_t len, int fragments, int cursor) {
          int* out = res.rings.Append(KeyId(items[i]), len, Zone::kIntraNode, fragments);
          ForEachFragment(len, fragments, cursor, p, [&](int f, int device, int64_t share) {
            out[f] = rank_base + device;
            slab.loads[device] += share;
          });
        },
        [&](int i, int64_t len, int device) {
          // A single-fragment "ring" is a local kernel (lands after this
          // node's z0 locals, like the reference path's ring conversion).
          res.locals_z1.push_back({KeyId(items[i]), len, rank_base + device});
          slab.loads[device] += len;
        });

    // z0 packing onto least-loaded devices (lines 13-21): a linear argmin
    // per sequence over the node's p devices. Device keys (load << kIdxBits
    // | device) make the (load, index) order a plain minimum, which compiles
    // branch-free. If the argmin does not fit, no device does, so the pass
    // stops there.
    int64_t* keys = slab.keys.data();
    for (int d = 0; d < p; ++d) {
      ZCHECK_LT(slab.loads[d], kMaxDeviceLoad) << "device load out of range";
      keys[d] = (slab.loads[d] << kIdxBits) | d;
    }
    int overflow = -1;
    for (int i = boundary; i < n; ++i) {
      const int64_t len = KeyLen(items[i]);
      int64_t least = keys[0];
      for (int d = 1; d < p; ++d) {
        least = std::min(least, keys[d]);
      }
      if ((least >> kIdxBits) + len > capacity) {
        overflow = i;
        break;
      }
      const int device = static_cast<int>(least & kIdxMask);
      keys[device] = least + (len << kIdxBits);
      res.locals.push_back({KeyId(items[i]), len, rank_base + device});
    }
    if (overflow < 0) {
      break;
    }
    // Shrink s0 to max(z0) = the overflowing length; promoted sequences form
    // a contiguous block, so the boundary just advances.
    boundary = AdvanceZoneBoundary(
        n, overflow, [&](int j) { return KeyLen(items[j]); }, &s0);
    // The boundary strictly advances on every restart, so the chain is
    // bounded by the node's sequence count.
    ZCHECK_LE(++restarts, n) << "intra-node restart chain exceeded its bound";
  }

  res.device_loads.resize(p);
  for (int d = 0; d < p; ++d) {
    res.device_loads[d] = slab.keys[d] >> kIdxBits;
  }
  res.threshold_s0 = s0;
}

// --- Driver -------------------------------------------------------------------

void SequencePartitioner::PartitionSharded(const Batch& batch, PlannerScratch* scratch,
                                           PartitionPlan* plan) const {
  const int num_nodes = cluster_.num_nodes;
  const int p = cluster_.gpus_per_node;

  scratch->node_packer.ResetOps();
  scratch->node_items.resize(num_nodes);
  scratch->intra_results.resize(num_nodes);

  PartitionInterNodeSharded(batch, plan, scratch);
  for (int node = 0; node < num_nodes; ++node) {
    PartitionIntraNodeSharded(node, scratch);
  }

  // Merge per-node results in node order — identical bytes to the naive
  // engine's per-node append order. Storage is sized once from the per-node
  // counts (exactly: plans are cached and shared, so capacity slack would be
  // held for their lifetime), then each node's locals, shifted ring headers
  // and arena slice are copied behind the previous node's.
  size_t local_total = 0;
  size_t ring_total = scratch->intra_ring_count;
  size_t rank_total = scratch->arena_count;
  for (const NodeIntraResult& res : scratch->intra_results) {
    local_total += res.locals.size() + res.locals_z1.size();
    ring_total += res.rings.ref_count;
    rank_total += res.rings.rank_count;
  }
  plan->local.reserve(local_total);
  if (plan->intra_node.size() < ring_total) {
    plan->intra_node.resize(ring_total);
  }
  if (plan->rank_arena.size() < rank_total) {
    plan->rank_arena.resize(rank_total);
  }
  for (int node = 0; node < num_nodes; ++node) {
    const NodeIntraResult& res = scratch->intra_results[node];
    plan->local.insert(plan->local.end(), res.locals.begin(), res.locals.end());
    plan->local.insert(plan->local.end(), res.locals_z1.begin(), res.locals_z1.end());

    // Headers shift from node-local to plan-arena offsets; ranks are one
    // contiguous slice copy.
    RingRef* headers = plan->intra_node.data() + scratch->intra_ring_count;
    const uint32_t shift = static_cast<uint32_t>(scratch->arena_count);
    for (size_t i = 0; i < res.rings.ref_count; ++i) {
      RingRef ring = res.rings.refs[i];
      ring.rank_offset += shift;
      headers[i] = ring;
    }
    if (res.rings.rank_count > 0) {
      std::memcpy(plan->rank_arena.data() + scratch->arena_count, res.rings.arena.data(),
                  sizeof(int) * res.rings.rank_count);
    }
    scratch->intra_ring_count += res.rings.ref_count;
    scratch->arena_count += res.rings.rank_count;

    for (int d = 0; d < p; ++d) {
      plan->tokens_per_rank[node * p + d] += res.device_loads[d];
    }
    plan->threshold_s0[node] = res.threshold_s0;
  }

  plan->inter_node.resize(scratch->inter_ring_count);
  plan->intra_node.resize(scratch->intra_ring_count);
  plan->rank_arena.resize(scratch->arena_count);
}

}  // namespace zeppelin
