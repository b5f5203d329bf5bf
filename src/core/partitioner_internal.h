// Helpers shared by the naive (partitioner.cc) and sharded
// (partitioner_parallel.cc) planner engines and the delta planner. The
// chunk/fragment count math lives here so the engines cannot drift apart —
// the bit-identical-plans contract depends on every path computing these
// identically.
#ifndef SRC_CORE_PARTITIONER_INTERNAL_H_
#define SRC_CORE_PARTITIONER_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/partitioner.h"

namespace zeppelin {
namespace planner_internal {

// Packed sequence key layout: high 43 bits (kLenMask - len), low 20 bits id.
// Ascending key order == (length descending, id ascending) — the zone order
// of Alg. 1 with the stable-sort tie-break. The plan cache pairs a permuted
// batch's slots with a cached plan's through the same order.
constexpr int kIdxBits = 20;
constexpr uint64_t kIdxMask = (uint64_t{1} << kIdxBits) - 1;
constexpr uint64_t kLenMask = (uint64_t{1} << 43) - 1;

inline uint64_t PackKey(int64_t len, int id) {
  return ((kLenMask - static_cast<uint64_t>(len)) << kIdxBits) | static_cast<uint64_t>(id);
}
inline int64_t KeyLen(uint64_t key) { return static_cast<int64_t>(kLenMask - (key >> kIdxBits)); }
inline int KeyId(uint64_t key) { return static_cast<int>(key & kIdxMask); }

// Fills `keys` with PackKey(lens[i], i) sorted ascending and returns the total
// of `lens` (folded into the same pass), or -1 when a length is negative or
// wider than kLenMask — `keys` is then unsorted, and each caller applies its
// own policy (the engine aborts, the plan cache reports a miss). LSD radix
// over only the bits that actually vary: bits below the common granularity
// and above bit_width(max_len) are constant across all keys and need no pass.
// `tmp` and `count` are scratch. ZCHECKs that lens.size() fits the id field.
int64_t BuildSortedKeys(const std::vector<int64_t>& lens, std::vector<uint64_t>* keys,
                        std::vector<uint64_t>* tmp, std::vector<int>* count);

// Number of node buckets a z2 sequence is chunked over (Alg. 1 line 8).
inline int InterNodeChunkCount(int64_t len, double s_avg, int num_nodes) {
  int k = static_cast<int>(std::ceil(static_cast<double>(len) / std::max(s_avg, 1.0)));
  return std::clamp(k, 1, num_nodes);
}

// Number of fragments a z1 sequence is split into (Alg. 2 line 9).
inline int IntraNodeFragmentCount(double len, double c_avg, int p) {
  int fragments = static_cast<int>(std::ceil(len * len / std::max(c_avg, 1.0)));
  return std::clamp(fragments, 1, p);
}

// Records one inter-node chunk of `chunk` tokens on `node` in the aggregate
// form the intra stage consumes: the sum of whole per-device shares
// floor(chunk/p) and a histogram of remainders chunk % p. Every producer (the
// sharded engine and its re-label pass) must encode chunks identically or the
// bit-identical-plans contract breaks.
inline void RecordChunkAggregate(int node, int64_t chunk, int p, std::vector<int64_t>* whole,
                                 std::vector<int64_t>* rem) {
  const int64_t q = chunk / p;
  (*whole)[node] += q;
  ++(*rem)[node * p + (chunk - q * p)];
}

// Expands `node`'s recorded chunk aggregates into the exact per-device base
// loads (the inter-node chunk spreading of Alg. 2 lines 4-6) over the node's
// m devices: the share of a chunk q*m + r on device d is
// q + (floor((d+1)r/m) - floor(dr/m)). `stride` is the remainder histogram's
// row width (gpus per node); m is the divisor the chunks were recorded with —
// p for the sharded engine, the alive device count for the delta re-pack.
// Every intra-stage consumer must expand identically.
//
// Division-free: for a fixed r < m the bracket is 1 exactly when the running
// residue (d+1)r mod m wraps past m, so one accumulator per non-empty bucket
// replaces the two divisions per (d, r).
inline void ExpandChunkBase(const std::vector<int64_t>& whole, const std::vector<int64_t>& rem,
                            int node, int stride, int m, std::vector<int64_t>* out) {
  out->assign(m, whole[node]);
  const int64_t* row = rem.data() + static_cast<size_t>(node) * stride;
  int64_t* share = out->data();
  for (int r = 1; r < m; ++r) {
    const int64_t chunks = row[r];
    if (chunks == 0) {
      continue;
    }
    int residue = 0;
    for (int d = 0; d < m; ++d) {
      residue += r;
      if (residue >= m) {
        residue -= m;
        share[d] += chunks;
      }
    }
  }
}

// Causal-balanced fragment split: calls fn(f, device, share) for each of the
// `fragments` fragments of a length-`len` sequence placed round-robin from
// `cursor`. The edge arithmetic len*(f+1)/F - len*f/F is the emission-time
// split every engine (and the delta planner's load roll-back) must mirror.
// With len = q*F + r the share of fragment f is q plus 1 exactly when the
// running residue (f+1)r mod F wraps, so one division serves all fragments.
template <typename Fn>
inline void ForEachFragment(int64_t len, int fragments, int cursor, int p, Fn&& fn) {
  const int64_t whole = len / fragments;
  const int64_t rest = len - whole * fragments;
  int64_t residue = 0;
  int device = cursor % p;
  for (int f = 0; f < fragments; ++f) {
    residue += rest;
    int64_t share = whole;
    if (residue >= fragments) {
      residue -= fragments;
      ++share;
    }
    fn(f, device, share);
    if (++device == p) {
      device = 0;
    }
  }
}

// One z1 fragmentation pass of Alg. 2 (lines 8-12) over the zone-1 prefix
// [0, boundary): derives c_avg from the quadratic work sum, walks the
// round-robin cursor, and routes each sequence to emit_ring(i, len,
// fragments, cursor) or — for single-fragment sequences, which execute as
// local kernels — emit_local(i, len, device). The cursor progression and
// fragment counts are equivalence-critical; engines supply only storage.
template <typename LenFn, typename EmitRingFn, typename EmitLocalFn>
inline void FragmentZone1(int boundary, int p, LenFn&& len_of, EmitRingFn&& emit_ring,
                          EmitLocalFn&& emit_local) {
  if (boundary <= 0) {
    return;
  }
  double c_total = 0;
  for (int i = 0; i < boundary; ++i) {
    const double len = static_cast<double>(len_of(i));
    c_total += len * len;
  }
  const double c_avg = c_total / p;
  int cursor = 0;
  for (int i = 0; i < boundary; ++i) {
    const int64_t len = len_of(i);
    const int fragments = IntraNodeFragmentCount(static_cast<double>(len), c_avg, p);
    if (fragments == 1) {
      emit_local(i, len, cursor);
      cursor = (cursor + 1) % p;
    } else {
      emit_ring(i, len, fragments, cursor);
      cursor = (cursor + fragments) % p;
    }
  }
}

// The overflow-restart rule shared by every packing stage (Alg. 1 line 15 /
// Alg. 2 line 17): shrink the threshold to the overflowing length and
// advance the zone boundary past the contiguous equal-or-longer block (the
// order is length-descending, so promoted sequences are exactly that block).
template <typename LenFn>
inline int AdvanceZoneBoundary(int n, int overflow_index, LenFn&& len_of, int64_t* threshold) {
  *threshold = len_of(overflow_index);
  int nb = overflow_index + 1;
  while (nb < n && len_of(nb) >= *threshold) {
    ++nb;
  }
  return nb;
}

// Cursor-based ring emission into flat storage: writes a header into the
// recycled slot refs[*ref_count] and reserves `count` rank slots at the arena
// cursor, growing both containers only past their high-water mark (the
// cursor-recycling that keeps steady-state planning allocation-free). Rings
// therefore consume consecutive arena slots in emission order — the gap-free
// arena invariant of docs/PLAN_FORMAT.md. Returns the rank slot pointer,
// valid until the next emission grows the arena.
inline int* EmitRing(std::vector<RingRef>* refs, size_t* ref_count, std::vector<int>* arena,
                     size_t* arena_count, int seq_id, int64_t length, Zone zone, int count) {
  if (*ref_count == refs->size()) {
    refs->emplace_back();
  }
  RingRef& ring = (*refs)[(*ref_count)++];
  ring.seq_id = seq_id;
  ring.length = length;
  ring.zone = zone;
  ring.rank_offset = static_cast<uint32_t>(*arena_count);
  ring.rank_count = static_cast<uint32_t>(count);
  const size_t needed = *arena_count + static_cast<size_t>(count);
  if (arena->size() < needed) {
    arena->resize(needed);
  }
  int* slot = arena->data() + *arena_count;
  *arena_count = needed;
  return slot;
}

}  // namespace planner_internal
}  // namespace zeppelin

#endif  // SRC_CORE_PARTITIONER_INTERNAL_H_
