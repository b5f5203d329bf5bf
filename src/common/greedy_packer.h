// Round-batched exact greedy packer — the planner's bulk packing kernel.
//
// The planner's Alg. 1 z01 packing onto nodes (in the sharded engine and the
// delta planner's node re-pack) is a non-increasing weight stream placed
// greedily on the least-loaded bucket, ties broken by lowest index. The
// LoadTracker heap answers each placement in O(log n), but at S=64k that is
// still ~6 dependent cache hops per sequence and dominates Plan(). Alg. 2's
// z0 packing is the same process over only a node's p devices; there a
// plain linear argmin per item is cheaper than this class's sort and merges,
// so it does not go through here.
//
// This class computes the *identical* placement sequence in bulk. It keeps
// the packed (load << 20 | index) keys as a sorted array and exploits a
// provable property of descending-weight greedy: if every weight in a block
// of m consecutive items exceeds the gaps it competes with, the block's
// placements are exactly the m least-loaded buckets in (load, index) order.
// Formally, item j of the block goes to the bucket of the j-th smallest key
// k_(j) iff
//
//     k_(j) < min_{i < j} (k_(i) + (w_i << 20))        for all j in [0, m),
//
// i.e. no earlier placement of the block re-descends below the j-th key (the
// comparison is on packed keys, so the (load, index) tie-break is exact).
// Checking the condition is one prefix-min sweep; a committed block costs
// O(m) instead of O(m log n). Two fast sub-cases make the common workloads
// nearly free:
//
//   - Equal-weight blocks (lengths are granularity-quantized, so descending
//     order is full of long equal runs): the condition collapses to one
//     comparison, spread < w, and the key array stays sorted after the bulk
//     add — no merge at all.
//   - Mixed blocks: the largest valid prefix is committed and the updated
//     prefix is merged back (nearly-sorted insertion sort + one allocation-
//     free forward merge, O(m + inversions + n)).
//
// When blocks stop committing (weights far below the load spread — the
// "valley filling" regime after a cliff in the length distribution), the
// packer drops into a LoadTracker heap for a stretch and retries rounds
// after; the heap is the exact same (load, index) order, so the output is
// identical placement-for-placement either way. An op counter analogous to
// LoadTracker::ops() lets tests pin the bulk behavior.
#ifndef SRC_COMMON_GREEDY_PACKER_H_
#define SRC_COMMON_GREEDY_PACKER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/load_tracker.h"

namespace zeppelin {

class GreedyPacker {
 public:
  GreedyPacker() = default;
  explicit GreedyPacker(int n) { Reset(n); }

  // Re-initializes to n buckets with zero loads. Reuses storage.
  void Reset(int n);
  // Re-initializes from explicit non-negative loads.
  void Assign(const std::vector<int64_t>& loads);

  int size() const { return num_buckets_; }
  // Reads the current per-bucket loads back (overwrites `out`). O(n).
  void Loads(std::vector<int64_t>* out) const;

  // Work counter: ~1 per placed item plus the merge/heap traffic. A caller
  // that expects bulk commits can assert ops() stays near the item count.
  int64_t ops() const { return ops_ + heap_.ops(); }
  void ResetOps() {
    ops_ = 0;
    heap_.ResetOps();
  }

  // Places items [0, count) with non-increasing weights weight(i) >= 0 on the
  // least-loaded bucket each, exactly like LoadTracker::pack_min(w, cap)
  // would, calling emit(i, bucket, weight(i)) per placement in stream order
  // (the weight is passed along so callers need not re-decode it). Returns
  // `count` when everything fits, otherwise the index of the first item whose
  // greedy bucket would exceed `cap` (that item and its successors are not
  // placed; earlier placements remain applied, matching the sequential
  // semantics the overflow-restart logic depends on). After an overflow
  // return the internal key order is unspecified but Loads() stays exact —
  // reseed with Reset() or Assign() before packing again, which is exactly
  // what the planner's restart loops do.
  template <typename WeightFn, typename EmitFn>
  int Pack(int count, int64_t cap, WeightFn&& weight, EmitFn&& emit) {
    if (count > 0) {
      ZCHECK_GT(num_buckets_, 0) << "Pack() on an empty packer";
    }
    int i = 0;
    int bad_streak = 0;
    while (i < count) {
      if (heap_mode_) {
        // Ride the heap for up to one block, then try rounds again.
        const int stop = std::min(count, i + num_buckets_);
        while (i < stop) {
          const int64_t w = weight(i);
          const int bucket = heap_.pack_min(w, cap);
          if (bucket < 0) {
            return i;
          }
          emit(i, bucket, w);
          ++i;
        }
        ExitHeapMode();
        bad_streak = 0;
        continue;
      }
      int m = std::min(num_buckets_, count - i);
      const int64_t w_first = weight(i);
      ops_ += m;
      // Length of the equal-weight run at the block head (weights are
      // non-increasing, so one backward probe + a short scan finds it).
      int run = m;
      if (w_first != weight(i + m - 1)) {
        run = 1;
        while (run < m && weight(i + run) == w_first) {
          ++run;
        }
      }
      if (run >= m || run >= kMinUniformRun) {
        // Equal-weight block: placements are keys_[0..run) in order, and the
        // bulk add keeps the prefix sorted — full blocks need no merge.
        m = run;
        const int64_t wk = w_first << kIndexBits;
        if (keys_[m - 1] < keys_[0] + wk) {
          if ((keys_[m - 1] >> kIndexBits) + w_first > cap) {
            // Loads ascend with j, so the first overflow stops the stream
            // (and j = m-1 overflows, so this loop always returns).
            for (int j = 0; j < m; ++j) {
              if ((keys_[j] >> kIndexBits) + w_first > cap) {
                return i + j;
              }
              emit(i + j, static_cast<int>(keys_[j] & kIndexMask), w_first);
              keys_[j] += wk;
            }
          }
          if (m == num_buckets_) {
            for (int j = 0; j < m; ++j) {
              emit(i + j, static_cast<int>(keys_[j] & kIndexMask), w_first);
              keys_[j] += wk;
            }
          } else {
            for (int j = 0; j < m; ++j) {
              emit(i + j, static_cast<int>(keys_[j] & kIndexMask), w_first);
              tmp_[j] = keys_[j] + wk;
            }
            MergeTmpPrefix(m);
          }
          i += m;
          bad_streak = 0;
          continue;
        }
      }
      m = std::min(num_buckets_, count - i);
      // Mixed block: commit the longest prefix that satisfies the round
      // condition, then restore sortedness with one merge.
      int64_t prefix_min = INT64_MAX;
      int q = 0;
      for (int j = 0; j < m; ++j) {
        if (keys_[j] >= prefix_min) {
          break;  // An earlier placement re-descended below this key.
        }
        const int64_t w = weight(i + j);
        if ((keys_[j] >> kIndexBits) + w > cap) {
          if (j == 0) {
            return i;  // The true argmin overflows: sequential stop.
          }
          break;  // Re-examined by the next attempt against merged keys.
        }
        const int64_t new_key = keys_[j] + (w << kIndexBits);
        prefix_min = std::min(prefix_min, new_key);
        tmp_[j] = new_key;
        emit(i + j, static_cast<int>(keys_[j] & kIndexMask), w);
        ++q;
      }
      // The updated keys are nearly sorted (ascending keys plus descending
      // weights); insertion sort then one forward merge, allocation-free.
      for (int a = 1; a < q; ++a) {
        const int64_t key = tmp_[a];
        int b = a;
        while (b > 0 && tmp_[b - 1] > key) {
          tmp_[b] = tmp_[b - 1];
          --b;
        }
        tmp_[b] = key;
      }
      MergeTmpPrefix(q);
      i += q;
      if (q < m / 4) {
        if (++bad_streak >= 2) {
          EnterHeapMode();
          bad_streak = 0;
        }
      } else {
        bad_streak = 0;
      }
    }
    if (heap_mode_) {
      ExitHeapMode();
    }
    return count;
  }

 private:
  // Same packed-key layout as LoadTracker: (load << 20) | bucket index.
  static constexpr int kIndexBits = 20;
  static constexpr int64_t kIndexMask = (int64_t{1} << kIndexBits) - 1;
  static constexpr int64_t kMaxLoad = int64_t{1} << (62 - kIndexBits);
  // Shorter equal-weight runs go through the mixed path, which amortizes its
  // merge over up to a whole block of heterogeneous weights.
  static constexpr int kMinUniformRun = 8;

  void EnterHeapMode();
  void ExitHeapMode();

  // Forward merge of the staged sorted prefix tmp_[0..q) with the untouched
  // sorted suffix keys_[q..n) into keys_[0..n). Allocation-free and safe: the
  // destination cursor d = a + b - q never passes the suffix read cursor b,
  // and the prefix region it overwrites is already staged in tmp_. Once the
  // staged prefix is exhausted the remaining suffix is already in place.
  void MergeTmpPrefix(int q) {
    ops_ += num_buckets_;
    int a = 0;
    int b = q;
    int d = 0;
    while (a < q && b < num_buckets_) {
      keys_[d++] = tmp_[a] < keys_[b] ? tmp_[a++] : keys_[b++];
    }
    while (a < q) {
      keys_[d++] = tmp_[a++];
    }
  }

  int num_buckets_ = 0;
  std::vector<int64_t> keys_;  // Sorted ascending (round mode).
  std::vector<int64_t> tmp_;
  LoadTracker heap_;           // Valley-regime fallback engine.
  bool heap_mode_ = false;
  mutable std::vector<int64_t> loads_tmp_;
  int64_t ops_ = 0;
};

}  // namespace zeppelin

#endif  // SRC_COMMON_GREEDY_PACKER_H_
