#include "src/common/load_tracker.h"

#include <numeric>

#include "src/common/check.h"

namespace zeppelin {

void LoadTracker::Reset(int n) {
  ZCHECK(n >= 0 && static_cast<int64_t>(n) <= kIndexMask + 1) << "n=" << n;
  heap_.resize(n);
  pos_.resize(n);
  // With all loads equal the order is by index alone, so the identity
  // permutation is already a valid heap.
  std::iota(heap_.begin(), heap_.end(), int64_t{0});
  std::iota(pos_.begin(), pos_.end(), 0);
  popped_ = 0;
  ++ops_;
}

void LoadTracker::Assign(const std::vector<int64_t>& loads) {
  const int n = static_cast<int>(loads.size());
  ZCHECK(static_cast<int64_t>(n) <= kIndexMask + 1) << "n=" << n;
  heap_.resize(n);
  pos_.resize(n);
  for (int i = 0; i < n; ++i) {
    ZCHECK(loads[i] >= 0 && loads[i] < kMaxLoad) << "load=" << loads[i];
    heap_[i] = (loads[i] << kIndexBits) | i;
    pos_[i] = i;
  }
  for (int p = n / 2 - 1; p >= 0; --p) {
    SiftDownBounded(p, heap_[p], n);
  }
  popped_ = 0;
  ++ops_;
}

void LoadTracker::Snapshot(std::vector<int64_t>* out) const {
  const int n = size();
  out->resize(n);
  for (int i = 0; i < n; ++i) {
    (*out)[i] = heap_[pos_[i]] >> kIndexBits;
  }
}

void LoadTracker::k_least(int k, std::vector<int>* out) {
  pop_least(k, out);
  for (int i = k - 1; i >= 0; --i) {
    push_popped((*out)[i], 0);
  }
}

void LoadTracker::pop_least(int k, std::vector<int>* out) {
  const int n = size();
  ZCHECK(k >= 0 && k <= n && popped_ == 0) << "k=" << k << " n=" << n << " popped=" << popped_;
  out->clear();
  ++ops_;
  // Pop k minima (ascending (load, index) by construction). Popped keys are
  // parked in the heap slots the pops vacate (positions [n-k, n)), with
  // pos_ pointing at them, so push_popped needs no side storage.
  for (int i = 0; i < k; ++i) {
    const int64_t top = heap_[0];
    out->push_back(static_cast<int>(top & kIndexMask));
    const int live = n - i - 1;  // Heap size after this pop.
    const int64_t last = heap_[live];
    heap_[live] = top;
    pos_[top & kIndexMask] = live;
    if (live > 0) {
      SiftDownBounded(0, last, live);
    }
  }
  popped_ = k;
}

}  // namespace zeppelin
