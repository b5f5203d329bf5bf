// Golden codec test: the production plan and wire encoders (bulk fixed-width
// stores into a buffer sized once) against reference oracles that write and
// read one byte at a time, exactly as the codec did before it was rewritten.
//
// Three checks pin the codec:
//   1. byte identity — SerializePlan, EncodeRequest, EncodeResponse and the
//      frame writers emit the oracle's bytes for seeded plans from every
//      engine (naive, sharded, delta-patched) plus the empty and S=1 edge
//      plans, and for requests/responses exercising every section;
//   2. golden residues — FNV-1a 64 of selected encodings are pinned as
//      constants (prst's res64 idiom), so a change to either encoder that
//      moved both in lockstep still fails;
//   3. parse parity — ParsePlan and ParseRequest return the oracle's status,
//      message and decoded value on every truncation and on seeded
//      corruptions of valid images.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/core/delta_planner.h"
#include "src/core/partitioner.h"
#include "src/core/plan_io.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/net/frame.h"
#include "src/net/wire.h"
#include "src/topology/cluster.h"

namespace zeppelin {
namespace {

// --- Reference oracles: the byte-at-a-time codec ----------------------------

namespace ref {

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(std::string* out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }
void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }
void PutF64(std::string* out, double v) { PutU64(out, std::bit_cast<uint64_t>(v)); }

struct Reader {
  const unsigned char* data;
  size_t size;
  size_t pos = 0;

  bool Have(size_t n) const { return size - pos >= n; }
  uint8_t GetU8() { return data[pos++]; }
  uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  }
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64() { return std::bit_cast<double>(GetU64()); }
};

std::string SerializePlan(const PartitionPlan& plan) {
  std::string out;
  out.append(kPlanMagic, 4);
  PutU32(&out, kPlanFormatVersion);
  PutU64(&out, plan.inter_node.size());
  PutU64(&out, plan.intra_node.size());
  PutU64(&out, plan.local.size());
  PutU64(&out, plan.rank_arena.size());
  PutU64(&out, plan.tokens_per_rank.size());
  PutU64(&out, plan.threshold_s0.size());
  PutI64(&out, plan.threshold_s1);
  auto put_queue = [&out](const std::vector<RingRef>& queue) {
    for (const RingRef& ring : queue) {
      PutI32(&out, ring.seq_id);
      PutI64(&out, ring.length);
      PutU32(&out, static_cast<uint32_t>(ring.zone));
      PutU32(&out, ring.rank_offset);
      PutU32(&out, ring.rank_count);
    }
  };
  put_queue(plan.inter_node);
  put_queue(plan.intra_node);
  for (const LocalSequence& seq : plan.local) {
    PutI32(&out, seq.seq_id);
    PutI64(&out, seq.length);
    PutI32(&out, seq.rank);
  }
  for (int rank : plan.rank_arena) {
    PutI32(&out, rank);
  }
  for (int64_t tokens : plan.tokens_per_rank) {
    PutI64(&out, tokens);
  }
  for (int64_t s0 : plan.threshold_s0) {
    PutI64(&out, s0);
  }
  PutU64(&out, plan.StateDigest());
  return out;
}

PlanIoResult Fail(PlanIoStatus status, std::string message) {
  return PlanIoResult{status, std::move(message)};
}

PlanIoResult ParsePlan(std::string_view bytes, PartitionPlan* plan, int max_world) {
  constexpr size_t kRingRecordBytes = 24;
  constexpr size_t kLocalRecordBytes = 16;
  Reader in{reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()};
  if (!in.Have(8)) {
    return Fail(PlanIoStatus::kTruncated, "input shorter than the preamble");
  }
  if (std::memcmp(in.data, kPlanMagic, 4) != 0) {
    return Fail(PlanIoStatus::kBadMagic, "input does not start with the ZPLN magic");
  }
  in.pos += 4;
  const uint32_t version = in.GetU32();
  if (version != kPlanFormatVersion) {
    return Fail(PlanIoStatus::kBadVersion,
                "unsupported plan format version " + std::to_string(version) + " (expected " +
                    std::to_string(kPlanFormatVersion) + ")");
  }
  if (!in.Have(6 * 8 + 8)) {
    return Fail(PlanIoStatus::kTruncated, "input ends inside the section counts");
  }
  const uint64_t inter_count = in.GetU64();
  const uint64_t intra_count = in.GetU64();
  const uint64_t local_count = in.GetU64();
  const uint64_t arena_count = in.GetU64();
  const uint64_t tokens_count = in.GetU64();
  const uint64_t s0_count = in.GetU64();
  const int64_t threshold_s1 = in.GetI64();
  if (max_world > 0 && tokens_count > static_cast<uint64_t>(max_world)) {
    return Fail(PlanIoStatus::kRankUniverse,
                "plan targets " + std::to_string(tokens_count) +
                    " ranks but the fabric has " + std::to_string(max_world));
  }
  const uint64_t remaining = bytes.size() - in.pos;
  constexpr uint64_t kCountCap = uint64_t{1} << 48;
  if (inter_count > kCountCap || intra_count > kCountCap || local_count > kCountCap ||
      arena_count > kCountCap || tokens_count > kCountCap || s0_count > kCountCap) {
    return Fail(PlanIoStatus::kTruncated, "section count exceeds any representable payload");
  }
  const uint64_t expected = kRingRecordBytes * (inter_count + intra_count) +
                            kLocalRecordBytes * local_count + 4 * arena_count +
                            8 * (tokens_count + s0_count) + 8;
  if (remaining < expected) {
    return Fail(PlanIoStatus::kTruncated,
                "sections declare " + std::to_string(expected) + " bytes but only " +
                    std::to_string(remaining) + " remain");
  }
  if (remaining > expected) {
    return Fail(PlanIoStatus::kCorrupt, "input carries " +
                                            std::to_string(remaining - expected) +
                                            " trailing bytes past the trailer");
  }
  *plan = PartitionPlan{};
  plan->threshold_s1 = threshold_s1;
  auto get_queue = [&in, arena_count](std::vector<RingRef>* queue, uint64_t count,
                                      const char* name) -> PlanIoResult {
    queue->resize(count);
    for (RingRef& ring : *queue) {
      ring.seq_id = in.GetI32();
      ring.length = in.GetI64();
      const uint32_t zone = in.GetU32();
      if (zone > static_cast<uint32_t>(Zone::kInterNode)) {
        return Fail(PlanIoStatus::kCorrupt,
                    std::string(name) + " header carries unknown zone tag " +
                        std::to_string(zone));
      }
      ring.zone = static_cast<Zone>(zone);
      ring.rank_offset = in.GetU32();
      ring.rank_count = in.GetU32();
      if (static_cast<uint64_t>(ring.rank_offset) + ring.rank_count > arena_count) {
        return Fail(PlanIoStatus::kCorrupt, std::string(name) + " header span [" +
                                                std::to_string(ring.rank_offset) + ", +" +
                                                std::to_string(ring.rank_count) +
                                                ") exceeds the arena");
      }
    }
    return PlanIoResult{};
  };
  PlanIoResult r = get_queue(&plan->inter_node, inter_count, "inter_node");
  if (!r.ok()) {
    return r;
  }
  r = get_queue(&plan->intra_node, intra_count, "intra_node");
  if (!r.ok()) {
    return r;
  }
  const auto rank_in_bounds = [tokens_count](int rank) {
    return tokens_count == 0 ||
           (rank >= 0 && static_cast<uint64_t>(rank) < tokens_count);
  };
  plan->local.resize(local_count);
  for (LocalSequence& seq : plan->local) {
    seq.seq_id = in.GetI32();
    seq.length = in.GetI64();
    seq.rank = in.GetI32();
    if (!rank_in_bounds(seq.rank)) {
      return Fail(PlanIoStatus::kCorrupt, "local sequence rank " + std::to_string(seq.rank) +
                                              " outside the plan's " +
                                              std::to_string(tokens_count) + "-rank universe");
    }
  }
  plan->rank_arena.resize(arena_count);
  for (int& rank : plan->rank_arena) {
    rank = in.GetI32();
    if (!rank_in_bounds(rank)) {
      return Fail(PlanIoStatus::kCorrupt, "arena rank " + std::to_string(rank) +
                                              " outside the plan's " +
                                              std::to_string(tokens_count) + "-rank universe");
    }
  }
  plan->tokens_per_rank.resize(tokens_count);
  for (int64_t& tokens : plan->tokens_per_rank) {
    tokens = in.GetI64();
  }
  plan->threshold_s0.resize(s0_count);
  for (int64_t& s0 : plan->threshold_s0) {
    s0 = in.GetI64();
  }
  const uint64_t stored_digest = in.GetU64();
  if (stored_digest != plan->StateDigest()) {
    return Fail(PlanIoStatus::kDigestMismatch, "decoded plan digests to a different value than "
                                               "the trailer — the payload was altered");
  }
  return PlanIoResult{};
}

constexpr uint8_t kOptHierarchical = 1u << 0;
constexpr uint8_t kOptZoneAware = 1u << 1;
constexpr uint8_t kOptFastPath = 1u << 2;
constexpr uint8_t kOptSharedPool = 1u << 3;
constexpr uint8_t kOptKnownMask =
    kOptHierarchical | kOptZoneAware | kOptFastPath | kOptSharedPool;

// Bits 2 and 3 of the option flags once selected the planner engine and a
// shared planner thread pool. The current encoder always sets both;
// `pool_bit = false` reproduces the images of requests that cleared bit 3
// before that option was removed.
std::string EncodeRequest(const net::WireRequest& request, bool pool_bit = true) {
  std::string out;
  PutU32(&out, net::kWireVersion);
  PutU8(&out, static_cast<uint8_t>(request.kind));
  PutU64(&out, request.request_id);
  PutU32(&out, request.deadline_ms);
  PutU32(&out, static_cast<uint32_t>(request.stream_id.size()));
  out.append(request.stream_id);
  uint8_t flags = 0;
  if (request.options.hierarchical_partitioning) flags |= kOptHierarchical;
  if (request.options.zone_aware_thresholds) flags |= kOptZoneAware;
  flags |= kOptFastPath;
  if (pool_bit) flags |= kOptSharedPool;
  PutU8(&out, flags);
  PutU64(&out, static_cast<uint64_t>(request.options.token_capacity));
  PutF64(&out, request.options.delta_replan_threshold);
  PutU32(&out, static_cast<uint32_t>(request.batch.seq_lens.size()));
  for (int64_t len : request.batch.seq_lens) {
    PutU64(&out, static_cast<uint64_t>(len));
  }
  PutU8(&out, request.delta.has_value() ? 1 : 0);
  if (request.delta.has_value()) {
    const BatchDelta& d = *request.delta;
    PutU32(&out, static_cast<uint32_t>(d.removed.size()));
    for (int slot : d.removed) {
      PutU32(&out, static_cast<uint32_t>(slot));
    }
    PutU32(&out, static_cast<uint32_t>(d.resized.size()));
    for (const auto& [slot, len] : d.resized) {
      PutU32(&out, static_cast<uint32_t>(slot));
      PutU64(&out, static_cast<uint64_t>(len));
    }
    PutU32(&out, static_cast<uint32_t>(d.added.size()));
    for (int64_t len : d.added) {
      PutU64(&out, static_cast<uint64_t>(len));
    }
  }
  PutU8(&out, request.topology.has_value() ? 1 : 0);
  if (request.topology.has_value()) {
    const TopologyDelta& t = *request.topology;
    PutU32(&out, static_cast<uint32_t>(t.removed_ranks.size()));
    for (int rank : t.removed_ranks) {
      PutU32(&out, static_cast<uint32_t>(rank));
    }
    PutU32(&out, static_cast<uint32_t>(t.added_ranks.size()));
    for (int rank : t.added_ranks) {
      PutU32(&out, static_cast<uint32_t>(rank));
    }
    PutU32(&out, static_cast<uint32_t>(t.speed_factors.size()));
    for (const auto& [rank, factor] : t.speed_factors) {
      PutU32(&out, static_cast<uint32_t>(rank));
      PutF64(&out, factor);
    }
  }
  return out;
}

net::WireStatus Malformed(std::string* error, const char* what) {
  *error = what;
  return net::WireStatus::kMalformedRequest;
}

net::WireStatus ParseRequest(std::string_view payload, net::WireRequest* request,
                             std::string* error) {
  using net::RequestKind;
  *request = net::WireRequest{};
  Reader in{reinterpret_cast<const unsigned char*>(payload.data()), payload.size()};
  if (!in.Have(4 + 1 + 8 + 4 + 4)) {
    return Malformed(error, "request truncated before the fixed header");
  }
  if (in.GetU32() != net::kWireVersion) {
    return Malformed(error, "unknown request version");
  }
  const uint8_t kind = in.GetU8();
  if (kind != static_cast<uint8_t>(RequestKind::kPlan) &&
      kind != static_cast<uint8_t>(RequestKind::kCloseSession) &&
      kind != static_cast<uint8_t>(RequestKind::kPing) &&
      kind != static_cast<uint8_t>(RequestKind::kStats)) {
    return Malformed(error, "unknown request kind");
  }
  request->kind = static_cast<RequestKind>(kind);
  request->request_id = in.GetU64();
  request->deadline_ms = in.GetU32();
  const uint32_t id_len = in.GetU32();
  if (id_len > net::kMaxStreamIdBytes) {
    return Malformed(error, "stream id too long");
  }
  if (!in.Have(id_len)) {
    return Malformed(error, "request truncated inside the stream id");
  }
  request->stream_id.assign(reinterpret_cast<const char*>(in.data) + in.pos, id_len);
  in.pos += id_len;
  if (!in.Have(1 + 8 + 8)) {
    return Malformed(error, "request truncated before the options");
  }
  const uint8_t flags = in.GetU8();
  if ((flags & ~kOptKnownMask) != 0) {
    return Malformed(error, "unknown option flag bits");
  }
  request->options.hierarchical_partitioning = (flags & kOptHierarchical) != 0;
  request->options.zone_aware_thresholds = (flags & kOptZoneAware) != 0;
  const uint64_t capacity = in.GetU64();
  if (capacity > static_cast<uint64_t>(net::kMaxWireSeqLen)) {
    return Malformed(error, "token capacity out of range");
  }
  request->options.token_capacity = static_cast<int64_t>(capacity);
  request->options.delta_replan_threshold = in.GetF64();
  if (!in.Have(4)) {
    return Malformed(error, "request truncated before the batch");
  }
  const uint32_t num_seqs = in.GetU32();
  if (num_seqs > net::kMaxWireSeqs) {
    return Malformed(error, "batch sequence count out of range");
  }
  if (!in.Have(size_t{num_seqs} * 8)) {
    return Malformed(error, "request truncated inside the batch");
  }
  request->batch.seq_lens.reserve(num_seqs);
  for (uint32_t i = 0; i < num_seqs; ++i) {
    const uint64_t len = in.GetU64();
    if (len > static_cast<uint64_t>(net::kMaxWireSeqLen)) {
      return Malformed(error, "sequence length out of range");
    }
    request->batch.seq_lens.push_back(static_cast<int64_t>(len));
  }
  if (!in.Have(1)) {
    return Malformed(error, "request truncated before the delta marker");
  }
  const uint8_t has_delta = in.GetU8();
  if (has_delta > 1) {
    return Malformed(error, "bad delta marker");
  }
  if (has_delta == 1) {
    BatchDelta delta;
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t removed_n = in.GetU32();
    if (removed_n > net::kMaxWireDeltaEntries || !in.Have(size_t{removed_n} * 4)) {
      return Malformed(error, "delta removed section out of range");
    }
    for (uint32_t i = 0; i < removed_n; ++i) {
      const uint32_t slot = in.GetU32();
      if (slot > static_cast<uint32_t>(INT32_MAX)) {
        return Malformed(error, "delta slot out of range");
      }
      delta.removed.push_back(static_cast<int>(slot));
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t resized_n = in.GetU32();
    if (resized_n > net::kMaxWireDeltaEntries || !in.Have(size_t{resized_n} * 12)) {
      return Malformed(error, "delta resized section out of range");
    }
    for (uint32_t i = 0; i < resized_n; ++i) {
      const uint32_t slot = in.GetU32();
      const uint64_t len = in.GetU64();
      if (slot > static_cast<uint32_t>(INT32_MAX) ||
          len > static_cast<uint64_t>(net::kMaxWireSeqLen)) {
        return Malformed(error, "delta resize entry out of range");
      }
      delta.resized.emplace_back(static_cast<int>(slot), static_cast<int64_t>(len));
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t added_n = in.GetU32();
    if (added_n > net::kMaxWireDeltaEntries || !in.Have(size_t{added_n} * 8)) {
      return Malformed(error, "delta added section out of range");
    }
    for (uint32_t i = 0; i < added_n; ++i) {
      const uint64_t len = in.GetU64();
      if (len > static_cast<uint64_t>(net::kMaxWireSeqLen)) {
        return Malformed(error, "delta added length out of range");
      }
      delta.added.push_back(static_cast<int64_t>(len));
    }
    request->delta = std::move(delta);
  }
  if (!in.Have(1)) {
    return Malformed(error, "request truncated before the topology marker");
  }
  const uint8_t has_topology = in.GetU8();
  if (has_topology > 1) {
    return Malformed(error, "bad topology marker");
  }
  if (has_topology == 1) {
    TopologyDelta topo;
    auto read_ranks = [&](std::vector<int>* out) {
      if (!in.Have(4)) {
        return false;
      }
      const uint32_t n = in.GetU32();
      if (n > net::kMaxWireTopoEntries || !in.Have(size_t{n} * 4)) {
        return false;
      }
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t rank = in.GetU32();
        if (rank > static_cast<uint32_t>(INT32_MAX)) {
          return false;
        }
        out->push_back(static_cast<int>(rank));
      }
      return true;
    };
    if (!read_ranks(&topo.removed_ranks) || !read_ranks(&topo.added_ranks)) {
      return Malformed(error, "topology rank section out of range");
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the topology");
    }
    const uint32_t speeds_n = in.GetU32();
    if (speeds_n > net::kMaxWireTopoEntries || !in.Have(size_t{speeds_n} * 12)) {
      return Malformed(error, "topology speed section out of range");
    }
    for (uint32_t i = 0; i < speeds_n; ++i) {
      const uint32_t rank = in.GetU32();
      if (rank > static_cast<uint32_t>(INT32_MAX)) {
        return Malformed(error, "topology speed rank out of range");
      }
      topo.speed_factors.emplace_back(static_cast<int>(rank), in.GetF64());
    }
    request->topology = std::move(topo);
  }
  if (in.pos != in.size) {
    return Malformed(error, "trailing bytes after the request");
  }
  return net::WireStatus::kOk;
}

std::string EncodeResponse(const net::WireResponse& response) {
  std::string out;
  PutU32(&out, net::kWireVersion);
  PutU64(&out, response.request_id);
  PutU8(&out, static_cast<uint8_t>(response.status));
  const uint32_t msg_len =
      static_cast<uint32_t>(std::min<size_t>(response.message.size(), 4096));
  PutU32(&out, msg_len);
  out.append(response.message.data(), msg_len);
  if (response.status != net::WireStatus::kOk) {
    return out;
  }
  PutU8(&out, static_cast<uint8_t>(response.stats.engine));
  PutF64(&out, response.stats.partition_time_us);
  PutF64(&out, response.stats.materialize_time_us);
  PutU8(&out, static_cast<uint8_t>(response.stats.delta_outcome));
  PutU64(&out, static_cast<uint64_t>(response.stats.token_capacity));
  PutU64(&out, response.stats.session_count);
  PutU8(&out, static_cast<uint8_t>(response.stats.cache_outcome));
  PutU8(&out, response.stats.verified ? 1 : 0);
  PutF64(&out, response.queue_wait_us);
  PutU64(&out, response.digest);
  PutU64(&out, response.plan_bytes.size());
  out.append(response.plan_bytes);
  PutU8(&out, static_cast<uint8_t>(obs::kNumStages));
  for (double stage : response.stats.stage_us) {
    PutF64(&out, stage);
  }
  const uint32_t stats_len = static_cast<uint32_t>(
      std::min<size_t>(response.stats_json.size(), net::kMaxWireStatsJsonBytes));
  PutU32(&out, stats_len);
  out.append(response.stats_json.data(), stats_len);
  return out;
}

std::string Frame(net::FrameType type, std::string_view payload) {
  std::string out;
  out.append(net::kFrameMagic, 4);
  out.push_back(static_cast<char>(type));
  out.append(3, '\0');
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

}  // namespace ref

// --- Fixtures ----------------------------------------------------------------

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

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

PartitionPlan MakePlan(const Batch& batch, const ClusterSpec& cluster, bool fast_path) {
  const int64_t world = cluster.world_size();
  const int64_t average = (batch.total_tokens() + world - 1) / world;
  SequencePartitioner partitioner(
      cluster, SequencePartitioner::Options{.token_capacity = average + average / 4,
                                            .fast_path = fast_path});
  return partitioner.Partition(batch);
}

PartitionPlan DeltaPatchedPlan() {
  const ClusterSpec cluster = MakeClusterA(2);
  const Batch batch = SampleBatch(1024, 0xabc);
  const int64_t world = cluster.world_size();
  const int64_t average = (batch.total_tokens() + world - 1) / world;
  DeltaPlanner dp(cluster, DeltaPlannerOptions{.token_capacity = average + average / 4,
                                               .replan_threshold = 0.5});
  dp.Rebase(batch);
  WorkloadStream stream(DatasetByName("github"), batch, StreamOptions{.churn_fraction = 0.02},
                        0xfeed);
  for (int i = 0; i < 20; ++i) {
    dp.Apply(stream.Next());
  }
  return dp.plan();
}

struct NamedPlan {
  const char* name;
  PartitionPlan plan;
};

// Seeded plans from every engine plus the edge shapes. The ring-heavy batch
// (two multi-node heads on a 16-node cluster) populates every plan section.
const std::vector<NamedPlan>& Plans() {
  static const std::vector<NamedPlan> plans = [] {
    Batch ring_heavy = SampleBatch(512, 0x5eed);
    ring_heavy.seq_lens.insert(ring_heavy.seq_lens.begin(), {1500000, 1400000});
    const ClusterSpec cluster = MakeClusterA(16);
    std::vector<NamedPlan> out;
    out.push_back({"naive", MakePlan(ring_heavy, cluster, /*fast_path=*/false)});
    out.push_back({"sharded", MakePlan(ring_heavy, cluster, /*fast_path=*/true)});
    out.push_back({"delta_patched", DeltaPatchedPlan()});
    out.push_back({"empty", PartitionPlan{}});
    out.push_back({"single", MakePlan(Batch{{4096}}, MakeClusterA(1), true)});
    return out;
  }();
  return plans;
}

struct NamedRequest {
  const char* name;
  net::WireRequest request;
  // The pinned image was recorded with flags bit 3 clear (see
  // ref::EncodeRequest).
  bool pool_bit_clear = false;
};

// The image a request's residue and parse-parity checks run on.
std::string PinnedImage(const NamedRequest& r) {
  return ref::EncodeRequest(r.request, /*pool_bit=*/!r.pool_bit_clear);
}

const std::vector<NamedRequest>& Requests() {
  static const std::vector<NamedRequest> requests = [] {
    std::vector<NamedRequest> out;
    net::WireRequest plain;
    plain.request_id = 7;
    plain.batch = SampleBatch(300, 1);
    out.push_back({"plain", plain});

    net::WireRequest session;
    session.request_id = 0x0123456789abcdefull;
    session.deadline_ms = 250;
    session.stream_id = "stream/α-1";
    session.options.token_capacity = 123456;
    session.options.zone_aware_thresholds = true;
    session.options.delta_replan_threshold = 0.125;
    session.batch = SampleBatch(64, 2);
    session.delta = BatchDelta{{3, 17, 40},
                               {{1, 4096}, {5, 0}, {63, int64_t{1} << 39}},
                               {777, 1, 65536}};
    session.topology = TopologyDelta{{2, 9}, {4}, {{0, 0.5}, {11, 1.75}}};
    out.push_back({"session_delta_topology", session, /*pool_bit_clear=*/true});

    net::WireRequest empty_sections = session;
    empty_sections.request_id = 3;
    empty_sections.batch.seq_lens.clear();
    empty_sections.delta = BatchDelta{};
    empty_sections.topology = TopologyDelta{};
    out.push_back({"empty_sections", empty_sections, /*pool_bit_clear=*/true});

    net::WireRequest ping;
    ping.kind = net::RequestKind::kPing;
    ping.request_id = 9;
    out.push_back({"ping", ping});

    net::WireRequest stats;
    stats.kind = net::RequestKind::kStats;
    stats.request_id = 10;
    out.push_back({"stats", stats});

    net::WireRequest close;
    close.kind = net::RequestKind::kCloseSession;
    close.request_id = 11;
    close.stream_id = "s";
    out.push_back({"close", close});
    return out;
  }();
  return requests;
}

struct NamedResponse {
  const char* name;
  net::WireResponse response;
};

const std::vector<NamedResponse>& Responses() {
  static const std::vector<NamedResponse> responses = [] {
    const PartitionPlan& plan = Plans()[1].plan;
    std::vector<NamedResponse> out;
    net::WireResponse ok;
    ok.request_id = 42;
    ok.stats.engine = PlanEngine::kParallelSharded;
    ok.stats.partition_time_us = 159.25;
    ok.stats.materialize_time_us = 0.5;
    ok.stats.delta_outcome = DeltaOutcome::kApplied;
    ok.stats.token_capacity = 16384;
    ok.stats.session_count = 3;
    ok.stats.cache_outcome = CacheOutcome::kMiss;
    ok.stats.verified = true;
    for (int i = 0; i < obs::kNumStages; ++i) {
      ok.stats.stage_us[i] = 1.5 * (i + 1);
    }
    ok.queue_wait_us = 12.75;
    ok.digest = plan.StateDigest();
    ok.plan_bytes = SerializePlan(plan);
    out.push_back({"ok_plan", ok});

    net::WireResponse stats;
    stats.request_id = 43;
    stats.stats_json = "{\"schema\":\"zeppelin.metrics.v1\"}";
    out.push_back({"ok_stats", stats});

    net::WireResponse error;
    error.request_id = 44;
    error.status = net::WireStatus::kBadDelta;
    error.message = "delta removes an out-of-range or repeated slot";
    out.push_back({"error", error});

    net::WireResponse long_error;
    long_error.status = net::WireStatus::kOversizedFrame;
    long_error.message = std::string(5000, 'x');  // Truncated to the 4 KiB cap.
    out.push_back({"error_long_message", long_error});
    return out;
  }();
  return responses;
}

// --- Byte identity -----------------------------------------------------------

TEST(CodecGoldenTest, SerializePlanMatchesOracle) {
  for (const NamedPlan& p : Plans()) {
    const std::string oracle = ref::SerializePlan(p.plan);
    EXPECT_EQ(SerializePlan(p.plan), oracle) << p.name;
    EXPECT_EQ(SerializePlan(p.plan, p.plan.StateDigest()), oracle) << p.name;
    EXPECT_EQ(p.plan.Serialize(), oracle) << p.name;
  }
}

TEST(CodecGoldenTest, EncodeRequestMatchesOracle) {
  for (const NamedRequest& r : Requests()) {
    const std::string oracle = ref::EncodeRequest(r.request);
    EXPECT_EQ(net::EncodeRequest(r.request), oracle) << r.name;
    std::string framed = "prefix";
    net::AppendRequestFrame(r.request, &framed);
    EXPECT_EQ(framed, "prefix" + ref::Frame(net::FrameType::kRequest, oracle)) << r.name;
  }
}

// Requests pinned with flags bit 3 clear: the current encoder's image differs
// from the pinned one only in that bit, and the parser still decodes the
// pinned image to the same request.
TEST(CodecGoldenTest, PoolBitClearImagesDecodeToTheSameRequest) {
  int checked = 0;
  for (const NamedRequest& r : Requests()) {
    if (!r.pool_bit_clear) {
      continue;
    }
    ++checked;
    const std::string pinned = PinnedImage(r);
    const size_t flags_at = 4 + 1 + 8 + 4 + 4 + r.request.stream_id.size();
    ASSERT_LT(flags_at, pinned.size()) << r.name;
    EXPECT_EQ(pinned[flags_at] & 0x08, 0) << r.name;
    std::string with_bit = pinned;
    with_bit[flags_at] = static_cast<char>(with_bit[flags_at] | 0x08);
    EXPECT_EQ(net::EncodeRequest(r.request), with_bit) << r.name;

    net::WireRequest decoded;
    std::string error;
    ASSERT_EQ(net::ParseRequest(pinned, &decoded, &error), net::WireStatus::kOk)
        << r.name << ": " << error;
    EXPECT_EQ(ref::EncodeRequest(decoded), ref::EncodeRequest(r.request)) << r.name;
  }
  EXPECT_EQ(checked, 2);
}

TEST(CodecGoldenTest, EncodeResponseMatchesOracle) {
  for (const NamedResponse& r : Responses()) {
    const std::string oracle = ref::EncodeResponse(r.response);
    EXPECT_EQ(net::EncodeResponse(r.response), oracle) << r.name;
    const net::FrameType type = r.response.status == net::WireStatus::kOk
                                    ? net::FrameType::kResponse
                                    : net::FrameType::kError;
    std::string framed = "prefix";
    net::AppendResponseFrame(r.response, &framed);
    EXPECT_EQ(framed, "prefix" + ref::Frame(type, oracle)) << r.name;
  }
}

TEST(CodecGoldenTest, AppendFrameMatchesOracle) {
  for (const std::string& payload : {std::string(), std::string("x"), std::string(70000, 'z')}) {
    std::string framed;
    net::AppendFrame(net::FrameType::kError, payload, &framed);
    EXPECT_EQ(framed, ref::Frame(net::FrameType::kError, payload)) << payload.size();
  }
}

// Golden residues: FNV-1a 64 of the encoded bytes. A change here means the
// wire image of a plan or message moved; that requires a format version bump
// (kPlanFormatVersion / kWireVersion), not a new constant.
struct Residue {
  const char* name;
  uint64_t res64;
};

TEST(CodecGoldenTest, PinnedResidues) {
  const Residue plans[] = {
      {"naive", 0x66a4403b9fd4df3full},
      {"delta_patched", 0xda4bd24ec6266979ull},
      {"empty", 0xae5555c97dfea19bull},
      {"single", 0xed1955500f2534afull},
  };
  for (const Residue& want : plans) {
    for (const NamedPlan& p : Plans()) {
      if (std::string_view(p.name) == want.name) {
        EXPECT_EQ(Fnv1a64(SerializePlan(p.plan)), want.res64)
            << want.name << " res64=0x" << std::hex << Fnv1a64(SerializePlan(p.plan));
      }
    }
  }
  const Residue requests[] = {
      {"plain", 0xb979d42012994988ull},
      {"session_delta_topology", 0x3d90f6a2c9204614ull},
  };
  for (const Residue& want : requests) {
    for (const NamedRequest& r : Requests()) {
      if (std::string_view(r.name) == want.name) {
        EXPECT_EQ(Fnv1a64(PinnedImage(r)), want.res64)
            << want.name << " res64=0x" << std::hex << Fnv1a64(PinnedImage(r));
      }
    }
  }
  const Residue responses[] = {
      {"ok_plan", 0xf72f39f7ea941ed0ull},
      {"error", 0xb3ab30ca76538702ull},
  };
  for (const Residue& want : responses) {
    for (const NamedResponse& r : Responses()) {
      if (std::string_view(r.name) == want.name) {
        EXPECT_EQ(Fnv1a64(net::EncodeResponse(r.response)), want.res64)
            << want.name << " res64=0x" << std::hex << Fnv1a64(net::EncodeResponse(r.response));
      }
    }
  }
}

// --- Parse parity ------------------------------------------------------------

// Inputs derived from a valid image: every truncation (or every `stride`-th
// for large images, plus all of the first 80 bytes and the last 16), and
// seeded corruptions — random single-byte flips anywhere, and whole 32/64-bit
// words overwritten with boundary values at random 4-byte-aligned offsets
// (the count, length, zone, offset and rank fields all sit on such offsets).
std::vector<std::string> Mutations(const std::string& image, uint64_t seed) {
  std::vector<std::string> out;
  const size_t stride = image.size() > 4096 ? 61 : 1;
  for (size_t keep = 0; keep < image.size(); ++keep) {
    if (keep < 80 || keep + 16 >= image.size() || keep % stride == 0) {
      out.push_back(image.substr(0, keep));
    }
  }
  out.push_back(image + "?");
  if (image.empty()) {
    return out;
  }
  Rng rng(seed);
  for (int i = 0; i < 600; ++i) {
    std::string bytes = image;
    const size_t pos = rng.NextBounded(bytes.size());
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.NextBounded(255)));
    out.push_back(std::move(bytes));
  }
  const uint64_t words[] = {0,
                            1,
                            2,
                            3,
                            0x7fffffffull,
                            0x80000000ull,
                            0xffffffffull,
                            uint64_t{1} << 40,
                            (uint64_t{1} << 40) + 1,
                            uint64_t{1} << 48,
                            (uint64_t{1} << 48) + 1,
                            ~uint64_t{0}};
  for (int i = 0; i < 600 && image.size() >= 8; ++i) {
    std::string bytes = image;
    const size_t pos = 4 * rng.NextBounded((bytes.size() - 8) / 4 + 1);
    const uint64_t word = words[rng.NextBounded(std::size(words))];
    std::memcpy(bytes.data() + pos, &word, rng.NextBounded(2) == 0 ? 4 : 8);
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(CodecGoldenTest, ParsePlanMatchesOracleOnCorruptInputs) {
  uint64_t seed = 0x90d;
  for (const NamedPlan& p : Plans()) {
    const std::string image = ref::SerializePlan(p.plan);
    const int world = static_cast<int>(p.plan.tokens_per_rank.size());
    for (const std::string& bytes : Mutations(image, ++seed)) {
      for (const int max_world : {0, world, world > 1 ? world - 1 : 1}) {
        PartitionPlan want_plan;
        PartitionPlan got_plan;
        const PlanIoResult want = ref::ParsePlan(bytes, &want_plan, max_world);
        const PlanIoResult got = ParsePlan(bytes, &got_plan, max_world);
        ASSERT_EQ(got.status, want.status)
            << p.name << " size=" << bytes.size() << " max_world=" << max_world
            << " got=" << got.message << " want=" << want.message;
        ASSERT_EQ(got.message, want.message) << p.name << " size=" << bytes.size();
        if (want.ok()) {
          ASSERT_TRUE(got_plan == want_plan) << p.name;
        }
      }
    }
  }
}

TEST(CodecGoldenTest, ParseRequestMatchesOracleOnCorruptInputs) {
  uint64_t seed = 0x7e9;
  for (const NamedRequest& r : Requests()) {
    const std::string image = PinnedImage(r);
    for (const std::string& bytes : Mutations(image, ++seed)) {
      net::WireRequest want_request;
      net::WireRequest got_request;
      std::string want_error;
      std::string got_error;
      const net::WireStatus want = ref::ParseRequest(bytes, &want_request, &want_error);
      const net::WireStatus got = net::ParseRequest(bytes, &got_request, &got_error);
      ASSERT_EQ(got, want) << r.name << " size=" << bytes.size() << " got=" << got_error
                           << " want=" << want_error;
      ASSERT_EQ(got_error, want_error) << r.name << " size=" << bytes.size();
      // The daemon addresses its error reply with whatever id was decodable.
      ASSERT_EQ(got_request.request_id, want_request.request_id) << r.name;
      if (want == net::WireStatus::kOk) {
        ASSERT_EQ(ref::EncodeRequest(got_request), ref::EncodeRequest(want_request))
            << r.name;
      }
    }
  }
}

}  // namespace
}  // namespace zeppelin
