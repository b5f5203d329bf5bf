#include "src/net/wire.h"

#include <algorithm>
#include <cmath>

#include "src/common/byte_io.h"
#include "src/common/check.h"

namespace zeppelin {
namespace net {
namespace {

// Largest value accepted for any token count crossing the wire; keeps every
// downstream int64 sum far from overflow (kMaxWireSeqs * this < 2^63).
constexpr uint64_t kMaxWireTokens = uint64_t{1} << 56;
constexpr uint32_t kMaxMessageBytes = 4096;

constexpr uint8_t kOptHierarchical = 1u << 0;
constexpr uint8_t kOptZoneAware = 1u << 1;
// Bits 2 and 3 once selected the planner engine (production vs the naive
// reference) and a shared planner thread pool. There is one serving engine
// now; both bits are always written set (what every default request carried)
// and ignored on parse, so old and new peers exchange the same bytes.
constexpr uint8_t kOptRetired = (1u << 2) | (1u << 3);
constexpr uint8_t kOptKnownMask = kOptHierarchical | kOptZoneAware | kOptRetired;

WireStatus Malformed(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = what;
  }
  return WireStatus::kMalformedRequest;
}

uint8_t OptionFlags(const PlanningOptions& options) {
  uint8_t flags = kOptRetired;
  if (options.hierarchical_partitioning) flags |= kOptHierarchical;
  if (options.zone_aware_thresholds) flags |= kOptZoneAware;
  return flags;
}

// Exact encoded sizes, so each message is written into a buffer sized once
// (a standalone string or the tail of a frame).
size_t RequestBytes(const WireRequest& request) {
  size_t n = 4 + 1 + 8 + 4 + 4 + request.stream_id.size()  // Header + stream id.
             + 1 + 8 + 8                                     // Options.
             + 4 + 8 * request.batch.seq_lens.size()         // Batch.
             + 1 + 1;                                        // Section markers.
  if (request.delta.has_value()) {
    const BatchDelta& d = *request.delta;
    n += 4 + 4 * d.removed.size() + 4 + 12 * d.resized.size() + 4 + 8 * d.added.size();
  }
  if (request.topology.has_value()) {
    const TopologyDelta& t = *request.topology;
    n += 4 + 4 * t.removed_ranks.size() + 4 + 4 * t.added_ranks.size() + 4 +
         12 * t.speed_factors.size();
  }
  return n;
}

void WriteRequest(const WireRequest& request, char* out, size_t size) {
  ByteWriter w(out);
  w.Put<uint32_t>(kWireVersion);
  w.Put<uint8_t>(static_cast<uint8_t>(request.kind));
  w.Put<uint64_t>(request.request_id);
  w.Put<uint32_t>(request.deadline_ms);
  w.Put<uint32_t>(static_cast<uint32_t>(request.stream_id.size()));
  w.PutBytes(request.stream_id.data(), request.stream_id.size());
  w.Put<uint8_t>(OptionFlags(request.options));
  w.Put<uint64_t>(static_cast<uint64_t>(request.options.token_capacity));
  w.Put<double>(request.options.delta_replan_threshold);

  const std::vector<int64_t>& lens = request.batch.seq_lens;
  w.Put<uint32_t>(static_cast<uint32_t>(lens.size()));
  w.PutArray(lens.data(), lens.size());

  w.Put<uint8_t>(request.delta.has_value() ? 1 : 0);
  if (request.delta.has_value()) {
    const BatchDelta& d = *request.delta;
    w.Put<uint32_t>(static_cast<uint32_t>(d.removed.size()));
    w.PutArray(d.removed.data(), d.removed.size());
    w.Put<uint32_t>(static_cast<uint32_t>(d.resized.size()));
    for (const auto& [slot, len] : d.resized) {
      w.Put<uint32_t>(static_cast<uint32_t>(slot));
      w.Put<uint64_t>(static_cast<uint64_t>(len));
    }
    w.Put<uint32_t>(static_cast<uint32_t>(d.added.size()));
    w.PutArray(d.added.data(), d.added.size());
  }

  w.Put<uint8_t>(request.topology.has_value() ? 1 : 0);
  if (request.topology.has_value()) {
    const TopologyDelta& t = *request.topology;
    w.Put<uint32_t>(static_cast<uint32_t>(t.removed_ranks.size()));
    w.PutArray(t.removed_ranks.data(), t.removed_ranks.size());
    w.Put<uint32_t>(static_cast<uint32_t>(t.added_ranks.size()));
    w.PutArray(t.added_ranks.data(), t.added_ranks.size());
    w.Put<uint32_t>(static_cast<uint32_t>(t.speed_factors.size()));
    for (const auto& [rank, factor] : t.speed_factors) {
      w.Put<uint32_t>(static_cast<uint32_t>(rank));
      w.Put<double>(factor);
    }
  }
  ZCHECK(w.pos() == out + size) << "request encoder size mismatch";
}

uint32_t MessageBytes(const WireResponse& response) {
  return static_cast<uint32_t>(std::min<size_t>(response.message.size(), kMaxMessageBytes));
}

uint32_t StatsJsonBytes(const WireResponse& response) {
  return static_cast<uint32_t>(
      std::min<size_t>(response.stats_json.size(), kMaxWireStatsJsonBytes));
}

size_t ResponseBytes(const WireResponse& response) {
  size_t n = 4 + 8 + 1 + 4 + MessageBytes(response);
  if (response.status == WireStatus::kOk) {
    n += 1 + 8 + 8 + 1 + 8 + 8    // v1 stats.
         + 1 + 1                  // v2 cache outcome + verified.
         + 8 + 8                  // Queue wait + digest.
         + 8 + response.plan_bytes.size()
         + 1 + 8 * obs::kNumStages  // v3 stage block.
         + 4 + StatsJsonBytes(response);
  }
  return n;
}

void WriteResponse(const WireResponse& response, char* out, size_t size) {
  ByteWriter w(out);
  w.Put<uint32_t>(kWireVersion);
  w.Put<uint64_t>(response.request_id);
  w.Put<uint8_t>(static_cast<uint8_t>(response.status));
  const uint32_t msg_len = MessageBytes(response);
  w.Put<uint32_t>(msg_len);
  w.PutBytes(response.message.data(), msg_len);
  if (response.status == WireStatus::kOk) {
    w.Put<uint8_t>(static_cast<uint8_t>(response.stats.engine));
    w.Put<double>(response.stats.partition_time_us);
    w.Put<double>(response.stats.materialize_time_us);
    w.Put<uint8_t>(static_cast<uint8_t>(response.stats.delta_outcome));
    w.Put<uint64_t>(static_cast<uint64_t>(response.stats.token_capacity));
    w.Put<uint64_t>(response.stats.session_count);
    // v2: cache disposition + certification marker. The cumulative cache
    // counters deliberately stay off the wire — repeated identical requests
    // must yield byte-identical responses (the cache-hit contract).
    w.Put<uint8_t>(static_cast<uint8_t>(response.stats.cache_outcome));
    w.Put<uint8_t>(response.stats.verified ? 1 : 0);
    w.Put<double>(response.queue_wait_us);
    w.Put<uint64_t>(response.digest);
    w.Put<uint64_t>(response.plan_bytes.size());
    w.PutBytes(response.plan_bytes.data(), response.plan_bytes.size());
    // v3: the per-stage latency block (bounds-checked on parse exactly like
    // cache_outcome) and the stats-JSON section (kStats responses only).
    w.Put<uint8_t>(static_cast<uint8_t>(obs::kNumStages));
    w.PutArray(response.stats.stage_us.data(), response.stats.stage_us.size());
    const uint32_t stats_len = StatsJsonBytes(response);
    w.Put<uint32_t>(stats_len);
    w.PutBytes(response.stats_json.data(), stats_len);
  }
  ZCHECK(w.pos() == out + size) << "response encoder size mismatch";
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kMalformedFrame:
      return "malformed-frame";
    case WireStatus::kOversizedFrame:
      return "oversized-frame";
    case WireStatus::kMalformedRequest:
      return "malformed-request";
    case WireStatus::kBadRequest:
      return "bad-request";
    case WireStatus::kBadDelta:
      return "bad-delta";
    case WireStatus::kOverloaded:
      return "overloaded";
    case WireStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case WireStatus::kShuttingDown:
      return "shutting-down";
    case WireStatus::kPlanRejected:
      return "plan-rejected";
    case WireStatus::kTransport:
      return "transport";
    case WireStatus::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string EncodeRequest(const WireRequest& request) {
  std::string out(RequestBytes(request), '\0');
  WriteRequest(request, out.data(), out.size());
  return out;
}

WireStatus ParseRequest(std::string_view payload, WireRequest* request,
                        std::string* error) {
  *request = WireRequest{};
  ByteReader in{payload.data(), payload.size()};

  if (!in.Have(4 + 1 + 8 + 4 + 4)) {
    return Malformed(error, "request truncated before the fixed header");
  }
  if (in.Get<uint32_t>() != kWireVersion) {
    return Malformed(error, "unknown request version");
  }
  const uint8_t kind = in.Get<uint8_t>();
  if (kind != static_cast<uint8_t>(RequestKind::kPlan) &&
      kind != static_cast<uint8_t>(RequestKind::kCloseSession) &&
      kind != static_cast<uint8_t>(RequestKind::kPing) &&
      kind != static_cast<uint8_t>(RequestKind::kStats)) {
    return Malformed(error, "unknown request kind");
  }
  request->kind = static_cast<RequestKind>(kind);
  request->request_id = in.Get<uint64_t>();
  request->deadline_ms = in.Get<uint32_t>();

  const uint32_t id_len = in.Get<uint32_t>();
  if (id_len > kMaxStreamIdBytes) {
    return Malformed(error, "stream id too long");
  }
  if (!in.Have(id_len)) {
    return Malformed(error, "request truncated inside the stream id");
  }
  request->stream_id.assign(in.cursor(), id_len);
  in.pos += id_len;

  if (!in.Have(1 + 8 + 8)) {
    return Malformed(error, "request truncated before the options");
  }
  const uint8_t flags = in.Get<uint8_t>();
  if ((flags & ~kOptKnownMask) != 0) {
    return Malformed(error, "unknown option flag bits");
  }
  request->options.hierarchical_partitioning = (flags & kOptHierarchical) != 0;
  request->options.zone_aware_thresholds = (flags & kOptZoneAware) != 0;
  const uint64_t capacity = in.Get<uint64_t>();
  // Tighter than the response-side cap: a *requested* per-device capacity
  // above the max sequence length is meaningless and would let capacity
  // products overflow downstream.
  if (capacity > static_cast<uint64_t>(kMaxWireSeqLen)) {
    return Malformed(error, "token capacity out of range");
  }
  request->options.token_capacity = static_cast<int64_t>(capacity);
  request->options.delta_replan_threshold = in.Get<double>();

  if (!in.Have(4)) {
    return Malformed(error, "request truncated before the batch");
  }
  const uint32_t num_seqs = in.Get<uint32_t>();
  if (num_seqs > kMaxWireSeqs) {
    return Malformed(error, "batch sequence count out of range");
  }
  if (!in.Have(size_t{num_seqs} * 8)) {
    return Malformed(error, "request truncated inside the batch");
  }
  std::vector<int64_t>& lens = request->batch.seq_lens;
  lens.resize(num_seqs);
  in.GetArray(lens.data(), num_seqs);
  for (int64_t len : lens) {
    if (static_cast<uint64_t>(len) > static_cast<uint64_t>(kMaxWireSeqLen)) {
      return Malformed(error, "sequence length out of range");
    }
  }

  if (!in.Have(1)) {
    return Malformed(error, "request truncated before the delta marker");
  }
  const uint8_t has_delta = in.Get<uint8_t>();
  if (has_delta > 1) {
    return Malformed(error, "bad delta marker");
  }
  if (has_delta == 1) {
    BatchDelta delta;
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t removed_n = in.Get<uint32_t>();
    if (removed_n > kMaxWireDeltaEntries || !in.Have(size_t{removed_n} * 4)) {
      return Malformed(error, "delta removed section out of range");
    }
    delta.removed.resize(removed_n);
    in.GetArray(delta.removed.data(), removed_n);
    for (int slot : delta.removed) {
      if (slot < 0) {  // A u32 above INT32_MAX.
        return Malformed(error, "delta slot out of range");
      }
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t resized_n = in.Get<uint32_t>();
    if (resized_n > kMaxWireDeltaEntries || !in.Have(size_t{resized_n} * 12)) {
      return Malformed(error, "delta resized section out of range");
    }
    delta.resized.reserve(resized_n);
    for (uint32_t i = 0; i < resized_n; ++i) {
      const uint32_t slot = in.Get<uint32_t>();
      const uint64_t len = in.Get<uint64_t>();
      if (slot > static_cast<uint32_t>(INT32_MAX) ||
          len > static_cast<uint64_t>(kMaxWireSeqLen)) {
        return Malformed(error, "delta resize entry out of range");
      }
      delta.resized.emplace_back(static_cast<int>(slot), static_cast<int64_t>(len));
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t added_n = in.Get<uint32_t>();
    if (added_n > kMaxWireDeltaEntries || !in.Have(size_t{added_n} * 8)) {
      return Malformed(error, "delta added section out of range");
    }
    delta.added.resize(added_n);
    in.GetArray(delta.added.data(), added_n);
    for (int64_t len : delta.added) {
      if (static_cast<uint64_t>(len) > static_cast<uint64_t>(kMaxWireSeqLen)) {
        return Malformed(error, "delta added length out of range");
      }
    }
    request->delta = std::move(delta);
  }

  if (!in.Have(1)) {
    return Malformed(error, "request truncated before the topology marker");
  }
  const uint8_t has_topology = in.Get<uint8_t>();
  if (has_topology > 1) {
    return Malformed(error, "bad topology marker");
  }
  if (has_topology == 1) {
    TopologyDelta topo;
    auto read_ranks = [&](std::vector<int>* out) {
      if (!in.Have(4)) {
        return false;
      }
      const uint32_t n = in.Get<uint32_t>();
      if (n > kMaxWireTopoEntries || !in.Have(size_t{n} * 4)) {
        return false;
      }
      out->resize(n);
      in.GetArray(out->data(), n);
      return std::none_of(out->begin(), out->end(), [](int rank) { return rank < 0; });
    };
    if (!read_ranks(&topo.removed_ranks) || !read_ranks(&topo.added_ranks)) {
      return Malformed(error, "topology rank section out of range");
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the topology");
    }
    const uint32_t speeds_n = in.Get<uint32_t>();
    if (speeds_n > kMaxWireTopoEntries || !in.Have(size_t{speeds_n} * 12)) {
      return Malformed(error, "topology speed section out of range");
    }
    topo.speed_factors.reserve(speeds_n);
    for (uint32_t i = 0; i < speeds_n; ++i) {
      const uint32_t rank = in.Get<uint32_t>();
      if (rank > static_cast<uint32_t>(INT32_MAX)) {
        return Malformed(error, "topology speed rank out of range");
      }
      topo.speed_factors.emplace_back(static_cast<int>(rank), in.Get<double>());
    }
    request->topology = std::move(topo);
  }

  if (in.pos != in.size) {
    return Malformed(error, "trailing bytes after the request");
  }
  return WireStatus::kOk;
}

std::string EncodeResponse(const WireResponse& response) {
  std::string out(ResponseBytes(response), '\0');
  WriteResponse(response, out.data(), out.size());
  return out;
}

void AppendRequestFrame(const WireRequest& request, std::string* out) {
  const size_t size = RequestBytes(request);
  WriteRequest(request, ReserveFrame(FrameType::kRequest, size, out), size);
}

void AppendResponseFrame(const WireResponse& response, std::string* out) {
  const size_t size = ResponseBytes(response);
  const FrameType type =
      response.status == WireStatus::kOk ? FrameType::kResponse : FrameType::kError;
  WriteResponse(response, ReserveFrame(type, size, out), size);
}

WireStatus ParseResponse(FrameType type, std::string_view payload,
                         WireResponse* response, std::string* error) {
  *response = WireResponse{};
  ByteReader in{payload.data(), payload.size()};
  if (!in.Have(4 + 8 + 1 + 4)) {
    return Malformed(error, "response truncated before the fixed header");
  }
  if (in.Get<uint32_t>() != kWireVersion) {
    return Malformed(error, "unknown response version");
  }
  response->request_id = in.Get<uint64_t>();
  const uint8_t status = in.Get<uint8_t>();
  if (status > static_cast<uint8_t>(WireStatus::kInternal)) {
    return Malformed(error, "unknown response status");
  }
  response->status = static_cast<WireStatus>(status);
  const uint32_t msg_len = in.Get<uint32_t>();
  if (msg_len > kMaxMessageBytes || !in.Have(msg_len)) {
    return Malformed(error, "response truncated inside the message");
  }
  response->message.assign(in.cursor(), msg_len);
  in.pos += msg_len;

  // Error responses carry a success marker mismatch: kOk on the frame type
  // kError (or vice versa) is a protocol violation the caller detects.
  const bool is_error_frame = type == FrameType::kError;
  if (is_error_frame != (response->status != WireStatus::kOk)) {
    return Malformed(error, "frame type disagrees with the response status");
  }
  if (response->status != WireStatus::kOk) {
    if (in.pos != in.size) {
      return Malformed(error, "trailing bytes after the error response");
    }
    return WireStatus::kOk;
  }

  if (!in.Have(1 + 8 + 8 + 1 + 8 + 8 + 1 + 1 + 8 + 8 + 8)) {
    return Malformed(error, "response truncated inside the stats");
  }
  const uint8_t engine = in.Get<uint8_t>();
  if (engine < static_cast<uint8_t>(PlanEngine::kElastic) ||
      engine > static_cast<uint8_t>(PlanEngine::kAdopted)) {
    return Malformed(error, "unknown plan engine");
  }
  response->stats.engine = static_cast<PlanEngine>(engine);
  response->stats.partition_time_us = in.Get<double>();
  response->stats.materialize_time_us = in.Get<double>();
  const uint8_t outcome = in.Get<uint8_t>();
  if (outcome > static_cast<uint8_t>(DeltaOutcome::kRebasedMigration)) {
    return Malformed(error, "unknown delta outcome");
  }
  response->stats.delta_outcome = static_cast<DeltaOutcome>(outcome);
  const uint64_t capacity = in.Get<uint64_t>();
  if (capacity > kMaxWireTokens) {
    return Malformed(error, "token capacity out of range");
  }
  response->stats.token_capacity = static_cast<int64_t>(capacity);
  response->stats.session_count = in.Get<uint64_t>();
  const uint8_t cache_outcome = in.Get<uint8_t>();
  if (cache_outcome > static_cast<uint8_t>(CacheOutcome::kNearMatch)) {
    return Malformed(error, "unknown cache outcome");
  }
  response->stats.cache_outcome = static_cast<CacheOutcome>(cache_outcome);
  const uint8_t verified = in.Get<uint8_t>();
  if (verified > 1) {
    return Malformed(error, "bad verified marker");
  }
  response->stats.verified = verified == 1;
  response->queue_wait_us = in.Get<double>();
  response->digest = in.Get<uint64_t>();
  const uint64_t plan_len = in.Get<uint64_t>();
  if (!in.Have(plan_len)) {
    return Malformed(error, "response truncated inside the plan bytes");
  }
  response->plan_bytes.assign(in.cursor(),
                              static_cast<size_t>(plan_len));
  in.pos += static_cast<size_t>(plan_len);

  // Stage block: bounds-checked like cache_outcome — a count over the cap or
  // a non-finite/negative latency is a malformed response, never a
  // silently-poisoned stat. Stages beyond obs::kNumStages (a future daemon)
  // are validated and dropped.
  if (!in.Have(1)) {
    return Malformed(error, "response truncated before the stage block");
  }
  const uint8_t stage_count = in.Get<uint8_t>();
  if (stage_count > kMaxWireStages) {
    return Malformed(error, "stage count out of range");
  }
  if (!in.Have(size_t{stage_count} * 8)) {
    return Malformed(error, "response truncated inside the stage block");
  }
  for (uint8_t i = 0; i < stage_count; ++i) {
    const double stage_us = in.Get<double>();
    if (!std::isfinite(stage_us) || stage_us < 0) {
      return Malformed(error, "stage latency out of range");
    }
    if (i < static_cast<uint8_t>(obs::kNumStages)) {
      response->stats.stage_us[i] = stage_us;
    }
  }
  if (!in.Have(4)) {
    return Malformed(error, "response truncated before the stats json");
  }
  const uint32_t stats_len = in.Get<uint32_t>();
  if (stats_len > kMaxWireStatsJsonBytes || !in.Have(stats_len)) {
    return Malformed(error, "stats json section out of range");
  }
  response->stats_json.assign(in.cursor(),
                              stats_len);
  in.pos += stats_len;

  if (in.pos != in.size) {
    return Malformed(error, "trailing bytes after the response");
  }
  return WireStatus::kOk;
}

}  // namespace net
}  // namespace zeppelin
