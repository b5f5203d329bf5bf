// The three plan-serving workloads: an in-process PlannerDaemon with default
// options, driven in a closed loop by two PlanClient connections, in the
// paper regime (Llama 3B, Cluster A x 64 = 512 GPUs, pretrain mixture,
// 16 Ki tokens/GPU).
//
//   serve-miss    every request carries a batch the daemon's cache does not
//                 hold (each client cycles 256 batches; the LRU holds 128), so
//                 each one is sorted, partitioned, certified and encoded.
//   serve-hit     256 shapes replayed in a Zipfian order (s = 1.1); seven
//                 in eight requests verbatim, the rest as slot
//                 permutations: exact hits, remapped hits and a miss tail.
//   serve-stream  each connection drives one delta session (1% churn) and
//                 sends the full new batch plus its BatchDelta; the cache
//                 is bypassed and the delta planner patches the plan.
//
// Every served plan is parsed and certified by the client (PlanClient's
// ParsePlan + VerifyPlan), must be marked verified by the daemon, and must
// carry the digest of an in-process twin: PlannerService::Plan on the same
// batch, or — for serve-stream — a twin session fed the same deltas.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/common/rng.h"
#include "src/data/mixture.h"
#include "src/data/stream.h"
#include "src/net/plan_client.h"
#include "src/net/planner_daemon.h"

namespace perfbench {

using namespace zeppelin;

namespace {

enum class Mode { kMiss, kHit, kStream };

constexpr int kClients = 2;
constexpr int kNodes = 64;
constexpr int64_t kTokensPerGpu = 16384;
constexpr int kMissPool = 512;        // 4x the daemon's 128-entry cache.
constexpr int kHitShapes = 256;       // 2x the daemon's cache.
constexpr int kHitPermutations = 2;   // Permuted variants kept per shape.
constexpr double kZipfS = 1.1;
// One request in eight is permuted. With one in four, the cache's
// re-anchoring turns enough verbatim repeats into remaps that only ~58% of
// requests are exact hits and p50 sits on the boundary between modes; one
// in eight gives ~75% exact hits, ~13% remapped hits and ~12% misses.
constexpr uint64_t kPermutedOneIn = 8;
constexpr int kWarmupMiss = 8;        // Per client.
constexpr int kWarmupHit = 512;       // Per client.
constexpr int kWarmupStream = 256;    // Deltas per client after the base.
constexpr int kSimSample = 16;
constexpr int kSetupReps = 5;
constexpr int kProbeItems = 128;
constexpr int kPingEvery = 16;        // Traced run: one ping per this many ops.

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One set-up's worth of state: the daemon, the connections, the generated
// inputs and their twin digests.
struct ServeState {
  std::unique_ptr<net::PlannerDaemon> daemon;
  std::vector<std::unique_ptr<net::PlanClient>> clients;
  // kMiss: the batch cycle. kHit: shape s variant v at s * (1 + kHitPermutations) + v
  // (v = 0 verbatim). kStream: unused.
  std::vector<Batch> batches;
  std::vector<uint64_t> twins;
  std::vector<double> zipf_weights;
  std::vector<Rng> client_rngs;  // kHit: each client's request stream.
  // kStream: one stream per client and every digest it was served, base
  // plan first.
  std::vector<std::unique_ptr<WorkloadStream>> streams;
  std::vector<std::vector<uint64_t>> stream_digests;
  std::vector<Batch> stream_initial;
  // Batches whose simulated training throughput the run reports.
  std::vector<Batch> sim_batches;
  std::vector<uint64_t> sim_twins;
  std::vector<uint64_t> cursor;  // kMiss: next pool index per client.

  void Stop() {
    for (auto& client : clients) {
      client->Close();
    }
    clients.clear();
    if (daemon) {
      daemon->Stop();
    }
  }
};

class ServeBench {
 public:
  ServeBench(Mode mode, const RunOptions& options, Tracer& tracer)
      : mode_(mode),
        options_(options),
        tracer_(tracer),
        regime_(MakeLlama3B(), MakeClusterA(kNodes)),
        dist_(MakePretrainMixture()) {}

  RunOutcome Run();

 private:
  void Setup(ServeState* state, bool record);
  // One closed-loop request of client `c`; failures are recorded in outcome_.
  void ClientOp(ServeState& state, int c, bool timed, int64_t op, Samples* latency,
                uint64_t* applied);
  void ReplayStreams(ServeState& state);
  std::vector<ProbeItem> ProbeItems();
  std::function<Batch()> Sampler(uint64_t salt) const;

  int64_t TotalTokens() const { return int64_t{regime_.world()} * kTokensPerGpu; }

  Mode mode_;
  RunOptions options_;
  Tracer& tracer_;
  Regime regime_;
  LengthDistribution dist_;
  RunOutcome outcome_;
  std::mutex outcome_mu_;  // Guards outcome_ failures from client threads.
};

std::function<Batch()> ServeBench::Sampler(uint64_t salt) const {
  auto sampler = std::make_shared<BatchSampler>(dist_, TotalTokens(), Mix(options_.seed, salt));
  return [sampler] { return sampler->NextBatch(); };
}

void ServeBench::Setup(ServeState* state, bool record) {
  const double start = NowUs();
  state->daemon = std::make_unique<net::PlannerDaemon>(regime_.model(), regime_.cluster());
  std::string error;
  if (!state->daemon->Start(&error)) {
    outcome_.Fail("daemon failed to start: " + error);
    return;
  }

  // Inputs: generated from the seed only.
  Fingerprint fingerprint;
  const std::function<Batch()> next = Sampler(0);
  auto generate = [&] {
    Batch batch = TimedNextBatch(next, tracer_, -1, 0);
    fingerprint.MixLens(batch.seq_lens);
    regime_.CheckFeasible(batch, &outcome_);
    return batch;
  };
  if (mode_ == Mode::kMiss) {
    for (int i = 0; i < kMissPool; ++i) {
      state->batches.push_back(generate());
    }
  } else if (mode_ == Mode::kHit) {
    for (int s = 0; s < kHitShapes; ++s) {
      const Batch shape = generate();
      state->batches.push_back(shape);
      for (int v = 1; v <= kHitPermutations; ++v) {
        Batch permuted = shape;
        PermuteSlots(&permuted, Mix(options_.seed, 1000 + s * 8 + v));
        state->batches.push_back(std::move(permuted));
      }
      state->zipf_weights.push_back(1.0 / std::pow(static_cast<double>(s + 1), kZipfS));
    }
  } else {
    for (int c = 0; c < kClients; ++c) {
      state->stream_initial.push_back(generate());
    }
  }

  // Twin digests and the zone mix, from an in-process service.
  PlannerService twin;
  ZoneMix zones(regime_.MemoryCap());
  for (size_t i = 0; i < state->batches.size(); ++i) {
    const PlanResponse response = twin.Plan(regime_.Request(state->batches[i]));
    state->twins.push_back(response.digest);
    if (mode_ == Mode::kMiss || i % (1 + kHitPermutations) == 0) {
      zones.Add(*response.plan);
    }
  }
  for (const Batch& initial : state->stream_initial) {
    zones.Add(*twin.Plan(regime_.Request(initial)).plan);
  }

  // The simulated-throughput sample: the first batches the workload serves
  // fully planned (kStream: the sessions' base batches, then fresh draws).
  for (int i = 0; i < kSimSample; ++i) {
    Batch batch;
    if (mode_ == Mode::kMiss) {
      batch = state->batches[i];
    } else if (mode_ == Mode::kHit) {
      batch = state->batches[i * (1 + kHitPermutations)];
    } else if (i < kClients) {
      batch = state->stream_initial[i];
    } else {
      batch = generate();
    }
    state->sim_twins.push_back(twin.Plan(regime_.Request(batch)).digest);
    state->sim_batches.push_back(std::move(batch));
  }

  // Connections, per-client generators and the warm-up pass.
  for (int c = 0; c < kClients; ++c) {
    state->clients.push_back(
        std::make_unique<net::PlanClient>("127.0.0.1", state->daemon->port()));
    state->client_rngs.emplace_back(Mix(options_.seed, 100 + c));
    state->cursor.push_back(0);
  }
  if (mode_ == Mode::kStream) {
    for (int c = 0; c < kClients; ++c) {
      state->streams.push_back(std::make_unique<WorkloadStream>(
          dist_, state->stream_initial[c], StreamOptions{},
          Mix(options_.seed, 200 + c)));
      state->stream_digests.emplace_back();
    }
  }
  const int warmup = mode_ == Mode::kMiss ? kWarmupMiss
                     : mode_ == Mode::kHit ? kWarmupHit
                                           : kWarmupStream + 1;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < warmup; ++i) {
      ClientOp(*state, c, /*timed=*/false, -1, nullptr, nullptr);
    }
  }

  if (record) {
    zones.Report(&outcome_);
    outcome_.input_fingerprint = fingerprint.value();
  }
  outcome_.setup_s.Add((NowUs() - start) / 1e6);
}

void ServeBench::ClientOp(ServeState& state, int c, bool timed, int64_t op, Samples* latency,
                          uint64_t* applied) {
  net::PlanClient& client = *state.clients[c];
  const int64_t root = timed ? tracer_.NewSpanId() : -1;
  const double op_start = NowUs();
  net::WireRequest request;
  uint64_t twin = 0;
  bool check_twin = true;
  if (mode_ == Mode::kMiss) {
    // Each client cycles through its own half of the pool, so a batch comes
    // back only after at least 255 other requests — past the 128-entry LRU.
    constexpr uint64_t kHalf = kMissPool / kClients;
    const uint64_t index = static_cast<uint64_t>(c) * kHalf + state.cursor[c]++ % kHalf;
    request.batch = state.batches[index];
    twin = state.twins[index];
  } else if (mode_ == Mode::kHit) {
    Rng& rng = state.client_rngs[c];
    const int shape = rng.NextWeighted(state.zipf_weights);
    const bool permuted = rng.NextBounded(kPermutedOneIn) == 0;
    const int variant = permuted ? 1 + static_cast<int>(rng.NextBounded(kHitPermutations)) : 0;
    const size_t index = static_cast<size_t>(shape) * (1 + kHitPermutations) + variant;
    request.batch = state.batches[index];
    twin = state.twins[index];
  } else {
    WorkloadStream& stream = *state.streams[c];
    request.stream_id = stream.stream_id();
    if (!state.stream_digests[c].empty()) {
      // Every request after the base plan carries the next delta.
      BatchDelta delta;
      {
        ScopedSpan span(tracer_, "data.next_batch", op, root, c + 1);
        delta = stream.Next();
      }
      request.delta = std::move(delta);
    }
    request.batch = stream.batch();
    check_twin = false;  // Checked by ReplayStreams after the window.
  }

  const double start = NowUs();
  const net::PlanClientResult result = client.Plan(std::move(request));
  const double end = NowUs();
  if (timed) {
    latency->Add(end - start);
    tracer_.AddSpan("net.plan_client.plan", start, end, op, root, c + 1, /*sample=*/false);
    tracer_.AddSpan("op", op_start, end, op, -1, c + 1, /*sample=*/false, root);
    if (result.ok() && result.stats.cache_outcome != CacheOutcome::kHit) {
      tracer_.AddSample("net.planner_daemon.queue_wait", result.queue_wait_us);
    }
    if (applied != nullptr && result.stats.delta_outcome == DeltaOutcome::kApplied) {
      ++*applied;
    }
  }
  if (mode_ == Mode::kStream) {
    state.stream_digests[c].push_back(result.ok() ? result.digest : 0);
  }
  std::string failure;
  if (!result.ok()) {
    failure = std::string("request failed: ") + net::WireStatusName(result.status) + " " +
              result.message;
  } else if (result.plan == nullptr || !result.stats.verified) {
    failure = "plan not certified";
  } else if (check_twin && result.digest != twin) {
    failure = "served digest differs from the in-process twin";
  }
  if (!failure.empty()) {
    std::lock_guard<std::mutex> lock(outcome_mu_);
    outcome_.Fail("client " + std::to_string(c) + ": " + failure);
  }
}

void ServeBench::ReplayStreams(ServeState& state) {
  // Twin sessions fed the same deltas must reproduce every served digest;
  // the two replays run in parallel like the two connections did.
  std::vector<std::thread> replays;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    replays.emplace_back([&, c] {
      PlannerService twin;
      WorkloadStream stream(dist_, state.stream_initial[c],
                            StreamOptions{},
                            Mix(options_.seed, 200 + c));
      PlanRequest request = regime_.Request(stream.batch());
      request.stream_id = stream.stream_id();
      const std::vector<uint64_t>& served = state.stream_digests[c];
      for (size_t i = 0; i < served.size(); ++i) {
        BatchDelta delta;
        if (i > 0) {
          delta = stream.Next();
          request.delta = &delta;
        }
        request.batch = &stream.batch();
        if (twin.Plan(request).digest != served[i] && failures[c].empty()) {
          char message[128];
          std::snprintf(message, sizeof(message),
                        "stream %d request %zu: served digest differs from the twin session", c,
                        i);
          failures[c] = message;
        }
      }
    });
  }
  for (std::thread& replay : replays) {
    replay.join();
  }
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      outcome_.Fail(failure);
    }
  }
}

std::vector<ProbeItem> ServeBench::ProbeItems() {
  // The probe regenerates inputs with the workload's own generator (timed
  // as data.next_batch) on a separate seed stream.
  std::vector<ProbeItem> items;
  const std::function<Batch()> next = Sampler(7);
  if (mode_ == Mode::kHit) {
    std::vector<Batch> shapes;
    std::vector<double> weights;
    for (int s = 0; s < kProbeItems / 2; ++s) {
      shapes.push_back(TimedNextBatch(next, tracer_, -1, 0));
      weights.push_back(1.0 / std::pow(static_cast<double>(s + 1), kZipfS));
    }
    Rng rng(Mix(options_.seed, 300));
    for (int i = 0; i < kProbeItems; ++i) {
      ProbeItem item{shapes[rng.NextWeighted(weights)], rng.NextBounded(kPermutedOneIn) == 0};
      if (item.permuted) {
        PermuteSlots(&item.batch, rng.NextU64());
      }
      items.push_back(std::move(item));
    }
  } else if (mode_ == Mode::kStream) {
    WorkloadStream stream(dist_, TimedNextBatch(next, tracer_, -1, 0), StreamOptions{},
                          Mix(options_.seed, 301));
    for (int i = 0; i < kProbeItems; ++i) {
      {
        ScopedSpan span(tracer_, "data.next_batch", -1, -1, 0);
        stream.Next();
      }
      items.push_back({stream.batch(), false});
    }
  } else {
    for (int i = 0; i < kProbeItems; ++i) {
      items.push_back({TimedNextBatch(next, tracer_, -1, 0), false});
    }
  }
  return items;
}

RunOutcome ServeBench::Run() {
  // Set-up and the timed window run on one CPU (see CpuPin); the checks
  // after the window use every CPU.
  CpuPin pin;
  outcome_.info["pinned_cpu"] = pin.cpu();
  ServeState state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      state.Stop();
      state = ServeState{};
    }
    Setup(&state, /*record=*/rep == kSetupReps - 1);
  }
  if (!state.daemon || state.clients.size() != kClients) {
    return std::move(outcome_);
  }

  const net::DaemonCounters before = state.daemon->counters();
  std::vector<Samples> latency(kClients);
  std::vector<uint64_t> ops(kClients, 0);
  std::vector<uint64_t> applied(kClients, 0);
  std::latch go(1);
  const double window_us = options_.seconds * 1e6;
  double window_start = 0;
  std::vector<double> window_end(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      const double deadline = window_start + window_us;
      while (NowUs() < deadline) {
        const int64_t op = tracer_.NextOpId();
        ClientOp(state, c, /*timed=*/true, op, &latency[c], &applied[c]);
        ++ops[c];
        if (tracer_.enabled() && ops[c] % kPingEvery == 0) {
          ScopedSpan span(tracer_, "net.plan_client.ping", op, -1, c + 1);
          if (!state.clients[c]->Ping().ok()) {
            std::lock_guard<std::mutex> lock(outcome_mu_);
            outcome_.Fail("ping failed");
          }
        }
      }
      window_end[c] = NowUs();
    });
  }
  window_start = NowUs();
  go.count_down();
  for (std::thread& thread : threads) {
    thread.join();
  }
  const net::DaemonCounters after = state.daemon->counters();
  outcome_.peak_rss_mb = PeakRssMb();
  pin.Release();

  for (int c = 0; c < kClients; ++c) {
    outcome_.latency_us.Append(latency[c]);
    outcome_.ops += ops[c];
  }
  outcome_.attempted += outcome_.ops;
  outcome_.wall_s = (*std::max_element(window_end.begin(), window_end.end()) - window_start) / 1e6;

  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  const double hit_share = hits + misses > 0 ? hits / (hits + misses) : 0;
  outcome_.info["cache_hits"] = hits;
  outcome_.info["cache_misses"] = misses;
  tracer_.SetValue("core.plan_cache.hit_share", hit_share);
  if (mode_ == Mode::kMiss && hits > 0) {
    outcome_.Fail("serve-miss hit the cache " + std::to_string(hits) + " times");
  }
  if (mode_ == Mode::kHit && hits == 0) {
    outcome_.Fail("serve-hit never hit the cache");
  }
  if (mode_ == Mode::kStream) {
    const double share = outcome_.ops > 0 ? static_cast<double>(applied[0] + applied[1]) /
                                                static_cast<double>(outcome_.ops)
                                          : 0;
    tracer_.SetValue("core.delta_planner.applied_share", share);
    outcome_.info["delta_applied_share"] = share;
  }
  state.Stop();

  if (mode_ == Mode::kStream) {
    ReplayStreams(state);
  }
  outcome_.sim_tokens_per_s =
      SimulateSample(regime_, state.sim_batches, state.sim_twins, tracer_, &outcome_);

  if (tracer_.enabled()) {
    const ProbeShares shares =
        ProbeLayers(regime_, ProbeItems(), dist_, options_.seed, tracer_, &outcome_);
    if (mode_ != Mode::kStream) {
      // Only serve-stream's loop patches deltas; the others report the probe's.
      tracer_.SetValue("core.delta_planner.applied_share", shares.delta_applied_share);
    }
  }
  return std::move(outcome_);
}

}  // namespace

RunOutcome RunServe(const RunOptions& options, Tracer& tracer) {
  Mode mode = Mode::kMiss;
  if (options.workload == "serve-hit") {
    mode = Mode::kHit;
  } else if (options.workload == "serve-stream") {
    mode = Mode::kStream;
  }
  ServeBench bench(mode, options, tracer);
  return bench.Run();
}

}  // namespace perfbench
