// PlanClient (src/net/plan_client.h) failure handling without a real daemon:
// the deterministic capped-exponential backoff schedule, retry behavior
// against injected connection failures (dead port, accept-then-close, and
// accept-then-stall servers), and the idempotency rule — stateless requests
// retry up to the cap with recorded backoff sleeps, session plan requests
// surface the first transport error with no retry and no sleep.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/net/plan_client.h"
#include "src/net/wire.h"
#include "src/obs/trace.h"

namespace zeppelin {
namespace net {
namespace {

// A server that accepts connections and then misbehaves on purpose.
class EvilServer {
 public:
  enum class Mode { kCloseImmediately, kStall };

  explicit EvilServer(Mode mode) : mode_(mode) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }

  ~EvilServer() {
    stop_ = true;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
    for (int fd : held_) {
      ::close(fd);
    }
  }

  int port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        break;
      }
      ++accepted_;
      if (mode_ == Mode::kCloseImmediately) {
        ::close(fd);
      } else {
        held_.push_back(fd);  // Never respond; the client must time out.
      }
    }
  }

  Mode mode_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> accepted_{0};
  std::thread thread_;
  std::vector<int> held_;
};

// Grabs a port that is guaranteed closed (bound, then released).
int DeadPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

PlanClientOptions RecordingOptions(std::vector<int>* sleeps, int max_retries) {
  PlanClientOptions options;
  options.connect_timeout_ms = 200;
  options.request_timeout_ms = 200;
  options.max_retries = max_retries;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 1000;
  options.sleep_ms = [sleeps](int ms) { sleeps->push_back(ms); };
  return options;
}

TEST(PlanClientTest, BackoffScheduleIsCappedExponential) {
  PlanClientOptions options;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 1000;
  const int expected[] = {10, 20, 40, 80, 160, 320, 640, 1000, 1000, 1000};
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(RetryBackoffMs(attempt, options), expected[attempt]) << attempt;
  }
  // Degenerate initial values clamp to a 1 ms floor and never overflow.
  options.backoff_initial_ms = 0;
  EXPECT_EQ(RetryBackoffMs(0, options), 1);
  EXPECT_EQ(RetryBackoffMs(62, options), 1000);
}

TEST(PlanClientTest, ConnectFailureRetriesStatelessWithBackoff) {
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", DeadPort(), RecordingOptions(&sleeps, 3));
  const PlanClientResult result = client.Ping();
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 4);  // 1 try + 3 retries.
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20, 40}));
}

TEST(PlanClientTest, SessionPlanIsNeverAutoRetried) {
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 3));

  WireRequest session;
  session.stream_id = "stream-a";
  session.batch.seq_lens = {100, 200, 300};
  const PlanClientResult result = client.Plan(std::move(session));
  EXPECT_EQ(result.status, WireStatus::kTransport);
  // Exactly one attempt, no backoff sleeps: the client cannot know whether
  // the daemon applied the session mutation, so a blind resend is forbidden.
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(PlanClientTest, StatelessPlanRetriesToTheCap) {
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 2));

  WireRequest stateless;
  stateless.batch.seq_lens = {100, 200, 300};
  const PlanClientResult result = client.Plan(std::move(stateless));
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 3);  // 1 try + 2 retries, each a fresh connect.
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20}));
  EXPECT_GE(server.accepted(), 3);
}

TEST(PlanClientTest, CloseSessionIsIdempotentAndRetried) {
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 2));
  const PlanClientResult result = client.CloseSession("stream-a");
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20}));
}

TEST(PlanClientTest, RequestTimeoutSurfacesAsTransport) {
  EvilServer server(EvilServer::Mode::kStall);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 1));
  const PlanClientResult result = client.Ping();
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(sleeps, (std::vector<int>{10}));
}

TEST(PlanClientTest, StatsIsIdempotentAndRetried) {
  // kStats carries no stream state, so like Ping it retries through
  // transport failures instead of surfacing the first one.
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 2));
  const PlanClientResult result = client.Stats();
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20}));
}

// --- wire version gate ----------------------------------------------------------
//
// Only v3 is spoken: a frame from a v2 peer (or any other version word) gets
// a typed malformed error naming the version, never a best-effort decode.

void PatchVersion(std::string* payload, uint32_t version) {
  for (int i = 0; i < 4; ++i) {
    (*payload)[i] = static_cast<char>((version >> (8 * i)) & 0xff);
  }
}

TEST(WireVersionTest, NonV3FramesAreRejectedAsUnknownVersion) {
  WireRequest plan;
  plan.request_id = 22;
  plan.batch.seq_lens = {128, 256, 512};
  WireResponse ok;
  ok.request_id = 21;
  ok.status = WireStatus::kOk;
  ok.digest = 0xfeed;
  ok.plan_bytes = "plan";
  // A v2 response ended after the plan bytes: 17 (header) + 34
  // (engine..sessions) + 2 (cache_outcome, verified) + 8 (queue_wait) + 8
  // (digest) + 8 (plan_len) + 4 (plan) = 81 bytes for this one.
  std::string v2_response = EncodeResponse(ok);
  ASSERT_GT(v2_response.size(), 81u);
  v2_response.resize(81);

  for (uint32_t version : {0u, 1u, 2u, 4u, 0xffffffffu}) {
    std::string request_payload = EncodeRequest(plan);
    PatchVersion(&request_payload, version);
    WireRequest parsed_request;
    std::string error;
    EXPECT_EQ(ParseRequest(request_payload, &parsed_request, &error),
              WireStatus::kMalformedRequest)
        << version;
    EXPECT_EQ(error, "unknown request version") << version;

    for (std::string response_payload : {EncodeResponse(ok), v2_response}) {
      PatchVersion(&response_payload, version);
      WireResponse parsed_response;
      error.clear();
      EXPECT_EQ(ParseResponse(FrameType::kResponse, response_payload, &parsed_response, &error),
                WireStatus::kMalformedRequest)
          << version;
      EXPECT_EQ(error, "unknown response version") << version;
    }
  }

  // The current version word still round-trips.
  WireRequest parsed;
  std::string error;
  ASSERT_EQ(ParseRequest(EncodeRequest(plan), &parsed, &error), WireStatus::kOk) << error;
  EXPECT_EQ(parsed.batch.seq_lens, plan.batch.seq_lens);
}

}  // namespace
}  // namespace net
}  // namespace zeppelin
