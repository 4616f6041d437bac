#include "server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/request_executor.h"
#include "service/estimation_service.h"
#include "service/load_driver.h"

namespace cardbench {
namespace {

// ---------------------------------------------------------------------------
// Protocol unit tests (no sockets, no database).
// ---------------------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  ServerRequest request;
  request.id = 42;
  request.estimator = "PostgreSQL";
  request.sql = "SELECT COUNT(*) FROM users WHERE users.Reputation >= 1;";
  request.subplan_mask = 5;
  request.deadline_ms = 12.5;

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->estimator, request.estimator);
  EXPECT_EQ(decoded->sql, request.sql);
  EXPECT_EQ(decoded->subplan_mask, request.subplan_mask);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, request.deadline_ms);
}

TEST(ProtocolTest, ResponseRoundTripPreservesExactDoubles) {
  ServerResponse response;
  response.id = 7;
  response.code = StatusCode::kOk;
  response.cards[1] = 42.125;
  response.cards[3] = 1.0 / 3.0;  // needs all 17 significant digits
  response.cache_hits = 2;
  response.cache_misses = 1;
  response.elapsed_us = 913.25;

  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, 7u);
  EXPECT_TRUE(decoded->ok());
  ASSERT_EQ(decoded->cards.size(), 2u);
  EXPECT_EQ(decoded->cards.at(1), 42.125);
  EXPECT_EQ(decoded->cards.at(3), 1.0 / 3.0);  // bit-identical round trip
  EXPECT_EQ(decoded->cache_hits, 2u);
  EXPECT_EQ(decoded->cache_misses, 1u);
  EXPECT_DOUBLE_EQ(decoded->elapsed_us, 913.25);
}

TEST(ProtocolTest, RejectionResponseCarriesBackpressurePayload) {
  ServerResponse response;
  response.id = 9;
  response.code = StatusCode::kResourceExhausted;
  response.error = "estimation queue full";
  response.queue_depth = 256;
  response.retry_after_ms = 3.5;

  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->error, "estimation queue full");
  EXPECT_EQ(decoded->queue_depth, 256u);
  EXPECT_DOUBLE_EQ(decoded->retry_after_ms, 3.5);
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(ProtocolTest, DecodeRequestRejectsGarbage) {
  EXPECT_FALSE(DecodeRequest("not json at all").ok());
  EXPECT_FALSE(DecodeRequest("{\"id\":1}").ok());  // missing estimator+sql
  EXPECT_FALSE(
      DecodeRequest("{\"estimator\":\"x\",\"sql\":\"y\"} trailing").ok());
  EXPECT_FALSE(
      DecodeRequest(
          "{\"estimator\":\"x\",\"sql\":\"y\",\"deadline_ms\":-1}")
          .ok());
}

TEST(ProtocolTest, FrameReaderHandlesArbitraryFragmentation) {
  const std::string frame_a = EncodeFrame("{\"a\":1}");
  const std::string frame_b = EncodeFrame("{\"b\":2}");
  const std::string stream = frame_a + frame_b;

  FrameReader reader;
  std::string payload;
  // Byte-at-a-time delivery: both frames must still come out whole.
  std::vector<std::string> payloads;
  for (char byte : stream) {
    reader.Feed(&byte, 1);
    while (reader.Next(&payload).ok()) payloads.push_back(payload);
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "{\"a\":1}");
  EXPECT_EQ(payloads[1], "{\"b\":2}");
  EXPECT_EQ(reader.Next(&payload).code(), StatusCode::kNotFound);
}

TEST(ProtocolTest, FrameReaderRejectsOversizedLength) {
  FrameReader reader;
  const uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4] = {static_cast<char>(huge >> 24),
                    static_cast<char>(huge >> 16),
                    static_cast<char>(huge >> 8), static_cast<char>(huge)};
  reader.Feed(prefix, sizeof(prefix));
  std::string payload;
  EXPECT_EQ(reader.Next(&payload).code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, FrameReaderDetectsHttpGet) {
  FrameReader reader;
  const char* probe = "GET /metrics HTTP/1.1\r\n\r\n";
  reader.Feed(probe, std::strlen(probe));
  EXPECT_TRUE(reader.LooksLikeHttpGet());

  FrameReader binary;
  const std::string frame = EncodeFrame("{}");
  binary.Feed(frame.data(), frame.size());
  EXPECT_FALSE(binary.LooksLikeHttpGet());
}

TEST(ProtocolTest, StatusCodeNamesRoundTrip) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_EQ(StatusCodeFromName(StatusCodeName(code)), code);
  }
  EXPECT_EQ(StatusCodeFromName("Bogus"), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Server tests against a real loopback socket.
// ---------------------------------------------------------------------------

/// Deterministic estimator: pure function of the sub-plan's canonical key.
class HashEstimator : public CardinalityEstimator {
 public:
  explicit HashEstimator(std::string name = "Hash")
      : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return 1.0 +
           static_cast<double>(Fnv1aHash(graph.CanonicalKey(mask)) % 1000003);
  }

 private:
  std::string name_;
};

/// Parks inside EstimateCard until released — pins a worker so queue depth
/// and drain behavior can be tested deterministically.
class GateEstimator : public CardinalityEstimator {
 public:
  std::string name() const override { return "Gate"; }
  double EstimateCard(const QueryGraph&, uint64_t) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return 42.0;
  }
  void WaitUntilEntered() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool released_ = false;
};

constexpr const char* kJoinSql =
    "SELECT COUNT(*) FROM posts, comments WHERE posts.Id = "
    "comments.PostId AND comments.Score >= 1;";
constexpr const char* kSingleSql =
    "SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;";

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.05;
    db_ = GenerateStatsDatabase(config).release();
  }
  static void TearDownTestSuite() { delete db_; }

  static Database* db_;
};

Database* ServerTest::db_ = nullptr;

/// Raw blocking connection for protocol-violation tests (CardClient only
/// speaks well-formed frames).
int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void RawSend(int fd, const std::string& bytes) {
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// Blocks for the next frame; empty optional-style: ok=false means EOF.
bool RawReadFrame(int fd, std::string* payload) {
  FrameReader reader;
  char buf[4096];
  for (;;) {
    if (reader.Next(payload).ok()) return true;
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    reader.Feed(buf, static_cast<size_t>(n));
  }
}

TEST_F(ServerTest, RoundTripMatchesServiceForEveryEstimator) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>("HashA"));
  service.RegisterEstimator(std::make_unique<HashEstimator>("HashB"));
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto query = ParseSql(kJoinSql);
  ASSERT_TRUE(query.ok());
  const QueryGraph graph(*query, *db_);

  CardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (const std::string& estimator : {std::string("HashA"),
                                       std::string("HashB")}) {
    auto expected = service.EstimateQuerySync(estimator, graph);
    ASSERT_TRUE(expected.ok());

    ServerRequest request;
    request.estimator = estimator;
    request.sql = kJoinSql;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->error;
    ASSERT_EQ(response->cards.size(), expected->size());
    for (const auto& [mask, card] : *expected) {
      EXPECT_EQ(response->cards.at(mask), card) << "mask " << mask;
    }
    EXPECT_GT(response->elapsed_us, 0.0);
  }
  const ServerGauges gauges = server.Gauges();
  EXPECT_EQ(gauges.open_connections, 1u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerTest, SingleMaskRequestAndInvalidMaskValidation) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  CardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  ServerRequest request;
  request.estimator = "Hash";
  request.sql = kSingleSql;
  request.subplan_mask = 1;  // the only table
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok()) << response->error;
  EXPECT_EQ(response->cards.size(), 1u);
  EXPECT_TRUE(response->cards.count(1));

  request.subplan_mask = 2;  // selects an absent table
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, UnknownEstimatorAndBadSqlAnswerStructuredErrors) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  CardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  ServerRequest request;
  request.estimator = "NoSuchModel";
  request.sql = kSingleSql;
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kNotFound);

  request.estimator = "Hash";
  request.sql = "SELECT nonsense";
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok());
  // The connection survives a structured error.
  request.sql = kSingleSql;
  response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok()) << response->error;
}

TEST_F(ServerTest, AdmissionRejectCarriesQueueDepthAndRetryHint) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_depth = 1;
  EstimationService service(options);
  auto gate = std::make_unique<GateEstimator>();
  GateEstimator* gate_ptr = gate.get();
  service.RegisterEstimator(std::move(gate));
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  auto call = [&server](double deadline_ms = 0.0) {
    CardClient client;
    Status connected = client.Connect("127.0.0.1", server.port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    ServerRequest request;
    request.estimator = "Gate";
    request.sql = kSingleSql;
    request.deadline_ms = deadline_ms;
    return client.Call(request);
  };

  // First request pins the only worker inside the gate; the second fills
  // the depth-1 queue.
  std::thread first([&] {
    auto response = call();
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok()) << response->error;
  });
  gate_ptr->WaitUntilEntered();
  std::thread second([&] {
    auto response = call();
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok()) << response->error;
  });
  while (service.queue_size() < 1) std::this_thread::yield();

  // Third has nowhere to go: immediate structured rejection, not a hang.
  auto rejected = call();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->code, StatusCode::kResourceExhausted);
  EXPECT_GE(rejected->queue_depth, 1u);
  EXPECT_GT(rejected->retry_after_ms, 0.0);
  EXPECT_NE(rejected->error.find("queue full"), std::string::npos);

  gate_ptr->Release();
  first.join();
  second.join();
  server.Stop();
}

TEST_F(ServerTest, QueuedRequestPastDeadlineAnswersDeadlineExceeded) {
  ServiceOptions options;
  options.num_threads = 1;
  EstimationService service(options);
  auto gate = std::make_unique<GateEstimator>();
  GateEstimator* gate_ptr = gate.get();
  service.RegisterEstimator(std::move(gate));
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  std::thread pinned([&] {
    CardClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ServerRequest request;
    request.estimator = "Gate";
    request.sql = kSingleSql;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok());
  });
  gate_ptr->WaitUntilEntered();

  // This request sits in the queue behind the pinned worker; its 1ms
  // deadline expires there long before the gate opens.
  std::thread deadlined([&] {
    CardClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ServerRequest request;
    request.estimator = "Gate";
    request.sql = kSingleSql;
    request.deadline_ms = 1.0;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response->cards.empty());
  });
  while (service.queue_size() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  gate_ptr->Release();
  pinned.join();
  deadlined.join();
  server.Stop();
}

TEST_F(ServerTest, MalformedFrameAnsweredInBandConnectionSurvives) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  RawSend(fd, EncodeFrame("this is not json"));
  std::string payload;
  ASSERT_TRUE(RawReadFrame(fd, &payload));
  auto error = DecodeResponse(payload);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->id, 0u);
  EXPECT_FALSE(error->ok());

  // Frame sync is intact: a valid request on the same connection works.
  ServerRequest request;
  request.id = 3;
  request.estimator = "Hash";
  request.sql = kSingleSql;
  RawSend(fd, EncodeFrame(EncodeRequest(request)));
  ASSERT_TRUE(RawReadFrame(fd, &payload));
  auto response = DecodeResponse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->id, 3u);
  EXPECT_TRUE(response->ok()) << response->error;
  close(fd);
  server.Stop();
  EXPECT_EQ(server.metrics().counters().malformed_frames.load(), 1u);
}

TEST_F(ServerTest, OversizedFrameClosesConnection) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  const uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4] = {static_cast<char>(huge >> 24),
                    static_cast<char>(huge >> 16),
                    static_cast<char>(huge >> 8), static_cast<char>(huge)};
  RawSend(fd, std::string(prefix, sizeof(prefix)));
  std::string payload;
  EXPECT_FALSE(RawReadFrame(fd, &payload));  // EOF: server closed it
  close(fd);
  server.Stop();
}

TEST_F(ServerTest, MetricsEndpointServesTextAndJson) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  // Serve one request so the counters and one histogram are non-zero.
  CardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ServerRequest request;
  request.estimator = "Hash";
  request.sql = kSingleSql;
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok());

  auto text = FetchServerMetrics("127.0.0.1", server.port());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("cardserved_requests_total 1"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("cardserved_completed_total 1"), std::string::npos);
  EXPECT_NE(text->find("cardserved_latency_seconds{estimator=\"Hash\","
                       "quantile=\"0.99\"}"),
            std::string::npos)
      << *text;

  auto json = FetchServerMetrics("127.0.0.1", server.port(),
                                 "/metrics.json");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"requests\":1"), std::string::npos) << *json;
  EXPECT_NE(json->find("\"Hash\""), std::string::npos);

  auto missing = FetchServerMetrics("127.0.0.1", server.port(), "/nope");
  EXPECT_FALSE(missing.ok());
  server.Stop();
}

TEST_F(ServerTest, GracefulShutdownDrainsInFlightAndRejectsNewWork) {
  ServiceOptions options;
  options.num_threads = 1;
  EstimationService service(options);
  auto gate = std::make_unique<GateEstimator>();
  GateEstimator* gate_ptr = gate.get();
  service.RegisterEstimator(std::move(gate));
  ServerOptions server_options;
  server_options.drain_timeout_seconds = 30.0;
  CardServer server(service, *db_, server_options);
  ASSERT_TRUE(server.Start().ok());

  // A second connection established before shutdown, used to probe drain
  // behavior afterwards.
  CardClient late_client;
  ASSERT_TRUE(late_client.Connect("127.0.0.1", server.port()).ok());

  std::atomic<bool> drained_response_ok{false};
  std::thread in_flight([&] {
    CardClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ServerRequest request;
    request.estimator = "Gate";
    request.sql = kSingleSql;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    drained_response_ok.store(response->ok());
  });
  gate_ptr->WaitUntilEntered();

  server.NotifyShutdown();  // what the SIGTERM handler calls

  // New work on the pre-existing connection is rejected while draining.
  ServerRequest request;
  request.estimator = "Gate";
  request.sql = kSingleSql;
  auto rejected = late_client.Call(request);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->code, StatusCode::kUnavailable);

  // The in-flight request is not dropped: release the gate and the drain
  // delivers its response before the loop exits.
  gate_ptr->Release();
  in_flight.join();
  EXPECT_TRUE(drained_response_ok.load());

  server.Wait();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.in_flight(), 0u);  // zero leaked requests
}

TEST_F(ServerTest, SocketBackendDrivesLoadThroughTheServer) {
  ServiceOptions options;
  options.num_threads = 2;
  EstimationService service(options);
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  CardServer server(service, *db_);
  ASSERT_TRUE(server.Start().ok());

  SocketEstimateBackend backend("127.0.0.1", server.port(),
                                {kJoinSql, kSingleSql});
  LoadDriver driver(backend);
  LoadOptions load;
  load.estimator = "Hash";
  load.concurrency = 4;
  load.replays = 5;
  auto report = driver.Run(load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 2u * 5u);
  EXPECT_GT(report->QueriesPerSecond(), 0.0);
  // Replays past the first are cache hits, observed through the wire
  // protocol's per-response counters.
  EXPECT_GT(report->cache.hits, 0u);
  server.Stop();
}

// ---------------------------------------------------------------------------
// RequestExecutor unit tests (no sockets).
// ---------------------------------------------------------------------------

TEST_F(ServerTest, RequestExecutorGraphCacheIsBoundedLru) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  RequestExecutor executor(service, *db_, /*graph_cache_capacity=*/2);

  auto g1 = executor.Compile(kJoinSql);
  ASSERT_TRUE(g1.ok());
  auto g1_again = executor.Compile(kJoinSql);
  ASSERT_TRUE(g1_again.ok());
  EXPECT_EQ(g1->get(), g1_again->get());  // memoized, not recompiled
  ASSERT_TRUE(executor.Compile(kSingleSql).ok());
  EXPECT_EQ(executor.graph_cache_size(), 2u);

  ASSERT_TRUE(
      executor
          .Compile("SELECT COUNT(*) FROM badges WHERE badges.UserId >= 1;")
          .ok());
  EXPECT_EQ(executor.graph_cache_size(), 2u);  // LRU evicted one
  // The evicted graph stays valid through the shared_ptr.
  EXPECT_GT((*g1)->num_tables(), 0u);
}

TEST_F(ServerTest, RequestExecutorAnswersParseErrorsSynchronously) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  RequestExecutor executor(service, *db_);

  ServerRequest request;
  request.estimator = "Hash";
  request.sql = "SELECT garbage";
  const ServerResponse response = executor.ExecuteSync(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cardbench
