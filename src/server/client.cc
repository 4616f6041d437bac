#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/str_util.h"

namespace cardbench {

namespace {

Result<int> OpenConnection(const std::string& host, uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad server address " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::IOError(StrFormat(
        "connect %s:%u: %s", host.c_str(), port, std::strerror(errno)));
    close(fd);
    return status;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("send: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

CardClient::~CardClient() { Close(); }

CardClient::CardClient(CardClient&& other) noexcept
    : fd_(other.fd_),
      reader_(std::move(other.reader_)),
      next_id_(other.next_id_) {
  other.fd_ = -1;
}

CardClient& CardClient::operator=(CardClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    reader_ = std::move(other.reader_);
    next_id_ = other.next_id_;
    other.fd_ = -1;
  }
  return *this;
}

Status CardClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::AlreadyExists("client already connected");
  CARDBENCH_ASSIGN_OR_RETURN(fd_, OpenConnection(host, port));
  return Status::OK();
}

void CardClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader();
}

Result<ServerResponse> CardClient::Call(const ServerRequest& request) {
  if (fd_ < 0) return Status::IOError("client is not connected");
  ServerRequest sent = request;
  if (sent.id == 0) sent.id = next_id_++;

  Status io = SendAll(fd_, EncodeFrame(EncodeRequest(sent)));
  if (!io.ok()) {
    Close();
    return io;
  }

  std::string payload;
  for (;;) {
    const Status next = reader_.Next(&payload);
    if (next.ok()) break;
    if (next.code() != StatusCode::kNotFound) {
      Close();
      return Status::IOError("malformed response frame from server");
    }
    char buf[16 << 10];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      Close();
      return Status::IOError("server closed the connection mid-call");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::IOError(StrFormat("recv: %s", std::strerror(errno)));
      Close();
      return status;
    }
    reader_.Feed(buf, static_cast<size_t>(n));
  }

  CARDBENCH_ASSIGN_OR_RETURN(ServerResponse response,
                             DecodeResponse(payload));
  // Frame-decode errors answered in-band carry id 0; anything else must
  // echo the id of the one request outstanding on this connection.
  if (response.id != 0 && response.id != sent.id) {
    Close();
    return Status::IOError(
        StrFormat("response id %llu does not match request id %llu",
                  static_cast<unsigned long long>(response.id),
                  static_cast<unsigned long long>(sent.id)));
  }
  return response;
}

Result<std::string> FetchServerMetrics(const std::string& host, uint16_t port,
                                       const std::string& path) {
  CARDBENCH_ASSIGN_OR_RETURN(const int fd, OpenConnection(host, port));
  const std::string request =
      StrFormat("GET %s HTTP/1.0\r\nHost: %s\r\nConnection: close\r\n\r\n",
                path.c_str(), host.c_str());
  Status io = SendAll(fd, request);
  if (!io.ok()) {
    close(fd);
    return io;
  }
  std::string raw;
  char buf[16 << 10];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::IOError(StrFormat("recv: %s", std::strerror(errno)));
      close(fd);
      return status;
    }
    raw.append(buf, static_cast<size_t>(n));
  }
  close(fd);

  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IOError("truncated HTTP response from metrics endpoint");
  }
  const size_t line_end = raw.find("\r\n");
  const std::string status_line = raw.substr(0, line_end);
  if (status_line.find(" 200 ") == std::string::npos) {
    return Status::IOError("metrics endpoint answered: " + status_line);
  }
  return raw.substr(header_end + 4);
}

SocketEstimateBackend::SocketEstimateBackend(std::string host, uint16_t port,
                                             std::vector<std::string> sqls)
    : host_(std::move(host)), port_(port), sqls_(std::move(sqls)) {}

Result<std::unique_ptr<CardClient>> SocketEstimateBackend::AcquireClient() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      std::unique_ptr<CardClient> client = std::move(pool_.back());
      pool_.pop_back();
      return client;
    }
  }
  auto client = std::make_unique<CardClient>();
  CARDBENCH_RETURN_IF_ERROR(client->Connect(host_, port_));
  return client;
}

void SocketEstimateBackend::ReleaseClient(
    std::unique_ptr<CardClient> client) {
  if (client == nullptr || !client->connected()) return;  // broken: drop
  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_.push_back(std::move(client));
}

Status SocketEstimateBackend::Validate(const std::string& estimator) {
  if (estimator.empty()) {
    return Status::InvalidArgument("estimator name is empty");
  }
  // Reachability probe; an unknown estimator surfaces on the first call as
  // a structured NotFound response.
  CARDBENCH_ASSIGN_OR_RETURN(std::unique_ptr<CardClient> client,
                             AcquireClient());
  ReleaseClient(std::move(client));
  return Status::OK();
}

BackendCallResult SocketEstimateBackend::EstimateQuery(
    const std::string& estimator, size_t query_index) {
  BackendCallResult result;
  if (query_index >= sqls_.size()) {
    result.status = Status::OutOfRange("query index out of range");
    return result;
  }
  auto acquired = AcquireClient();
  if (!acquired.ok()) {
    result.status = acquired.status();
    return result;
  }
  std::unique_ptr<CardClient> client = std::move(*acquired);

  ServerRequest request;
  request.estimator = estimator;
  request.sql = sqls_[query_index];
  auto response = client->Call(request);
  ReleaseClient(std::move(client));
  if (!response.ok()) {
    result.status = response.status();
    return result;
  }
  result.status = response->ToStatus();
  result.estimates = response->cards.size();
  result.cache_hits = response->cache_hits;
  result.cache_misses = response->cache_misses;
  cache_hits_.fetch_add(response->cache_hits, std::memory_order_relaxed);
  cache_misses_.fetch_add(response->cache_misses,
                          std::memory_order_relaxed);
  return result;
}

EstimateCacheStats SocketEstimateBackend::cache_stats() const {
  EstimateCacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cardbench
