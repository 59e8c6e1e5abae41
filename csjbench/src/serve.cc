/// \file
/// The serve-range workload: an in-process serve::Server over a
/// DatasetRegistry, driven by two closed-loop keep-alive clients issuing
/// range queries. Closed loop with clients = workers = 2: each client sends
/// its next request only when the previous trailer has arrived, so the
/// server is never queued behind itself and no wake-up latency of an
/// open-loop generator enters the figures (README.md).

#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "csj.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace csjbench {
namespace {

using namespace csj;

constexpr int kSetupReps = 4;  ///< before and again after the window
constexpr int kClients = 2;
constexpr double kWarmupSeconds = 2.0;
constexpr uint64_t kCheckStride = 64;     ///< every 64th request is checked
constexpr size_t kChecksPerClient = 128;
constexpr int kIoTimeoutMs = 60000;
/// Latency statistics are taken per client per two-second window (about
/// 2,400 requests, 24 beyond the p99) and reported as medians over the
/// windows. A window's samples live in buffers reused across windows, so
/// the measurement's memory stays flat while peak_rss_mb is taken.
constexpr int64_t kStatsWindowNs = 2000000000;

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Restricts the calling thread (and the threads it creates afterwards) to
/// CPUs first..last.
void PinTo(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

/// Clients and server get CPUs of their own when the host has enough: each
/// client thread one CPU, the server's threads the rest. A spinning client
/// never gives its CPU up, so a server worker that the scheduler wakes on
/// the client's CPU (its usual choice for a socket wake-up) would wait
/// behind the client, and which of the two placements a run settles into
/// would set its figures.
bool PinClientsApart() {
  return std::thread::hardware_concurrency() >= 2 * kClients;
}

bool Ping(const std::string& socket_path) {
  const int fd = ConnectUnix(socket_path);
  if (fd < 0) return false;
  serve::LineReader reader(fd, kIoTimeoutMs);
  std::string line;
  const bool ok = serve::WriteAll(fd, "{\"op\":\"ping\"}\n").ok() &&
                  reader.ReadLine(&line).ok() &&
                  line.find("\"ok\":true") != std::string::npos;
  ::close(fd);
  return ok;
}

/// Runs `step` — a read through a serve::LineReader whose poll timeout is
/// 0, so it fails with kDeadlineExceeded while nothing has arrived — until it
/// completes, yielding the CPU in between. The reader keeps what it has
/// buffered across attempts. The client spins instead of sleeping: on a busy
/// virtualized host an idle vCPU's wake-up takes as long as a whole request,
/// and a sleeping client would add its own wake-up to every latency.
template <typename Step>
Status Spin(Step&& step) {
  const int64_t deadline = NowNs() + int64_t{kIoTimeoutMs} * 1000000;
  for (;;) {
    Status status = step();
    if (status.code() != StatusCode::kDeadlineExceeded ||
        NowNs() > deadline) {
      return status;
    }
    sched_yield();
  }
}

/// One keep-alive session; reconnects when the server rotates it.
class Session {
 public:
  explicit Session(std::string path) : path_(std::move(path)) {}
  ~Session() { Close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool Open() {
    Close();
    fd_ = ConnectUnix(path_);
    if (fd_ < 0) return false;
    reader_ = std::make_unique<serve::LineReader>(fd_, /*timeout_ms=*/0);
    served_ = 0;
    return true;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd() const { return fd_; }
  serve::LineReader* reader() { return reader_.get(); }
  uint64_t& served() { return served_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::unique_ptr<serve::LineReader> reader_;
  uint64_t served_ = 0;
};

struct Check {
  RangeQuery query;
  std::vector<PointId> ids;
};

/// Everything one client thread measured.
struct ClientResult {
  /// One entry per statistics window.
  std::vector<double> p50_ms, p99_ms, stream_s;
  /// Per-window medians of the traced and untraced requests (traced runs).
  std::vector<double> traced_ms, untraced_ms;
  uint64_t attempted = 0, failed = 0, completed = 0;
  uint64_t ids = 0, payload_bytes = 0;
  std::vector<Check> checks;
  std::string first_error;
  Tracer tracer{false};
};

void ClientLoop(int client, const Config& config, const std::string& socket,
                int max_requests_per_conn, int64_t measure_start,
                int64_t measure_end, ClientResult* out) {
  if (PinClientsApart()) PinTo(client, client);
  Rng rng(config.seed * 1000003 + 101 + static_cast<uint64_t>(client));
  Session session(socket);
  out->tracer = Tracer(config.trace);
  auto fail = [&](const std::string& why) {
    ++out->failed;
    if (out->first_error.empty()) out->first_error = why;
  };
  // The current statistics window's samples.
  std::vector<double> latency_ms, stream_s, traced_ms, untraced_ms;
  Tracer untraced(false);
  int64_t window_end = measure_start + kStatsWindowNs;
  const auto close_window = [&] {
    if (latency_ms.empty()) return;
    out->p50_ms.push_back(Percentile(latency_ms, 0.50));
    out->p99_ms.push_back(Percentile(latency_ms, 0.99));
    out->stream_s.push_back(Median(stream_s));
    if (!traced_ms.empty()) out->traced_ms.push_back(Median(traced_ms));
    if (!untraced_ms.empty()) out->untraced_ms.push_back(Median(untraced_ms));
    for (auto* v : {&latency_ms, &stream_s, &traced_ms, &untraced_ms}) {
      v->clear();
    }
  };
  std::string payload;
  uint64_t index = 0;
  for (;; ++index) {
    const int64_t now = NowNs();
    if (now >= measure_end) break;
    if (now >= window_end) {
      close_window();
      window_end += kStatsWindowNs;
    }
    const bool measured = now >= measure_start;
    // Traced runs alternate traced and untraced requests (A/B for the
    // tracing overhead); only traced ones record spans.
    const bool traced = config.trace && measured && index % 2 == 1;
    const RangeQuery& query =
        config.queries[rng.UniformInt(config.queries.size())];
    const std::string request = StrFormat(
        "{\"op\":\"range\",\"dataset\":\"roadnet\",\"eps\":%.17g,"
        "\"center\":[%.17g,%.17g]}\n",
        query.radius, query.center[0], query.center[1]);

    // The server closes a session after max_requests_per_conn requests:
    // reconnect before the next one (the reconnect is not a failure).
    if (session.fd() < 0 ||
        session.served() >= static_cast<uint64_t>(max_requests_per_conn)) {
      if (!session.Open()) {
        if (measured) {
          ++out->attempted;
          fail("connect failed");
        }
        continue;
      }
    }
    ++session.served();
    if (measured) ++out->attempted;

    // A traced request records its spans while it runs, inside the timed
    // interval; an untraced one runs the same calls on a disabled tracer.
    Tracer& t = traced ? out->tracer : untraced;
    t.set_trace_id(static_cast<uint64_t>(client) << 40 | index);
    serve::LineReader* reader = session.reader();
    std::string header, trailer;
    payload.clear();
    const auto collect = [&](const char* data, size_t size) {
      payload.append(data, size);
      return Status::OK();
    };
    Status status;
    const int64_t t0 = NowNs();
    int64_t t1 = 0;
    {
      ScopedSpan request_span(&t, "serve.request");
      {
        ScopedSpan span(&t, "serve.header");
        status = serve::WriteAll(session.fd(), request);
        if (status.ok()) {
          status = Spin([&] { return reader->ReadLine(&header); });
        }
      }
      t1 = NowNs();
      if (status.ok() && header.find("\"ok\":true") == std::string::npos) {
        status = Status::Internal("error response: " + header);
      }
      if (status.ok()) {
        ScopedSpan span(&t, "serve.stream");
        status = Spin([&] {
          return serve::StreamFramedPayload(reader, OutputFormat::kText,
                                            collect, &trailer);
        });
      }
    }
    const int64_t t2 = NowNs();
    if (!status.ok()) {
      if (measured) fail(status.ToString());
      session.Close();
      continue;
    }

    // Verification (untimed): decode the fixed-width id lines.
    std::vector<PointId> ids;
    ids.reserve(payload.size() / 6);
    PointId id = 0;
    for (const char c : payload) {
      if (c == '\n') {
        ids.push_back(id);
        id = 0;
      } else {
        id = id * 10 + static_cast<PointId>(c - '0');
      }
    }

    auto parsed = json::Parse(trailer);
    const json::Value* code = parsed.ok() ? parsed->Find("code") : nullptr;
    const json::Value* stats = parsed.ok() ? parsed->Find("stats") : nullptr;
    const json::Value* links =
        stats != nullptr ? stats->Find("links") : nullptr;
    if (code == nullptr || !code->is_string() || code->AsString() != "OK") {
      if (measured) fail("trailer: " + trailer);
      continue;
    }
    if (links == nullptr || !links->is_number() ||
        links->AsUint() != ids.size()) {
      if (measured) fail("trailer link count disagrees with the payload");
      continue;
    }
    if (!measured) continue;

    ++out->completed;
    const double ms = static_cast<double>(t2 - t0) * 1e-6;
    latency_ms.push_back(ms);
    stream_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    out->ids += ids.size();
    out->payload_bytes += payload.size();
    if (config.trace) {
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
    if (index % kCheckStride == 0 && out->checks.size() < kChecksPerClient) {
      std::sort(ids.begin(), ids.end());
      out->checks.push_back(Check{query, std::move(ids)});
    }
  }
  close_window();
}

}  // namespace

void RunServe(const Config& config, Report* report) {
  Tracer tracer(config.trace);
  const std::string socket = config.dir + "/csj.sock";
  serve::DatasetSpec spec;
  spec.name = "roadnet";
  spec.path = config.points;
  spec.cache_blocks = std::max<uint64_t>(1, config.image_blocks / 4);
  serve::ServerOptions options;
  options.unix_socket_path = socket;
  options.workers = kClients;
  // The server's threads inherit this thread's CPUs; the clients move to
  // their own ones when they start.
  if (PinClientsApart()) {
    PinTo(kClients, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  }

  // --- Set-up: registry load + server start until a ping is answered,
  // kSetupReps times before the window and kSetupReps times after it, so
  // its samples bracket the run. The server must be destroyed before the
  // registry it reads.
  std::unique_ptr<serve::DatasetRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  const auto set_up = [&]() -> bool {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      server.reset();
      registry.reset();
      const int64_t t0 = NowNs();
      registry = std::make_unique<serve::DatasetRegistry>();
      Status status;
      {
        ScopedSpan span(&tracer, "serve.registry_load");
        status = registry->Load(spec);
      }
      if (status.ok()) {
        server = std::make_unique<serve::Server>(registry.get(), options);
        status = server->Start();
      }
      if (status.ok() && !Ping(socket)) {
        status = Status::Internal("ping failed");
      }
      if (!status.ok()) {
        report->Fail("serve set-up: " + status.ToString());
        return false;
      }
      setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    return true;
  };
  if (!set_up()) return;

  // --- Measuring window: warm-up, then `seconds` of closed-loop requests.
  const int64_t start = NowNs();
  const int64_t measure_start =
      start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t measure_end =
      measure_start + static_cast<int64_t>(config.seconds * 1e9);
  // Counters bracket warm-up and window alike; per-request figures divide
  // by the requests served inside the same bracket.
  std::shared_ptr<const serve::Dataset> dataset = registry->Find(spec.name);
  const PagedIoStats io_before = dataset->tree.io_stats();
  const metrics::MetricsSnapshot before = metrics::Snapshot();
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(ClientLoop, c, std::cref(config), socket,
                         options.max_requests_per_conn, measure_start,
                         measure_end, &results[static_cast<size_t>(c)]);
  }
  for (std::thread& t : clients) t.join();
  const serve::ServerCounters server_counters = server->counters();
  const metrics::MetricsSnapshot after = metrics::Snapshot();
  const PagedIoStats io_after = dataset->tree.io_stats();
  dataset.reset();
  if (!set_up()) return;
  server.reset();
  report->Set("setup_s", Median(setup_s));
  report->Set("peak_rss_mb", PeakRssMb());

  ClientResult all;
  for (ClientResult& r : results) {
    const auto append = [](std::vector<double>* to,
                           const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.p50_ms, r.p50_ms);
    append(&all.p99_ms, r.p99_ms);
    append(&all.stream_s, r.stream_s);
    append(&all.traced_ms, r.traced_ms);
    append(&all.untraced_ms, r.untraced_ms);
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.completed += r.completed;
    all.ids += r.ids;
    all.payload_bytes += r.payload_bytes;
    tracer.Merge(r.tracer);
    if (!r.first_error.empty()) {
      std::fprintf(stderr, "csjbench: client error: %s\n",
                   r.first_error.c_str());
    }
  }
  report->Attempt(all.attempted);
  if (all.failed > 0) {
    report->Fail(StrFormat("%llu range requests failed",
                           static_cast<unsigned long long>(all.failed)),
                 all.failed);
  }
  if (all.completed == 0) {
    report->Fail("no range request completed");
    return;
  }
  report->Set("join_s", Median(all.stream_s));
  report->Set("bytes_per_link", static_cast<double>(all.payload_bytes) /
                                    static_cast<double>(all.ids));
  report->Set("range_p50_ms", Median(all.p50_ms));
  // The tail is burst-sensitive: a median over windows of the window p99s.
  report->Set("range_p99_ms", Median(all.p99_ms));
  report->Set("range_req_per_s",
              static_cast<double>(all.completed) / config.seconds);

  // --- Verification: sampled responses against brute force (the server
  // keeps a point iff Distance(center, p) <= eps).
  auto points = LoadPoints<2>(config.points);
  if (!points.ok()) {
    report->Fail("LoadPoints: " + points.status().ToString());
    return;
  }
  for (const ClientResult& r : results) {
    for (const Check& check : r.checks) {
      std::vector<PointId> expected;
      for (size_t i = 0; i < points->size(); ++i) {
        if (Distance(check.query.center, (*points)[i]) <=
            check.query.radius) {
          expected.push_back(static_cast<PointId>(i));
        }
      }
      if (expected != check.ids) {
        report->Fail("range response disagrees with the oracle");
      }
    }
  }

  if (!config.trace) return;

  // --- Per-layer report.
  const auto counter_delta = [&](const std::string& name) {
    uint64_t a = 0, b = 0;
    for (const auto& [key, value] : before.counters) {
      if (key == name) a = value;
    }
    for (const auto& [key, value] : after.counters) {
      if (key == name) b = value;
    }
    return static_cast<double>(b - a);
  };
  const double requests = counter_delta("serve.requests");
  const double pool_requests =
      static_cast<double>(io_after.block_requests - io_before.block_requests);
  const double pool_misses =
      static_cast<double>(io_after.disk_reads - io_before.disk_reads);
  const double appends = counter_delta("output_file.appends");
  const double append_bytes = counter_delta("output_file.bytes");
  report->Set("storage.image_blocks", static_cast<double>(config.image_blocks));
  report->Set("storage.pool_blocks", static_cast<double>(spec.cache_blocks));
  report->Set("storage.pool_requests", pool_requests / requests);
  report->Set("storage.pool_misses", pool_misses / requests);
  report->Set("storage.pool_hit_ratio",
              pool_requests == 0 ? 0.0 : 1.0 - pool_misses / pool_requests);
  report->Set("storage.output_appends", appends / requests);
  report->Set("storage.output_bytes", append_bytes / requests);
  report->Set("storage.bytes_per_append",
              appends == 0 ? 0.0 : append_bytes / appends);
  {
    const int64_t s0 = NowNs();
    const plan::DatasetSketch sketch = plan::BuildSketch(*points);
    report->Set("plan.sketch_s", static_cast<double>(NowNs() - s0) * 1e-9);
    (void)sketch;
  }
  report->Set("serve.registry_load_s",
              Median(tracer.Durations("serve.registry_load")));
  std::vector<double> header_ms, stream_ms;
  for (const double s : tracer.Durations("serve.header")) {
    header_ms.push_back(s * 1e3);
  }
  for (const double s : tracer.Durations("serve.stream")) {
    stream_ms.push_back(s * 1e3);
  }
  report->Set("serve.header_p50_ms", Percentile(header_ms, 0.50));
  report->Set("serve.stream_p50_ms", Percentile(stream_ms, 0.50));
  report->Set("serve.stream_p99_ms", Percentile(stream_ms, 0.99));
  report->Set("serve.ids_per_request", static_cast<double>(all.ids) /
                                           static_cast<double>(all.completed));
  report->Set("serve.bytes_per_request",
              static_cast<double>(all.payload_bytes) /
                  static_cast<double>(all.completed));
  report->Set("serve.requests", requests);
  report->Set("serve.sessions", static_cast<double>(server_counters.sessions));
  report->Set("serve.admission_rejects",
              counter_delta("serve.admission_rejects"));
  const double untraced = Median(all.untraced_ms);
  report->Set("trace_overhead_pct",
              untraced == 0.0
                  ? 0.0
                  : 100.0 * (Median(all.traced_ms) - untraced) / untraced);
}

}  // namespace csjbench
