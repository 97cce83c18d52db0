#include "obs/exporter.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/window.hpp"
#include "util/knob.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"

namespace drx::obs {

namespace {

// ---- scrape providers ------------------------------------------------------

struct ProviderEntry {
  int handle = 0;
  ScrapeProviderFn fn;
};

struct ProviderState {
  util::Mutex mu;
  std::vector<ProviderEntry> providers DRX_GUARDED_BY(mu);
  int next_handle DRX_GUARDED_BY(mu) = 1;
};

ProviderState& providers() {
  static ProviderState* s = new ProviderState;  // leaked: atexit-safe
  return *s;
}

/// Runs every provider under the provider mutex — this is what lets
/// unregister_scrape_provider() guarantee "no callback in flight" by
/// simply taking the same mutex.
std::vector<ScrapeGauge> collect_gauges() {
  std::vector<ScrapeGauge> gauges;
  ProviderState& ps = providers();
  util::MutexLock lock(ps.mu);
  for (const ProviderEntry& p : ps.providers) {
    std::vector<ScrapeGauge> mine;
    p.fn(mine);
    if (mine.size() > kMaxProviderGauges) {
      registry()
          .counter(counter_id("obs.exporter.gauges_dropped"))
          .add(mine.size() - kMaxProviderGauges);
      mine.resize(kMaxProviderGauges);
    }
    for (ScrapeGauge& g : mine) gauges.push_back(std::move(g));
  }
  return gauges;
}

// ---- Prometheus text exposition --------------------------------------------

/// drx dotted name -> Prometheus name: non-[a-zA-Z0-9_] become '_' and
/// everything gets the drx_ prefix.
std::string sanitize(std::string_view name) {
  std::string out = "drx_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string escape_label(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string render_labels(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Splits bounded-cardinality structure labels out of a counter name
/// (obs::parse_labelled): core.cache.shard.<i>.accesses ->
/// (core.cache.shard.accesses, shard="i"), and likewise pfs.server.<i>.*
/// and core.zone.rank.<r>.*. Everything else passes through unlabeled.
struct LabeledName {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
};

LabeledName split_labels(const std::string& name) {
  const std::optional<LabelledName> l = parse_labelled(name);
  if (!l) return LabeledName{name, {}};
  LabeledName out;
  out.name = std::string(l->family) + "." + std::string(l->metric);
  out.labels.emplace_back(std::string(l->label), std::to_string(l->index));
  return out;
}

std::string format_double(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v < 9.0e15 && v > -9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// Samples accumulated per metric family. Label-split counters
/// (split_labels) and per-session gauges arrive interleaved
/// across label sets; the exposition format requires one TYPE line per
/// family with all its samples contiguous, so rendering buffers
/// family -> body and emits grouped.
void append_family_sample(std::map<std::string, std::string>& families,
                          const std::string& prom_name,
                          const std::string& labels, double value) {
  std::string& body = families[prom_name];
  body += prom_name;
  body += labels;
  body += ' ';
  body += format_double(value);
  body += '\n';
}

void emit_families(std::string& out,
                   const std::map<std::string, std::string>& families,
                   std::string_view type) {
  for (const auto& [name, body] : families) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    out += body;
  }
}

/// Stable window label from the configured horizon ("60s"), NOT from the
/// measured span — a per-scrape value would churn one time series per
/// scrape.
std::string window_label_value(const WindowConfig& cfg) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llus",
                static_cast<unsigned long long>(cfg.horizon_ms() / 1000));
  return buf;
}

// ---- HTTP plumbing ---------------------------------------------------------

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

HttpResponse handle_request(std::string_view request_line) {
  // "GET <path> HTTP/1.x" — anything else is malformed.
  HttpResponse resp;
  const std::size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos) {
    resp.status = 400;
    resp.body = "malformed request line\n";
    return resp;
  }
  const std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      request_line.substr(sp2 + 1).substr(0, 5) != "HTTP/") {
    resp.status = 400;
    resp.body = "malformed request line\n";
    return resp;
  }
  const std::string_view method = request_line.substr(0, sp1);
  std::string_view path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);
  if (method != "GET") {
    resp.status = 405;
    resp.body = "only GET is supported\n";
    return resp;
  }
  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = render_prometheus();
  } else if (path == "/json") {
    resp.content_type = "application/json";
    resp.body = render_live_json();
  } else if (path == "/window.json") {
    resp.content_type = "application/json";
    JsonWriter w;
    window_to_json(w);
    resp.body = w.str() + "\n";
  } else {
    resp.status = 404;
    resp.body = "unknown path (try /metrics, /json, /window.json)\n";
  }
  return resp;
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a scraper hanging up mid-response must not SIGPIPE
    // the serving process.
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void serve_connection(int fd) {
  // One short-lived request per connection; a scrape is a single GET.
  struct timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[4096];
  std::size_t got = 0;
  while (got < sizeof(buf) - 1) {
    const ssize_t n = ::recv(fd, buf + got, sizeof(buf) - 1 - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
    buf[got] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  if (got == 0) return;
  buf[got] = '\0';
  std::string_view text(buf, got);
  const std::size_t eol = text.find_first_of("\r\n");
  const std::string_view request_line =
      eol == std::string_view::npos ? text : text.substr(0, eol);
  const HttpResponse resp = handle_request(request_line);
  registry().counter(counter_id("obs.exporter.scrapes")).add(1);
  if (resp.status != 200) {
    registry().counter(counter_id("obs.exporter.bad_requests")).add(1);
  }
  char header[256];
  const int header_len = std::snprintf(
      header, sizeof(header),
      "HTTP/1.1 %d %.*s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      resp.status, static_cast<int>(status_text(resp.status).size()),
      status_text(resp.status).data(), resp.content_type.c_str(),
      resp.body.size());
  if (!send_all(fd, header, static_cast<std::size_t>(header_len))) return;
  send_all(fd, resp.body.data(), resp.body.size());
}

// ---- listener thread -------------------------------------------------------

struct ExporterState {
  util::Mutex mu;
  std::thread thread DRX_GUARDED_BY(mu);
  int listen_fd DRX_GUARDED_BY(mu) = -1;
  std::atomic<bool> stop{false};
  std::atomic<std::uint16_t> port{0};
};

ExporterState& exporter() {
  static ExporterState* s = new ExporterState;  // leaked: atexit-safe
  return *s;
}

void listener_loop(int listen_fd) {
  ExporterState& s = exporter();
  while (!s.stop.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 250);
    // Idle ticks keep epoch boundaries sharp even between scrapes, so
    // the first scrape after a quiet stretch still sees a full ring.
    window_tick();
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
    ::close(fd);
  }
}

void stop_exporter_at_exit() { stop_exporter(); }

/// DRX_METRICS_PORT autostart. Static-init ordering is safe for the same
/// reason the window ticker's is: everything touched is function-local
/// leaked state.
struct EnvInit {
  EnvInit() {
    const char* env = std::getenv("DRX_METRICS_PORT");
    if (env == nullptr || env[0] == '\0') return;
    const auto port = util::parse_knob(env, 0, 65535);
    if (!port) {
      DRX_LOG(kWarn) << "DRX_METRICS_PORT: bad port '" << env
                     << "', exporter disabled";
      return;
    }
    Result<std::uint16_t> bound =
        start_exporter(static_cast<std::uint16_t>(*port));
    if (!bound.is_ok()) {
      // Port in use (or any bind failure) leaves telemetry off but the
      // process alive — the satellite-mandated fallback.
      DRX_LOG(kWarn) << "DRX_METRICS_PORT: exporter disabled: "
                     << bound.status().to_string();
      return;
    }
    std::atexit(stop_exporter_at_exit);
  }
};

EnvInit g_env_init;

}  // namespace

int register_scrape_provider(ScrapeProviderFn fn) {
  ProviderState& ps = providers();
  util::MutexLock lock(ps.mu);
  const int handle = ps.next_handle++;
  ps.providers.push_back(ProviderEntry{handle, std::move(fn)});
  return handle;
}

void unregister_scrape_provider(int handle) {
  ProviderState& ps = providers();
  util::MutexLock lock(ps.mu);
  ps.providers.erase(
      std::remove_if(ps.providers.begin(), ps.providers.end(),
                     [&](const ProviderEntry& p) {
                       return p.handle == handle;
                     }),
      ps.providers.end());
}

std::string render_prometheus() {
  window_tick();
  const MetricsSnapshot cumulative = live_snapshot();
  const WindowConfig cfg = window_config();
  const WindowView view = window_view();
  const std::string window_value = window_label_value(cfg);
  std::string out;

  // Counters stay cumulative — that is the Prometheus contract for the
  // counter type; scrapers window them with rate(). Label-split families
  // (per-shard, per-server, per-rank counters) interleave in the sorted
  // snapshot, so samples are grouped per family before emission.
  std::map<std::string, std::string> counter_families;
  for (const CounterSample& c : cumulative.counters) {
    LabeledName ln = split_labels(c.name);
    append_family_sample(counter_families, sanitize(ln.name) + "_total",
                         render_labels(ln.labels),
                         static_cast<double>(c.value));
  }
  emit_families(out, counter_families, "counter");

  // Histograms are emitted from the sliding window: p95/p99 *now* is the
  // whole point of the live plane. The window label carries the horizon.
  for (const HistogramSample& h : view.delta.histograms) {
    const std::string prom = sanitize(h.name);
    out += "# TYPE ";
    out += prom;
    out += " histogram\n";
    std::vector<std::pair<std::string, std::string>> labels{
        {"window", window_value}};
    std::size_t last = kHistogramBuckets;
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < last; ++b) {
      cum += h.buckets[b];
      labels.emplace_back("le",
                          format_double(static_cast<double>(
                              histogram_bucket_upper_bound(b))));
      out += prom;
      out += "_bucket";
      out += render_labels(labels);
      out += ' ';
      out += format_double(static_cast<double>(cum));
      out += '\n';
      labels.pop_back();
    }
    labels.emplace_back("le", "+Inf");
    out += prom;
    out += "_bucket";
    out += render_labels(labels);
    out += ' ';
    out += format_double(static_cast<double>(h.count));
    out += '\n';
    labels.pop_back();
    out += prom;
    out += "_sum";
    out += render_labels(labels);
    out += ' ';
    out += format_double(static_cast<double>(h.sum));
    out += '\n';
    out += prom;
    out += "_count";
    out += render_labels(labels);
    out += ' ';
    out += format_double(static_cast<double>(h.count));
    out += '\n';
  }

  // Gauges: per-session families arrive grouped by session, not by
  // family — same grouping treatment as counters.
  std::map<std::string, std::string> gauge_families;
  for (const ScrapeGauge& g : collect_gauges()) {
    append_family_sample(gauge_families, sanitize(g.name),
                         render_labels(g.labels), g.value);
  }
  emit_families(out, gauge_families, "gauge");
  return out;
}

std::string render_live_json() {
  JsonWriter w;
  w.begin_object();
  w.key("format").value("drx-live");
  w.key("version").value(std::uint64_t{1});
  w.key("metrics");
  metrics_to_json(live_snapshot(), w);
  w.key("gauges").begin_array();
  for (const ScrapeGauge& g : collect_gauges()) {
    w.begin_object();
    w.key("name").value(g.name);
    w.key("labels").begin_object();
    for (const auto& [k, v] : g.labels) w.key(k).value(v);
    w.end_object();
    w.key("value").value(g.value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

Result<std::uint16_t> start_exporter(std::uint16_t port) {
  ExporterState& s = exporter();
  util::MutexLock lock(s.mu);
  if (s.listen_fd >= 0) {
    return Status(ErrorCode::kFailedPrecondition, "exporter already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(ErrorCode::kIoError,
                  std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // scrape locally only
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    char msg[128];
    std::snprintf(msg, sizeof(msg), "bind 127.0.0.1:%u: %s",
                  static_cast<unsigned>(port), std::strerror(err));
    return Status(ErrorCode::kIoError, msg);
  }
  if (::listen(fd, 16) < 0) {
    const int err = errno;
    ::close(fd);
    return Status(ErrorCode::kIoError,
                  std::string("listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const int err = errno;
    ::close(fd);
    return Status(ErrorCode::kIoError,
                  std::string("getsockname: ") + std::strerror(err));
  }
  const auto actual = static_cast<std::uint16_t>(ntohs(bound.sin_port));
  s.stop.store(false, std::memory_order_release);
  s.listen_fd = fd;
  s.port.store(actual, std::memory_order_release);
  s.thread = std::thread(listener_loop, fd);
  DRX_LOG(kInfo) << "metrics exporter listening on 127.0.0.1:" << actual;
  return actual;
}

void stop_exporter() {
  ExporterState& s = exporter();
  std::thread joinable;
  int fd = -1;
  {
    util::MutexLock lock(s.mu);
    if (s.listen_fd < 0) return;
    s.stop.store(true, std::memory_order_release);
    fd = s.listen_fd;
    s.listen_fd = -1;
    s.port.store(0, std::memory_order_release);
    joinable = std::move(s.thread);
  }
  joinable.join();  // loop notices stop within one poll timeout
  ::close(fd);
}

std::uint16_t exporter_port() noexcept {
  return exporter().port.load(std::memory_order_acquire);
}

Result<std::string> http_get(const std::string& host, std::uint16_t port,
                             const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(ErrorCode::kIoError,
                  std::string("socket: ") + std::strerror(errno));
  }
  struct timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(ErrorCode::kInvalidArgument,
                  "http_get: host must be an IPv4 address literal");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    char msg[160];
    std::snprintf(msg, sizeof(msg), "connect %s:%u: %s", host.c_str(),
                  static_cast<unsigned>(port), std::strerror(err));
    return Status(ErrorCode::kIoError, msg);
  }
  char request[512];
  const int req_len = std::snprintf(
      request, sizeof(request),
      "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n",
      path.c_str(), host.c_str());
  if (!send_all(fd, request, static_cast<std::size_t>(req_len))) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "http_get: short request write");
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status(ErrorCode::kIoError, "http_get: truncated response");
  }
  const std::string_view status_line =
      std::string_view(response).substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string_view::npos) {
    return Status(ErrorCode::kIoError,
                  "http_get: " + std::string(status_line));
  }
  return response.substr(header_end + 4);
}

}  // namespace drx::obs
