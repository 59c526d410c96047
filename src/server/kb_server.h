#ifndef ORDLOG_SERVER_KB_SERVER_H_
#define ORDLOG_SERVER_KB_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "base/status.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "server/admission.h"
#include "server/kb_registry.h"

namespace ordlog {

struct KbServerOptions {
  // Loopback port; 0 picks an ephemeral port (read back via port()).
  int port = 0;
  // HTTP worker threads. Queries run synchronously on these, so this is
  // also the server's query parallelism.
  size_t num_workers = 8;
  // Tenant registry configuration (data_dir, quotas, engine shape). The
  // registry's `metrics` field is overwritten to point at this server's
  // registry.
  KbRegistryOptions registry;
  // Admission quotas.
  AdmissionOptions admission;
  // Request-span tracing: when enabled, each admitted tenant request gets
  // a server-owned SpanContext (sampled probabilistically, always kept
  // when the tenant engine marks the query slow) covering admission, WAL
  // append, apply, and the engine's own ground/eval/search spans; traces
  // commit to the server's /tracez store.
  SpanOptions spans;
};

// The multi-tenant KB service: a KbRegistry of isolated
// KnowledgeBase+QueryEngine pairs behind a JSON-over-HTTP wire protocol
// (docs/SERVER.md), with per-tenant WAL durability and admission control.
//
// Endpoints (all JSON):
//
//   POST /v1/admin/create   {"tenant": <name>}
//   POST /v1/admin/drop     {"tenant": <name>}
//   GET  /v1/admin/list
//   POST /v1/<tenant>/query    {"module","literal","mode"?,"deadline_ms"?,
//                               "explain"?}
//   POST /v1/<tenant>/mutate   {"ops":[{"op":"add_fact"|"retract_fact"|
//                               "add_rule","module","text"}, ...]}
//   POST /v1/<tenant>/explain  {"module","literal"}
//   GET  /v1/<tenant>/facts?module=<m>
//   GET  /v1/<tenant>/status
//   GET  /v1/<tenant>/metricsz    (the tenant engine's registry)
//   GET  /v1/<tenant>/slowz       (the tenant engine's slow-query log)
//   GET  /v1/<tenant>/usagez      (cumulative ResourceUsage totals)
//
// plus the statsz surface (/metricsz, /statsz, /healthz, /readyz, /slowz,
// /tracez) over the server-wide registry. /readyz returns 503 until
// startup WAL recovery finishes, so load balancers do not route to a
// server that is still replaying tenants. Status codes map the library's
// error space: 400 invalid argument, 404 not found, 409 already-exists/
// failed-precondition, 429 tenant quota, 503 global quota, 504 deadline.
class KbServer {
 public:
  explicit KbServer(KbServerOptions options);
  ~KbServer();

  KbServer(const KbServer&) = delete;
  KbServer& operator=(const KbServer&) = delete;

  // Binds and serves first, then recovers every tenant found under the
  // data dir. /healthz answers as soon as the listener is up; /readyz
  // reports 503 until recovery completes (and again after Stop).
  Status Start();

  // Stops the HTTP server and drains/destroys every tenant engine
  // deterministically. Idempotent.
  void Stop();

  int port() const { return http_ == nullptr ? 0 : http_->port(); }
  KbRegistry& registry() { return registry_; }
  MetricsRegistry& metrics() { return metrics_; }

  // Routes one request exactly as the live server would (tests).
  HttpResponse Handle(const HttpRequest& request);

 private:
  HttpResponse HandleV1(const HttpRequest& request);
  HttpResponse HandleAdmin(std::string_view verb, const HttpRequest& request);
  HttpResponse HandleTenant(std::string_view tenant, std::string_view verb,
                            const HttpRequest& request);
  HttpResponse HandleQuery(Tenant& tenant, const HttpRequest& request,
                           bool force_explain, SpanContext* span,
                           UsageDelta* usage);
  HttpResponse HandleMutate(Tenant& tenant, const HttpRequest& request,
                            SpanContext* span, UsageDelta* usage);
  HttpResponse HandleFacts(Tenant& tenant, const HttpRequest& request);
  HttpResponse HandleStatus(Tenant& tenant);
  void CountResponse(std::string_view tenant, std::string_view endpoint,
                     int code);

  KbServerOptions options_;
  MetricsRegistry metrics_;
  KbRegistry registry_;
  AdmissionController admission_;
  // Request-span roots: head sampling, commits, and the /tracez store
  // (present iff options_.spans.enabled).
  SpanTracer tracer_;
  std::unique_ptr<HttpServer> http_;
  bool started_ = false;
  // /readyz gate: false until startup recovery completes (see Start).
  std::atomic<bool> ready_{false};

  CounterFamily* requests_ = nullptr;   // {tenant, endpoint}
  CounterFamily* responses_ = nullptr;  // {endpoint, code}
  CounterFamily* wal_records_ = nullptr;   // {tenant}
  CounterFamily* wal_bytes_ = nullptr;     // {tenant}
  CounterFamily* snapshots_ = nullptr;     // {tenant}
};

// Maps a library Status to the wire protocol's HTTP status code (200 for
// OK). Exposed for tests.
int HttpCodeForStatus(const Status& status);

}  // namespace ordlog

#endif  // ORDLOG_SERVER_KB_SERVER_H_
