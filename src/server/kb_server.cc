#include "server/kb_server.h"

#include <time.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "core/interpretation.h"
#include "obs/statsz_server.h"
#include "server/json_value.h"
#include "server/wal.h"
#include "trace/json.h"

namespace ordlog {

namespace {

HttpResponse ErrorResponse(const Status& status) {
  std::ostringstream os;
  os << "{\"error\":{\"code\":" << JsonQuote(StatusCodeToString(status.code()))
     << ",\"message\":";
  AppendJsonString(os, status.message());
  os << "}}";
  return HttpResponse::Json(HttpCodeForStatus(status), os.str());
}

HttpResponse RejectedResponse(const AdmissionDecision& decision,
                              std::string_view tenant) {
  std::ostringstream os;
  os << "{\"error\":{\"code\":\"overloaded\",\"reason\":"
     << JsonQuote(decision.reason) << ",\"tenant\":";
  AppendJsonString(os, tenant);
  os << "}}";
  HttpResponse response = HttpResponse::Json(decision.http_code, os.str());
  response.headers.emplace_back("Retry-After",
                                StrCat(decision.retry_after_seconds));
  return response;
}

// Parses the body as a JSON object; empty body = empty object.
StatusOr<JsonValue> ParseBody(const HttpRequest& request) {
  if (StripWhitespace(request.body).empty()) return JsonValue::Parse("{}");
  ORDLOG_ASSIGN_OR_RETURN(JsonValue body, JsonValue::Parse(request.body));
  if (!body.is_object()) {
    return InvalidArgumentError("request body must be a JSON object");
  }
  return body;
}

StatusOr<QueryMode> ParseQueryMode(std::string_view mode) {
  if (mode.empty() || mode == "skeptical") return QueryMode::kSkeptical;
  if (mode == "brave") return QueryMode::kBrave;
  if (mode == "cautious") return QueryMode::kCautious;
  if (mode == "count_models" || mode == "count") {
    return QueryMode::kCountModels;
  }
  return InvalidArgumentError(
      StrCat("unknown mode '", mode,
             "' (want skeptical, brave, cautious, count_models)"));
}

void AppendStringArray(std::ostringstream& os,
                       const std::vector<std::string>& items) {
  os << '[';
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) os << ',';
    AppendJsonString(os, items[i]);
  }
  os << ']';
}

// The serving thread's cumulative CPU time in microseconds (0 if the
// clock is unavailable). Sampled before/after a request, the delta
// excludes time blocked on locks and fsync — wall minus CPU is a direct
// read on how contended a tenant's requests are.
uint64_t ThreadCpuMicros() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

}  // namespace

int HttpCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
      return 499;  // nginx's "client closed request"
    default:
      return 500;
  }
}

KbServer::KbServer(KbServerOptions options)
    : options_(std::move(options)),
      registry_([this] {
        KbRegistryOptions registry_options = options_.registry;
        registry_options.metrics = &metrics_;
        return registry_options;
      }()),
      admission_(options_.admission, &metrics_),
      tracer_(options_.spans, metrics_) {
  requests_ = &metrics_.GetCounterFamily(
      "ordlog_server_requests_total",
      "KB server requests, by tenant ('admin' for the admin surface) and "
      "endpoint.",
      {"tenant", "endpoint"});
  responses_ = &metrics_.GetCounterFamily(
      "ordlog_server_responses_total",
      "KB server responses, by endpoint and HTTP status code.",
      {"endpoint", "code"});
  wal_records_ = &metrics_.GetCounterFamily(
      "ordlog_server_wal_records_total",
      "Mutation records appended to tenant WALs.", {"tenant"});
  wal_bytes_ = &metrics_.GetCounterFamily(
      "ordlog_server_wal_bytes_total",
      "Payload bytes appended to tenant WALs.", {"tenant"});
  snapshots_ = &metrics_.GetCounterFamily(
      "ordlog_server_snapshots_total",
      "Snapshot rotations completed, by tenant.", {"tenant"});

  HttpServerOptions http_options;
  http_options.port = options_.port;
  http_options.num_workers = options_.num_workers;
  http_ = std::make_unique<HttpServer>(http_options);

  StatszServerOptions statsz_options;
  statsz_options.registry = &metrics_;
  statsz_options.traces = tracer_.store();
  statsz_options.ready = [this] {
    return ready_.load(std::memory_order_acquire);
  };
  InstallStatszRoutes(*http_, statsz_options);
  http_->HandlePrefix(
      "/v1/", [this](const HttpRequest& request) { return HandleV1(request); });
}

KbServer::~KbServer() { Stop(); }

Status KbServer::Start() {
  if (started_) return FailedPreconditionError("kb server already started");
  // Bind and serve BEFORE recovery: /healthz answers while tenant WALs
  // replay, and /readyz reports 503 until ready_ flips below — a load
  // balancer never routes to a server still recovering.
  ORDLOG_RETURN_IF_ERROR(http_->Start());
  started_ = true;
  const Status recovered = registry_.RecoverAll();
  if (!recovered.ok()) {
    Stop();
    return recovered;
  }
  ready_.store(true, std::memory_order_release);
  return Status::Ok();
}

void KbServer::Stop() {
  ready_.store(false, std::memory_order_release);
  if (started_) {
    http_->Stop();
    started_ = false;
  }
  registry_.Shutdown();
}

HttpResponse KbServer::Handle(const HttpRequest& request) {
  return http_->Dispatch(request);
}

void KbServer::CountResponse(std::string_view tenant,
                             std::string_view endpoint, int code) {
  requests_->WithLabels(tenant, endpoint).Increment();
  responses_->WithLabels(endpoint, StrCat(code)).Increment();
}

HttpResponse KbServer::HandleV1(const HttpRequest& request) {
  // Path shape: /v1/<tenant-or-admin>/<verb>.
  std::string_view rest = request.path;
  rest.remove_prefix(4);  // "/v1/"
  const size_t slash = rest.find('/');
  if (slash == std::string_view::npos || slash == 0 ||
      slash + 1 >= rest.size() ||
      rest.find('/', slash + 1) != std::string_view::npos) {
    return ErrorResponse(
        NotFoundError(StrCat("no such endpoint: ", request.path)));
  }
  const std::string_view first = rest.substr(0, slash);
  const std::string_view verb = rest.substr(slash + 1);
  HttpResponse response = first == "admin"
                              ? HandleAdmin(verb, request)
                              : HandleTenant(first, verb, request);
  CountResponse(first, verb, response.code);
  return response;
}

HttpResponse KbServer::HandleAdmin(std::string_view verb,
                                   const HttpRequest& request) {
  if (verb == "list") {
    std::ostringstream os;
    os << "{\"tenants\":";
    AppendStringArray(os, registry_.List());
    os << '}';
    return HttpResponse::Json(200, os.str());
  }
  if (verb != "create" && verb != "drop") {
    return ErrorResponse(
        NotFoundError(StrCat("no such admin endpoint: ", verb)));
  }
  if (request.method != "POST") {
    return ErrorResponse(InvalidArgumentError("admin mutations require POST"));
  }
  StatusOr<JsonValue> body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  StatusOr<std::string> tenant = body->GetString("tenant", "");
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  if (tenant->empty()) {
    return ErrorResponse(InvalidArgumentError("missing field 'tenant'"));
  }
  if (verb == "create") {
    RecoveryInfo info;
    const Status status = registry_.Create(*tenant, &info);
    if (!status.ok()) return ErrorResponse(status);
    std::ostringstream os;
    os << "{\"tenant\":" << JsonQuote(*tenant)
       << ",\"recovered\":" << (info.loaded_snapshot || info.wal_records > 0
                                    ? "true"
                                    : "false")
       << ",\"epoch\":" << info.epoch
       << ",\"wal_records\":" << info.wal_records
       << ",\"wal_clean\":" << (info.wal_clean ? "true" : "false") << '}';
    return HttpResponse::Json(200, os.str());
  }
  const Status status = registry_.Drop(*tenant);
  if (!status.ok()) return ErrorResponse(status);
  return HttpResponse::Json(200,
                            StrCat("{\"dropped\":", JsonQuote(*tenant), "}"));
}

HttpResponse KbServer::HandleTenant(std::string_view tenant_name,
                                    std::string_view verb,
                                    const HttpRequest& request) {
  StatusOr<TenantLease> lease = registry_.Acquire(tenant_name);
  if (!lease.ok()) return ErrorResponse(lease.status());
  Tenant& tenant = **lease;

  // Cheap introspection endpoints bypass admission control: they are how
  // operators look at an overloaded server.
  if (verb == "status") return HandleStatus(tenant);
  if (verb == "metricsz") {
    HttpResponse response = HttpResponse::Text(
        200, tenant.engine->Registry().RenderPrometheus());
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  }
  if (verb == "slowz") {
    const SlowQueryLog* log = tenant.engine->slow_query_log();
    return HttpResponse::Json(
        200, log == nullptr
                 ? "{\"capacity\":0,\"recorded\":0,\"queries\":[]}"
                 : log->RenderJson());
  }
  if (verb == "usagez") {
    return HttpResponse::Json(
        200, StrCat("{\"tenant\":", JsonQuote(tenant.name),
                    ",\"usage\":", tenant.usage.ToJson(), "}"));
  }

  const bool known = verb == "query" || verb == "mutate" ||
                     verb == "explain" || verb == "facts";
  if (!known) {
    return ErrorResponse(
        NotFoundError(StrCat("no such tenant endpoint: ", verb)));
  }

  // One server-owned trace per request when tracing is on. We only pay
  // for recording when the request is head-sampled or could still commit
  // via always-sample-on-slow (the tenant engine calls MarkSlow on this
  // context when the query crosses its slow threshold).
  RootSpan root(&tracer_, tenant.engine->slow_query_log() != nullptr);
  SpanContext* span = root.context();
  ScopedSpan request_span =
      span != nullptr ? span->StartSpan("request") : ScopedSpan();

  ScopedSpan admission_span =
      span != nullptr ? span->StartSpan("admission") : ScopedSpan();
  const AdmissionDecision decision =
      admission_.TryEnter(tenant.name, tenant.inflight);
  admission_span.End();
  if (!decision.admitted) return RejectedResponse(decision, tenant.name);

  UsageDelta delta;
  const uint64_t cpu_before = ThreadCpuMicros();
  const auto wall_before = std::chrono::steady_clock::now();
  HttpResponse response;
  if (verb == "query") {
    response = HandleQuery(tenant, request, /*force_explain=*/false, span,
                           &delta);
  } else if (verb == "explain") {
    response = HandleQuery(tenant, request, /*force_explain=*/true, span,
                           &delta);
  } else if (verb == "mutate") {
    response = HandleMutate(tenant, request, span, &delta);
  } else {
    response = HandleFacts(tenant, request);
  }
  admission_.Exit(tenant.inflight);

  // Bill the request. Outcome counters key off the HTTP code so every
  // early-exit path (parse errors, engine failures) is attributed.
  delta.wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_before)
          .count());
  const uint64_t cpu_after = ThreadCpuMicros();
  delta.cpu_us = cpu_after > cpu_before ? cpu_after - cpu_before : 0;
  if (verb == "query" || verb == "explain") {
    if (response.code == 200) {
      delta.queries_ok = 1;
    } else {
      delta.queries_failed = 1;
    }
  } else if (verb == "mutate" && response.code == 200) {
    delta.mutations = 1;
  }
  registry_.RecordUsage(tenant, delta);

  request_span.End();
  root.Commit(tenant.name, verb, request.path);
  return response;
}

HttpResponse KbServer::HandleQuery(Tenant& tenant, const HttpRequest& request,
                                   bool force_explain, SpanContext* span,
                                   UsageDelta* usage) {
  if (request.method != "POST") {
    return ErrorResponse(InvalidArgumentError("queries require POST"));
  }
  StatusOr<JsonValue> body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());

  QueryRequest query;
  {
    StatusOr<std::string> module = body->GetString("module", "");
    if (!module.ok()) return ErrorResponse(module.status());
    query.module = *std::move(module);
    StatusOr<std::string> literal = body->GetString("literal", "");
    if (!literal.ok()) return ErrorResponse(literal.status());
    query.literal = *std::move(literal);
    StatusOr<std::string> mode_text = body->GetString("mode", "");
    if (!mode_text.ok()) return ErrorResponse(mode_text.status());
    StatusOr<QueryMode> mode = ParseQueryMode(*mode_text);
    if (!mode.ok()) return ErrorResponse(mode.status());
    query.mode = *mode;
    StatusOr<int64_t> deadline_ms = body->GetInt("deadline_ms", 0);
    if (!deadline_ms.ok()) return ErrorResponse(deadline_ms.status());
    // Bounded so that adding it to a clock reading cannot overflow.
    constexpr int64_t kMaxDeadlineMs = int64_t{1} << 32;
    if (*deadline_ms > kMaxDeadlineMs || *deadline_ms < -kMaxDeadlineMs) {
      return ErrorResponse(InvalidArgumentError(
          StrCat("deadline_ms must be within +/-", kMaxDeadlineMs)));
    }
    // 0 (or absent) = engine default; negative = already expired, which
    // QueryRequest honors (useful for load-shedding and tests).
    if (*deadline_ms != 0) {
      query.deadline = std::chrono::milliseconds(*deadline_ms);
    }
    StatusOr<bool> explain = body->GetBool("explain", force_explain);
    if (!explain.ok()) return ErrorResponse(explain.status());
    query.explain = *explain;
  }
  if (query.module.empty()) {
    return ErrorResponse(InvalidArgumentError("missing field 'module'"));
  }
  if (query.literal.empty() && query.mode != QueryMode::kCountModels) {
    return ErrorResponse(InvalidArgumentError("missing field 'literal'"));
  }

  // The engine records its ground/eval/search spans into the server's
  // context (and MarkSlows it past the slow threshold); the server — as
  // the context's owner — commits it in HandleTenant.
  query.span = span;
  StatusOr<QueryAnswer> answer = tenant.engine->Execute(std::move(query));
  if (!answer.ok()) return ErrorResponse(answer.status());

  if (usage != nullptr) {
    usage->ground_rules = answer->work.ground_rules;
    usage->index_probes = answer->work.index_probes;
    usage->eval_rounds = answer->work.eval_rounds;
    usage->delta_tuples = answer->work.delta_tuples;
    usage->solver_nodes = answer->work.solver_nodes;
  }

  std::ostringstream os;
  os << "{\"mode\":" << JsonQuote(QueryModeName(answer->mode));
  switch (answer->mode) {
    case QueryMode::kSkeptical:
      os << ",\"truth\":" << JsonQuote(TruthValueToString(answer->truth));
      break;
    case QueryMode::kBrave:
    case QueryMode::kCautious:
      os << ",\"holds\":" << (answer->holds ? "true" : "false");
      break;
    case QueryMode::kCountModels:
      os << ",\"model_count\":" << answer->model_count;
      break;
  }
  os << ",\"revision\":" << answer->revision
     << ",\"cache_hit\":" << (answer->cache_hit ? "true" : "false")
     << ",\"latency_us\":" << answer->latency.count();
  // Only advertise the trace id once the trace is guaranteed to commit
  // (head-sampled or marked slow) — a returned id always resolves on
  // /tracez, modulo ring eviction.
  if (span != nullptr && span->ShouldCommit()) {
    os << ",\"trace_id\":" << JsonQuote(TraceIdToHex(span->trace_id()));
  }
  if (!answer->explanation.empty()) {
    // ExplainJson output is already a JSON object; embed it raw.
    os << ",\"explanation\":" << answer->explanation;
  }
  os << '}';
  return HttpResponse::Json(200, os.str());
}

HttpResponse KbServer::HandleMutate(Tenant& tenant,
                                    const HttpRequest& request,
                                    SpanContext* span, UsageDelta* usage) {
  if (request.method != "POST") {
    return ErrorResponse(InvalidArgumentError("mutations require POST"));
  }
  StatusOr<JsonValue> body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  const JsonValue* ops = body->Find("ops");
  if (ops == nullptr || !ops->is_array() || ops->array_items().empty()) {
    return ErrorResponse(
        InvalidArgumentError("field 'ops' must be a non-empty array"));
  }

  ServerMutation server_ops;
  for (const JsonValue& item : ops->array_items()) {
    if (!item.is_object()) {
      return ErrorResponse(
          InvalidArgumentError("each op must be a JSON object"));
    }
    StatusOr<std::string> op = item.GetString("op", "");
    if (!op.ok()) return ErrorResponse(op.status());
    StatusOr<std::string> module = item.GetString("module", "");
    if (!module.ok()) return ErrorResponse(module.status());
    StatusOr<std::string> text = item.GetString("text", "");
    if (!text.ok()) return ErrorResponse(text.status());
    ServerOp out;
    out.module = *std::move(module);
    out.text = *std::move(text);
    if (*op == "add_fact") {
      out.kind = ServerOp::Kind::kAddFact;
    } else if (*op == "retract_fact") {
      out.kind = ServerOp::Kind::kRetractFact;
    } else if (*op == "add_rule") {
      out.kind = ServerOp::Kind::kAddRule;
    } else if (*op == "add_module") {
      out.kind = ServerOp::Kind::kAddModule;
    } else if (*op == "add_isa") {
      out.kind = ServerOp::Kind::kAddIsa;
    } else {
      return ErrorResponse(InvalidArgumentError(
          StrCat("unknown op '", *op,
                 "' (want add_fact, retract_fact, add_rule, add_module, "
                 "add_isa)")));
    }
    const bool needs_text = out.kind != ServerOp::Kind::kAddModule;
    if (out.module.empty() || (needs_text && out.text.empty())) {
      return ErrorResponse(InvalidArgumentError(
          StrCat("op '", *op, "' needs 'module'",
                 needs_text ? " and 'text'" : "")));
    }
    server_ops.push_back(std::move(out));
  }

  // Serialize the whole durability+apply sequence per tenant: the WAL
  // order IS the apply order, which recovery depends on.
  std::lock_guard<std::mutex> lock(tenant.mutate_mutex);
  if (tenant.durable) {
    const std::string payload = EncodeOps(server_ops);
    ScopedSpan wal_span =
        span != nullptr ? span->StartSpan("wal_append") : ScopedSpan();
    const Status logged = tenant.storage.LogRecord(payload);
    wal_span.AddAttribute("bytes", payload.size());
    wal_span.End();
    if (!logged.ok()) return ErrorResponse(logged);
    wal_records_->WithLabels(tenant.name).Increment();
    wal_bytes_->WithLabels(tenant.name).Increment(payload.size());
    if (usage != nullptr) {
      usage->wal_records = 1;
      usage->wal_bytes = payload.size();
    }
  }

  // Same grouping as crash recovery (ForEachOpGroup), so a recovered KB
  // walks the identical revision sequence.
  ScopedSpan apply_span =
      span != nullptr ? span->StartSpan("apply") : ScopedSpan();
  apply_span.AddAttribute("ops", server_ops.size());
  std::optional<MutationReport> last_report;
  const Status applied = ForEachOpGroup(
      server_ops,
      [&tenant](const ServerOp& op) {
        return tenant.engine->Mutate([&op](KnowledgeBase& kb) {
          return op.kind == ServerOp::Kind::kAddModule
                     ? kb.AddModule(op.module)
                     : kb.AddIsa(op.module, op.text);
        });
      },
      [&tenant, &last_report](const Mutation& mutation) {
        ORDLOG_ASSIGN_OR_RETURN(MutationReport report,
                                tenant.engine->ApplyMutation(mutation));
        last_report = std::move(report);
        return Status::Ok();
      });
  apply_span.End();
  if (!applied.ok()) return ErrorResponse(applied);

  if (tenant.durable) {
    const uint64_t epoch_before = tenant.storage.epoch();
    ScopedSpan snapshot_span =
        span != nullptr ? span->StartSpan("snapshot") : ScopedSpan();
    // Under the engine's writer lock: rendering the snapshot reads the
    // shared term pool, which concurrent query parsing mutates.
    const Status rotated = tenant.engine->Mutate([&tenant](KnowledgeBase& kb) {
      return tenant.storage.MaybeSnapshot(kb);
    });
    const bool rotated_now = tenant.storage.epoch() != epoch_before;
    snapshot_span.AddAttribute("rotated", rotated_now ? 1 : 0);
    snapshot_span.End();
    if (!rotated.ok()) return ErrorResponse(rotated);
    if (rotated_now) {
      snapshots_->WithLabels(tenant.name).Increment();
    }
  }

  std::ostringstream os;
  os << "{\"revision\":" << tenant.engine->revision()
     << ",\"ops\":" << server_ops.size();
  if (last_report.has_value()) {
    os << ",\"incremental\":" << (last_report->incremental ? "true" : "false");
    if (!last_report->fallback_reason.empty()) {
      os << ",\"fallback_reason\":";
      AppendJsonString(os, last_report->fallback_reason);
    }
    os << ",\"affected_modules\":";
    AppendStringArray(os, last_report->affected_modules);
  }
  if (tenant.durable) {
    os << ",\"epoch\":" << tenant.storage.epoch()
       << ",\"wal_records\":" << tenant.storage.wal_records();
  }
  os << '}';
  return HttpResponse::Json(200, os.str());
}

HttpResponse KbServer::HandleFacts(Tenant& tenant,
                                   const HttpRequest& request) {
  const std::string module = request.QueryParam("module");
  if (module.empty()) {
    // Without a module, list the modules.
    std::vector<std::string> modules;
    const Status status = tenant.engine->Mutate([&](KnowledgeBase& kb) {
      modules = kb.ListModules();
      return Status::Ok();
    });
    if (!status.ok()) return ErrorResponse(status);
    std::ostringstream os;
    os << "{\"modules\":";
    AppendStringArray(os, modules);
    os << '}';
    return HttpResponse::Json(200, os.str());
  }
  // DerivableFacts touches the KB's lazy grounding caches, so it runs
  // under the engine's writer lock like any other KB access outside the
  // snapshot path.
  std::vector<std::string> facts;
  const Status status = tenant.engine->Mutate([&](KnowledgeBase& kb) {
    ORDLOG_ASSIGN_OR_RETURN(facts, kb.DerivableFacts(module));
    return Status::Ok();
  });
  if (!status.ok()) return ErrorResponse(status);
  std::ostringstream os;
  os << "{\"module\":" << JsonQuote(module) << ",\"facts\":";
  AppendStringArray(os, facts);
  os << '}';
  return HttpResponse::Json(200, os.str());
}

HttpResponse KbServer::HandleStatus(Tenant& tenant) {
  std::ostringstream os;
  os << "{\"tenant\":" << JsonQuote(tenant.name)
     << ",\"revision\":" << tenant.engine->revision()
     << ",\"durable\":" << (tenant.durable ? "true" : "false");
  if (tenant.durable) {
    std::lock_guard<std::mutex> lock(tenant.mutate_mutex);
    os << ",\"epoch\":" << tenant.storage.epoch()
       << ",\"wal_records\":" << tenant.storage.wal_records();
  }
  os << ",\"inflight\":" << tenant.inflight.load() << '}';
  return HttpResponse::Json(200, os.str());
}

}  // namespace ordlog
