// End-to-end serving benchmark for ordlog: drives one workload through
// the production request path in process (KbServer::Handle with JSON
// bodies -> admission -> tenant lease -> QueryEngine / WAL + apply),
// checks every answer against an oracle computed from the workload's
// definition, and prints one JSON result line.
//
//   serve_bench --workload read_hot|update_mix|stable_search --seed N
//               --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same loop traced for half the time, then untraced for the
// other half. Traced, each request is wrapped in spans recorded by this
// file around Handle, and replayed through the public entry point of
// every layer below it (QueryEngine::Execute, ParseLiteral,
// KnowledgeBase::Apply and ground on a replica KB fed the same mutations,
// LeastModelEvaluator, StableModelSolver, FilterMaximal). It reports the
// per-layer metrics, a self-time table, and writes the spans to DIR.
// README.md describes the workloads and every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "core/stable_solver.h"
#include "eval/evaluator.h"
#include "inputs.h"
#include "kb/knowledge_base.h"
#include "parser/parser.h"
#include "runtime/query_engine.h"
#include "runtime/thread_pool.h"
#include "server/kb_server.h"
#include "spans.h"

namespace perfbench {
namespace {

using ordlog::HttpRequest;
using ordlog::HttpResponse;
using ordlog::KbServer;
using ordlog::KbServerOptions;
using ordlog::KnowledgeBase;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Latency samples. A timed loop is cut into kWindows equal windows; each
// client keeps a seeded reservoir per kind and window, so memory stays
// flat however many requests a run completes. A reported figure is the
// median over windows of that window's figure, so a stall that hits one
// window does not move it. Merged reservoirs weight each sample by how
// many requests it stands for.

constexpr int kWindows = 10;

class Samples {
 public:
  static constexpr size_t kCapacity = size_t{1} << 15;

  void Add(double us, std::mt19937_64& rng) {
    ++count_;
    if (values_.size() < kCapacity) {
      values_.push_back(static_cast<float>(us));
    } else {
      const uint64_t slot = rng() % count_;
      if (slot < kCapacity) values_[slot] = static_cast<float>(us);
    }
  }
  uint64_t count() const { return count_; }
  const std::vector<float>& values() const { return values_; }

 private:
  uint64_t count_ = 0;
  std::vector<float> values_;
};

struct Distribution {
  uint64_t count = 0;
  std::vector<std::pair<float, double>> weighted;  // (value, weight), sorted

  void Merge(const Samples& samples) {
    if (samples.count() == 0) return;
    count += samples.count();
    const double weight = static_cast<double>(samples.count()) /
                          static_cast<double>(samples.values().size());
    for (float value : samples.values()) weighted.emplace_back(value, weight);
  }
  void Finish() { std::sort(weighted.begin(), weighted.end()); }

  // The smallest sample whose cumulative weight reaches q of the total.
  double Quantile(double q) const {
    if (weighted.empty()) return 0.0;
    double total = 0;
    for (const auto& entry : weighted) total += entry.second;
    double seen = 0;
    for (const auto& entry : weighted) {
      seen += entry.second;
      if (seen >= q * total) return entry.first;
    }
    return weighted.back().first;
  }
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------------
// Per-client state. Everything here is touched by one client thread only.

struct Client {
  Client(int client_index, uint64_t seed)
      : index(client_index),
        rng(seed * 1000003 + static_cast<uint64_t>(client_index)),
        sample_rng(rng()) {}

  int index;
  std::mt19937_64 rng;         // workload inputs
  std::mt19937_64 sample_rng;  // reservoir slots
  // Set by RunLoop: where the timed loop started and how long a window is.
  Clock::time_point loop_start = Clock::now();
  Clock::duration window{1};
  std::map<std::string, std::array<Samples, kWindows>> samples;
  std::array<uint64_t, kWindows> window_requests{};
  uint64_t requests = 0;
  uint64_t non_ok = 0;
  uint64_t shed = 0;
  uint64_t wrong = 0;
  std::string first_error;
  // Traced run only.
  std::unique_ptr<SpanRecorder> spans;
  // Sums behind the per-layer metrics, by name (times in µs, counts).
  std::map<std::string, double> layers;
  std::unique_ptr<ordlog::TermPool> literal_pool =
      std::make_unique<ordlog::TermPool>();
  uint64_t next_request = 0;

  int Window() const {
    return static_cast<int>(std::min<int64_t>(
        kWindows - 1, (Clock::now() - loop_start) / window));
  }
  void Record(const char* kind, double us) {
    samples[kind][static_cast<size_t>(Window())].Add(us, sample_rng);
  }
  void Wrong(const std::string& what) {
    ++wrong;
    if (first_error.empty()) first_error = "wrong answer: " + what;
  }
  void BeginRequest() {
    if (spans) {
      spans->BeginRequest((static_cast<uint64_t>(index) << 40) |
                          next_request++);
    }
  }
  void EndRequest() {
    if (spans) spans->EndRequest();
  }
};

// Times `fn` as one span named `name` (when traced) and returns µs.
template <typename Fn>
double Layer(Client& client, const char* name, Fn&& fn) {
  ScopedLayer span(client.spans.get(), name);
  const Clock::time_point start = Clock::now();
  fn();
  const double us = MicrosSince(start);
  span.End();
  return us;
}

// ---------------------------------------------------------------------------
// Request helpers.

HttpRequest Post(std::string path, std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.path = std::move(path);
  request.body = std::move(body);
  return request;
}

HttpRequest Get(std::string path) {
  HttpRequest request;
  request.method = "GET";
  request.path = std::move(path);
  return request;
}

// The raw text of `"key":<value>` in a flat JSON body (string values keep
// no quotes), or "" when absent.
std::string Field(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  if (at < body.size() && body[at] == '"') {
    const size_t end = body.find('"', at + 1);
    return body.substr(at + 1, end - at - 1);
  }
  size_t end = at;
  while (end < body.size() && body[end] != ',' && body[end] != '}') ++end;
  return body.substr(at, end - at);
}

double NumberField(const std::string& body, const char* key) {
  const std::string text = Field(body, key);
  return text.empty() ? 0.0 : std::strtod(text.c_str(), nullptr);
}

struct Reply {
  int code = 0;
  std::string body;
  double us = 0;
};

// Sends one production request. Traced, the span is `server.handle`, and
// for queries its self time excludes the latency the engine reports.
Reply Send(KbServer& server, const HttpRequest& request, Client& client,
           bool query) {
  ScopedLayer span(client.spans.get(), "server.handle");
  const Clock::time_point start = Clock::now();
  HttpResponse response = server.Handle(request);
  Reply reply{response.code, std::move(response.body), MicrosSince(start)};
  const bool traced_query = client.spans && query && reply.code == 200;
  const double engine_us =
      traced_query ? NumberField(reply.body, "latency_us") : 0;
  span.End(engine_us);
  ++client.requests;
  ++client.window_requests[static_cast<size_t>(client.Window())];
  if (reply.code == 429 || reply.code == 503) ++client.shed;
  if (reply.code != 200) {
    ++client.non_ok;
    if (client.first_error.empty()) {
      client.first_error = request.path + " -> " +
                           std::to_string(reply.code) + " " + reply.body;
    }
  }
  if (traced_query) {
    client.layers["overhead_us"] += reply.us - engine_us;
    ++client.layers["handled_queries"];
    if (Field(reply.body, "cache_hit") == "true") {
      ++client.layers["cache_hits"];
    }
  } else if (client.spans && reply.code == 200) {
    ++client.layers["mutations"];
    if (Field(reply.body, "incremental") == "true") {
      ++client.layers["incremental"];
    }
  }
  return reply;
}

std::string QueryBody(const std::string& module, const std::string& literal,
                      const char* mode) {
  return "{\"module\":\"" + module + "\",\"literal\":\"" + literal +
         "\",\"mode\":\"" + mode + "\"}";
}

// Traced replay of a query on the tenant engine, through the registry's
// lease like the server, then of its literal parse. An error counts as a
// wrong answer.
void ReplayExecute(KbServer& server, const std::string& tenant,
                   const std::string& module, const std::string& literal,
                   ordlog::QueryMode mode, Client& client) {
  if (!client.spans) return;
  ordlog::StatusOr<ordlog::QueryAnswer> answer =
      ordlog::InternalError("not run");
  client.layers["execute_us"] += Layer(client, "runtime.execute", [&] {
    ordlog::StatusOr<ordlog::TenantLease> lease =
        server.registry().Acquire(tenant);
    if (!lease.ok()) return;
    ordlog::QueryRequest request;
    request.module = module;
    request.literal = literal;
    request.mode = mode;
    answer = (*lease)->engine->Execute(std::move(request));
  });
  ++client.layers["executes"];
  if (!answer.ok()) client.Wrong("replayed Execute failed");
  if (!literal.empty()) {
    client.layers["literal_us"] += Layer(client, "parser.literal", [&] {
      if (!ordlog::ParseLiteral(literal, *client.literal_pool).ok()) {
        client.Wrong("ParseLiteral rejected " + literal);
      }
    });
    ++client.layers["literals"];
  }
}

// ---------------------------------------------------------------------------
// Replica KB: the traced run feeds it the program and mutations the
// server's tenant receives, and times each layer on it.

class Replica {
 public:
  // Loads `ops` the way the server applies a mutate body: module and isa
  // ops one by one, consecutive rules and facts as one Apply batch.
  bool Load(const std::vector<ProgramOp>& ops, Client& client) {
    ordlog::Mutation batch;
    for (const ProgramOp& op : ops) {
      if (op.kind == ProgramOp::Kind::kAddModule) {
        if (!kb_.AddModule(op.module).ok()) return false;
      } else if (op.kind == ProgramOp::Kind::kAddIsa) {
        if (!kb_.AddIsa(op.module, op.text).ok()) return false;
      } else if (op.kind == ProgramOp::Kind::kAddFact) {
        batch.AddFact(op.module, op.text);
      } else {
        batch.AddRule(op.module, op.text);
      }
    }
    return Apply(batch, client, /*in_loop=*/false);
  }

  // KnowledgeBase::Apply, then ground (a no-op after a delta patch, a
  // full reground after a retraction).
  bool Apply(const ordlog::Mutation& mutation, Client& client, bool in_loop) {
    bool ok = true;
    client.layers["apply_us"] += Layer(client, "incremental.apply", [&] {
      ordlog::StatusOr<ordlog::MutationReport> report = kb_.Apply(mutation);
      ok = report.ok();
      if (ok && in_loop) client.layers["delta_rules"] += report->delta_rules;
    });
    ++client.layers["applies"];
    if (in_loop) ++client.layers["loop_applies"];
    ordlog::GroundStats stats;
    client.layers["ground_us"] += Layer(client, "ground", [&] {
      ok = ok && kb_.ground(nullptr, &stats).ok();
    });
    ++client.layers["grounds"];
    client.layers["ground_rules"] += stats.rules_emitted;
    client.layers["index_probes"] += stats.index_probes;
    return ok;
  }

  // V∞ of `module` through the evaluator facade (nullopt when the view
  // cannot be grounded or found).
  std::optional<ordlog::Interpretation> Eval(const std::string& module,
                                             Client& client) {
    ordlog::StatusOr<const ordlog::GroundProgram*> ground =
        kb_.ground(nullptr, nullptr);
    ordlog::StatusOr<ordlog::ComponentId> view =
        kb_.program().FindComponent(module);
    if (!ground.ok() || !view.ok()) return std::nullopt;
    std::optional<ordlog::Interpretation> model;
    ordlog::EvalStats stats;
    client.layers["eval_us"] += Layer(client, "eval", [&] {
      ordlog::LeastModelEvaluator evaluator(kb_.families().get(), **ground,
                                            *view, kb_.eval_options());
      model = evaluator.Compute();
      stats = evaluator.last_stats();
    });
    ++client.layers["evals"];
    client.layers["eval_rounds"] += stats.rounds;
    client.layers["eval_delta_tuples"] += stats.delta_tuples;
    return model;
  }

  // Stable models of `module` as the engine computes them: search seeded
  // with V∞, then the maximality filter. Returns the stable count.
  size_t Stable(const std::string& module, ordlog::Interpretation seed,
                ordlog::Executor* executor, size_t threads, Client& client) {
    ordlog::StatusOr<const ordlog::GroundProgram*> ground =
        kb_.ground(nullptr, nullptr);
    ordlog::StatusOr<ordlog::ComponentId> view =
        kb_.program().FindComponent(module);
    if (!ground.ok() || !view.ok()) return 0;
    ordlog::StableSolverOptions options;
    options.executor = executor;
    options.search_threads = threads;
    ordlog::StableModelSolver solver(**ground, *view, std::move(seed),
                                     options);
    ordlog::StableSolverStats stats;
    std::vector<ordlog::Interpretation> models;
    client.layers["search_us"] += Layer(client, "core.search", [&] {
      ordlog::StatusOr<std::vector<ordlog::Interpretation>> found =
          solver.AssumptionFreeModels(&stats);
      if (found.ok()) models = *std::move(found);
    });
    client.layers["af_models"] += models.size();
    client.layers["filter_us"] += Layer(client, "core.filter", [&] {
      models = ordlog::FilterMaximal(std::move(models));
    });
    ++client.layers["searches"];
    client.layers["nodes"] += stats.nodes;
    client.layers["steals"] += stats.steals;
    client.layers["stable_models"] += models.size();
    return models.size();
  }

 private:
  KnowledgeBase kb_;
};

// ParseProgram on the workload's program text (traced setup).
void TimeProgramParse(const std::string& text, Client& client) {
  std::vector<double> runs;
  for (int i = 0; i < 5; ++i) {
    runs.push_back(Layer(client, "parser.program", [&] {
      if (!ordlog::ParseProgram(text).ok()) client.Wrong("ParseProgram");
    }));
  }
  client.layers["program_us"] = Median(runs);
}

// ---------------------------------------------------------------------------
// Workloads. Setup runs untraced; TraceSetup (traced run only) loads the
// replicas and times the program parse.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  virtual KbServerOptions ServerOptions() const { return {}; }
  // Tenant names, for the usage and fsync readouts.
  virtual std::vector<std::string> tenants() const = 0;
  // Creates tenants, loads each program through mutate, and warms up.
  virtual bool Setup(KbServer& server, Client& warm) = 0;
  virtual bool TraceSetup(std::vector<Client>& clients) = 0;
  virtual void Cycle(KbServer& server, Client& client) = 0;

  const std::string& error() const { return error_; }

 protected:
  bool Fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  // Creates `tenant` and sends the program as one mutate.
  bool CreateAndLoad(KbServer& server, const std::string& tenant,
                     const std::string& text, std::vector<ProgramOp>* ops) {
    if (!ProgramToOps(text, ops)) return Fail("program format");
    const HttpResponse created = server.Handle(
        Post("/v1/admin/create", "{\"tenant\":\"" + tenant + "\"}"));
    if (created.code != 200) return Fail("create: " + created.body);
    const HttpResponse loaded =
        server.Handle(Post("/v1/" + tenant + "/mutate", OpsToJson(*ops)));
    if (loaded.code != 200) return Fail("load: " + loaded.body);
    return true;
  }

  // Loads a fresh replica of `ops` (and times the program parse when
  // `text` is given) inside one traced request of `client`.
  bool LoadReplica(Client& client, const std::vector<ProgramOp>& ops,
                   const std::string& text, const std::string& view,
                   Replica* replica) {
    client.BeginRequest();
    if (!text.empty()) TimeProgramParse(text, client);
    const bool ok =
        replica->Load(ops, client) && replica->Eval(view, client).has_value();
    client.EndRequest();
    return ok || Fail("replica load");
  }

 private:
  std::string error_;
};

// read_hot: skeptical access(u, r) queries at one revision, uniform over
// four tenants; after warm-up every answer is a cache hit.
class ReadHot : public Workload {
 public:
  static constexpr int kTenants = 4;

  int clients() const override { return 4; }
  std::vector<std::string> tenants() const override {
    std::vector<std::string> names;
    for (int t = 0; t < kTenants; ++t) names.push_back(Tenant(t));
    return names;
  }

  bool Setup(KbServer& server, Client& warm) override {
    for (int t = 0; t < kTenants; ++t) {
      if (!CreateAndLoad(server, Tenant(t), policy_.Program(), &ops_)) {
        return false;
      }
      for (int i = 0; i < 4; ++i) {
        if (!Query(server, warm, t, i, i * 3, false)) {
          return Fail("warm-up: " + warm.first_error);
        }
      }
    }
    return true;
  }

  bool TraceSetup(std::vector<Client>& clients) override {
    Replica replica;
    return LoadReplica(clients.front(), ops_, policy_.Program(), "site",
                       &replica);
  }

  void Cycle(KbServer& server, Client& client) override {
    // 1/16 of the queries name a constant outside the policy.
    int u = static_cast<int>(client.rng() % policy_.users);
    int r = static_cast<int>(client.rng() % policy_.resources);
    const uint64_t unknown = client.rng() % 32;
    if (unknown == 0) u = policy_.users + static_cast<int>(client.rng() % 16);
    if (unknown == 1) {
      r = policy_.resources + static_cast<int>(client.rng() % 16);
    }
    const bool negated = client.rng() % 4 == 0;
    const int tenant = static_cast<int>(client.rng() % kTenants);
    client.BeginRequest();
    const Clock::time_point sent = Clock::now();
    Query(server, client, tenant, u, r, negated);
    client.Record("cycle", MicrosSince(sent));
    client.EndRequest();
  }

 private:
  static std::string Tenant(int t) { return "hot" + std::to_string(t); }

  bool Query(KbServer& server, Client& client, int tenant, int u, int r,
             bool negated) {
    const std::string literal = std::string(negated ? "-" : "") + "access(u" +
                                std::to_string(u) + ", r" +
                                std::to_string(r) + ")";
    const Reply reply = Send(
        server,
        Post("/v1/" + Tenant(tenant) + "/query",
             QueryBody("site", literal, "skeptical")),
        client, /*query=*/true);
    client.Record("query", reply.us);
    if (reply.code != 200) return false;
    const char* expected = policy_.Truth(u, r, negated);
    if (Field(reply.body, "truth") != expected) {
      client.Wrong(literal + " expected " + expected + ", got " + reply.body);
      return false;
    }
    if (client.spans) {
      ScopedLayer replay(client.spans.get(), "replay");
      ReplayExecute(server, Tenant(tenant), "site", literal,
                    ordlog::QueryMode::kSkeptical, client);
    }
    return true;
  }

  AccessPolicy policy_;
  std::vector<ProgramOp> ops_;
};

// update_mix: per client, a durable tenant with the reachability program;
// each cycle is a mutate, the first query on the literal it affects, and
// follow-up queries at the same revision.
class UpdateMix : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr int kNodes = 40;
  static constexpr int kFollowUps = 3;

  UpdateMix(uint64_t seed, std::string data_dir)
      : data_dir_(std::move(data_dir)) {
    std::mt19937_64 rng(seed);
    for (int c = 0; c < kClients; ++c) graphs_.emplace_back(kNodes, rng);
  }

  int clients() const override { return kClients; }
  KbServerOptions ServerOptions() const override {
    KbServerOptions options;
    options.registry.data_dir = data_dir_;
    return options;
  }
  std::vector<std::string> tenants() const override {
    std::vector<std::string> names;
    for (int c = 0; c < kClients; ++c) names.push_back(Tenant(c));
    return names;
  }

  bool Setup(KbServer& server, Client& warm) override {
    ops_.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      if (!CreateAndLoad(server, Tenant(c), Graph(c).Program(),
                         &ops_[static_cast<size_t>(c)]) ||
          !Query(server, warm, c, 0, kNodes - 1, false)) {
        return Fail("warm-up: " + warm.first_error);
      }
    }
    return true;
  }

  bool TraceSetup(std::vector<Client>& clients) override {
    for (int c = 0; c < kClients; ++c) {
      replicas_.push_back(std::make_unique<Replica>());
      if (!LoadReplica(clients[static_cast<size_t>(c)],
                       ops_[static_cast<size_t>(c)],
                       c == 0 ? Graph(c).Program() : "", "site",
                       replicas_.back().get())) {
        return false;
      }
    }
    return true;
  }

  void Cycle(KbServer& server, Client& client) override {
    const int c = client.index;
    const ReachGraph::Change change = Graph(c).Next(client.rng);
    ordlog::Mutation mutation;
    std::string ops;
    for (const ReachGraph::Fact& fact : change.facts) {
      const char* module = fact.link ? "net" : "site";
      const std::string text = std::string(fact.link ? "link" : "blocked") +
                               "(n" + std::to_string(fact.a) + ", n" +
                               std::to_string(fact.b) + ")";
      if (!ops.empty()) ops += ',';
      ops += std::string("{\"op\":\"") +
             (change.assert ? "add_fact" : "retract_fact") +
             "\",\"module\":\"" + module + "\",\"text\":\"" + text + "\"}";
      if (change.assert) {
        mutation.AddFact(module, text);
      } else {
        mutation.RetractFact(module, text);
      }
    }

    client.BeginRequest();
    const Clock::time_point sent = Clock::now();
    const Reply mutated = Send(
        server,
        Post("/v1/" + Tenant(c) + "/mutate", "{\"ops\":[" + ops + "]}"),
        client, /*query=*/false);
    client.Record("mutate", mutated.us);
    if (client.spans) {
      ScopedLayer replay(client.spans.get(), "replay");
      if (!replicas_[static_cast<size_t>(c)]->Apply(mutation, client,
                                                    /*in_loop=*/true)) {
        client.Wrong("replica Apply failed");
      }
    }
    client.EndRequest();

    // The literal the edit affects: the edited pair itself, or for a link
    // a pair a few nodes past it.
    const ReachGraph::Fact& fact = change.facts.front();
    int b = fact.b;
    if (fact.link) {
      b = std::min(kNodes - 1, b + static_cast<int>(client.rng() % 4));
    }
    client.BeginRequest();
    const bool answered = Query(server, client, c, fact.a, b, false);
    const double visible = MicrosSince(sent);
    if (client.spans && answered) {
      ScopedLayer replay(client.spans.get(), "replay");
      replicas_[static_cast<size_t>(c)]->Eval("site", client);
    }
    client.EndRequest();
    client.Record(change.assert ? "assert_visible" : "retract_visible",
                  visible);
    client.Record("cycle", visible);

    for (int i = 0; i < kFollowUps; ++i) {
      int x = static_cast<int>(client.rng() % kNodes);
      int y = static_cast<int>(client.rng() % kNodes);
      if (x > y && client.rng() % 8 != 0) std::swap(x, y);
      const bool negated = client.rng() % 4 == 0;
      client.BeginRequest();
      Query(server, client, c, x, y, negated);
      client.EndRequest();
    }
  }

 private:
  static std::string Tenant(int c) { return "mix" + std::to_string(c); }
  ReachGraph& Graph(int c) { return graphs_[static_cast<size_t>(c)]; }

  bool Query(KbServer& server, Client& client, int c, int a, int b,
             bool negated) {
    const std::string literal = std::string(negated ? "-" : "") + "reach(n" +
                                std::to_string(a) + ", n" +
                                std::to_string(b) + ")";
    const Reply reply = Send(
        server,
        Post("/v1/" + Tenant(c) + "/query",
             QueryBody("site", literal, "skeptical")),
        client, /*query=*/true);
    client.Record("query", reply.us);
    if (reply.code != 200) return false;
    std::string expected = Graph(c).Truth(a, b);
    if (negated && expected != "undefined") {
      expected = expected == "true" ? "false" : "true";
    }
    if (Field(reply.body, "truth") != expected) {
      client.Wrong(literal + " expected " + expected + ", got " + reply.body);
      return false;
    }
    if (client.spans) {
      ScopedLayer replay(client.spans.get(), "replay");
      ReplayExecute(server, Tenant(c), "site", literal,
                    ordlog::QueryMode::kSkeptical, client);
    }
    return true;
  }

  std::string data_dir_;
  std::vector<ReachGraph> graphs_;
  std::vector<std::vector<ProgramOp>> ops_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

// stable_search: one client; each cycle asserts a fresh base fact (a new
// revision) and sends one brave, cautious, or count query. The same mutate
// retracts the previous cycle's fact, so the program keeps its size: left
// to grow, the facts widen every model the filter compares, and the query
// slows down over a run.
class StableSearch : public Workload {
 public:
  static constexpr size_t kSearchThreads = 4;

  int clients() const override { return 1; }
  KbServerOptions ServerOptions() const override {
    KbServerOptions options;
    options.registry.search_threads = kSearchThreads;
    return options;
  }
  std::vector<std::string> tenants() const override { return {kTenant}; }

  bool Setup(KbServer& server, Client& warm) override {
    if (!CreateAndLoad(server, kTenant, program_.Program(), &ops_)) {
      return false;
    }
    // Warm-up: one stable computation at the loaded revision.
    return Ask(server, warm, 2, "", "") ||
           Fail("warm-up: " + warm.first_error);
  }

  bool TraceSetup(std::vector<Client>& clients) override {
    pool_ = std::make_unique<ordlog::ThreadPool>(kSearchThreads);
    return LoadReplica(clients.front(), ops_, program_.Program(), "c1",
                       &replica_);
  }

  void Cycle(KbServer& server, Client& client) override {
    const std::string fresh = "fresh" + std::to_string(serial_);
    ordlog::Mutation mutation;
    mutation.AddFact("c2", fresh);
    std::string ops =
        "{\"op\":\"add_fact\",\"module\":\"c2\",\"text\":\"" + fresh + "\"}";
    if (serial_ > 0) {
      const std::string previous = "fresh" + std::to_string(serial_ - 1);
      mutation.RetractFact("c2", previous);
      ops += ",{\"op\":\"retract_fact\",\"module\":\"c2\",\"text\":\"" +
             previous + "\"}";
    }
    ++serial_;
    client.BeginRequest();
    const Clock::time_point sent = Clock::now();
    const Reply mutated =
        Send(server,
             Post("/v1/" + std::string(kTenant) + "/mutate",
                  "{\"ops\":[" + ops + "]}"),
             client, /*query=*/false);
    client.Record("mutate", mutated.us);
    if (client.spans) {
      ScopedLayer replay(client.spans.get(), "replay");
      if (!replica_.Apply(mutation, client, /*in_loop=*/true)) {
        client.Wrong("replica Apply failed");
      }
    }
    client.EndRequest();

    // Rotate brave, cautious, count; 1/8 of the literals ask about the
    // fact just asserted.
    const int mode = static_cast<int>(serial_ % 3);
    std::string literal;
    if (mode != 2) {
      if (client.rng() % 8 == 0) {
        literal = fresh;
      } else {
        literal = client.rng() % 2 == 0 ? "-" : "";
        literal += "abc"[client.rng() % 3];
        literal += std::to_string(client.rng() % program_.gadgets);
      }
    }
    client.BeginRequest();
    Ask(server, client, mode, literal, fresh);
    const double visible = MicrosSince(sent);
    client.EndRequest();
    client.Record("cycle", visible);
  }

 private:
  static constexpr const char* kTenant = "stable0";

  // mode: 0 brave, 1 cautious, 2 count.
  bool Ask(KbServer& server, Client& client, int mode,
           const std::string& literal, const std::string& fresh) {
    static constexpr const char* kModes[] = {"brave", "cautious", "count"};
    static constexpr ordlog::QueryMode kQueryModes[] = {
        ordlog::QueryMode::kBrave, ordlog::QueryMode::kCautious,
        ordlog::QueryMode::kCountModels};
    const Reply reply = Send(
        server,
        Post("/v1/" + std::string(kTenant) + "/query",
             QueryBody("c1", literal, kModes[mode])),
        client, /*query=*/true);
    client.Record("stable", reply.us);
    if (reply.code != 200) return false;
    std::string got;
    bool holds = false;
    if (mode == 2) {
      got = Field(reply.body, "model_count");
    } else {
      got = Field(reply.body, "holds");
      const bool negated = literal[0] == '-';
      const char atom = literal[negated ? 1 : 0];
      holds = literal == fresh ||
              (mode == 0 ? GadgetProgram::Brave(atom, negated)
                         : GadgetProgram::Cautious(atom, negated));
    }
    const std::string expected =
        mode == 2 ? std::to_string(program_.ModelCount())
                  : (holds ? "true" : "false");
    if (got != expected) {
      client.Wrong(std::string(kModes[mode]) + " " + literal + " expected " +
                   expected + ", got " + reply.body);
      return false;
    }
    if (client.spans) {
      ScopedLayer replay(client.spans.get(), "replay");
      ReplayExecute(server, kTenant, "c1", literal, kQueryModes[mode],
                    client);
      std::optional<ordlog::Interpretation> least = replica_.Eval("c1", client);
      if (least.has_value()) {
        const size_t stable = replica_.Stable(
            "c1", *std::move(least), pool_.get(), kSearchThreads, client);
        if (stable != program_.ModelCount()) {
          client.Wrong("replica stable models: " + std::to_string(stable));
        }
      }
    }
    return true;
  }

  GadgetProgram program_;
  std::vector<ProgramOp> ops_;
  uint64_t serial_ = 0;
  Replica replica_;
  std::unique_ptr<ordlog::ThreadPool> pool_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& data_dir) {
  if (name == "read_hot") return std::make_unique<ReadHot>();
  if (name == "update_mix") {
    return std::make_unique<UpdateMix>(seed, data_dir);
  }
  if (name == "stable_search") return std::make_unique<StableSearch>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Harness.

// Runs cycles on every client, one thread each, until `seconds` pass;
// returns the wall time until the last client finished.
double RunLoop(KbServer& server, Workload& workload,
               std::vector<Client>& clients, double seconds) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (Client& client : clients) {
    client.loop_start = start;
    client.window = (deadline - start) / kWindows;
    client.window_requests = {};
    client.samples.clear();
    threads.emplace_back([&server, &workload, &client, deadline] {
      while (Clock::now() < deadline) workload.Cycle(server, client);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return MicrosSince(start) / 1e6;
}

// The value on the unlabeled exposition line `name value`, or 0.
double PrometheusValue(const std::string& text, const std::string& name) {
  size_t at = 0;
  while ((at = text.find(name + " ", at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::strtod(text.c_str() + at + name.size() + 1, nullptr);
    }
    at += name.size();
  }
  return 0;
}

// Cumulative counters read back from the server, summed over tenants:
// usage totals, the WAL fsync histogram, and the engine's phase clock.
std::map<std::string, double> ReadTenants(
    KbServer& server, const std::vector<std::string>& tenants) {
  std::map<std::string, double> totals;
  for (const std::string& tenant : tenants) {
    const HttpResponse usage =
        server.Handle(Get("/v1/" + tenant + "/usagez"));
    totals["wal_bytes"] += NumberField(usage.body, "wal_bytes");
    totals["wal_mutations"] += NumberField(usage.body, "mutations");
    const HttpResponse metrics =
        server.Handle(Get("/v1/" + tenant + "/metricsz"));
    totals["fsync_us"] +=
        PrometheusValue(metrics.body, "ordlog_server_wal_fsync_us_sum");
    totals["fsyncs"] +=
        PrometheusValue(metrics.body, "ordlog_server_wal_fsync_us_count");
    ordlog::StatusOr<ordlog::TenantLease> lease =
        server.registry().Acquire(tenant);
    if (lease.ok()) {
      const ordlog::MetricsSnapshot engine = (*lease)->engine->Metrics();
      totals["snapshot_us"] += static_cast<double>(engine.phase_us[0]);
      totals["resolve_us"] += static_cast<double>(engine.phase_us[1]);
      totals["served"] += static_cast<double>(engine.queries_served);
    }
  }
  return totals;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer metrics: numerator / denominator over the traced sums (a
// null denominator reports the numerator itself).
constexpr struct {
  const char* name;
  const char* sum;
  const char* per;
  const char* unit;
} kLayerMetrics[] = {
    {"server.overhead_us", "overhead_us", "handled_queries", "us"},
    {"server.wal_bytes_per_mutate", "wal_bytes", "wal_mutations", "bytes"},
    {"server.fsync_us", "fsync_us", "fsyncs", "us"},
    {"server.shed_ratio", "shed", "traced_requests", "ratio"},
    {"runtime.execute_us", "execute_us", "executes", "us"},
    {"runtime.snapshot_us", "snapshot_us", "served", "us"},
    {"runtime.resolve_us", "resolve_us", "served", "us"},
    {"runtime.cache_hit_ratio", "cache_hits", "handled_queries", "ratio"},
    {"parser.program_us", "program_us", nullptr, "us"},
    {"parser.literal_us", "literal_us", "literals", "us"},
    {"incremental.apply_us", "apply_us", "applies", "us"},
    {"incremental.delta_ratio", "incremental", "mutations", "ratio"},
    {"incremental.delta_rules", "delta_rules", "loop_applies", "count"},
    {"ground.us", "ground_us", "grounds", "us"},
    {"ground.rules", "ground_rules", "grounds", "count"},
    {"ground.index_probes", "index_probes", "grounds", "count"},
    {"eval.us", "eval_us", "evals", "us"},
    {"eval.rounds", "eval_rounds", "evals", "count"},
    {"eval.delta_tuples", "eval_delta_tuples", "evals", "count"},
    {"core.search_us", "search_us", "searches", "us"},
    {"core.filter_us", "filter_us", "searches", "us"},
    {"core.nodes", "nodes", "searches", "count"},
    {"core.steals", "steals", "searches", "count"},
    {"core.stable_per_af", "stable_models", "af_models", "ratio"},
    {"trace.overhead_ratio", "untraced_ops", "traced_ops", "ratio"},
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Run(const Args& args) {
  namespace fs = std::filesystem;
  // Tenant data dirs live under the output dir and go when Run returns,
  // after the server (declared later, destroyed first).
  struct ScratchDir {
    fs::path path;
    ~ScratchDir() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } data_root{fs::path(args.out_dir) / ("data-" + std::to_string(getpid()))};

  // Set-up, 15 times over (the reported figure is the median: a single
  // set-up of the smaller workloads takes tens of milliseconds, and on a
  // shared machine one such sample can be off by half); the last server
  // and workload are the ones measured.
  constexpr int kSetups = 15;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<KbServer> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    workload = MakeWorkload(args.workload, args.seed,
                            (data_root.path / std::to_string(i)).string());
    if (workload == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    Client warm(-1, args.seed);
    const Clock::time_point start = Clock::now();
    server = std::make_unique<KbServer>(workload->ServerOptions());
    const bool ok = workload->Setup(*server, warm);
    setup_s.push_back(MicrosSince(start) / 1e6);
    if (!ok) {
      std::fprintf(stderr, "set-up failed: %s\n", workload->error().c_str());
      return 1;
    }
  }

  std::vector<Client> clients;
  for (int c = 0; c < workload->clients(); ++c) {
    clients.emplace_back(c, args.seed);
  }

  // Traced half first (when asked), then the untraced loop.
  double traced_seconds = 0;
  uint64_t traced_requests = 0;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  std::map<std::string, double> layers;
  if (args.trace) {
    const Clock::time_point epoch = Clock::now();
    for (Client& client : clients) {
      client.spans = std::make_unique<SpanRecorder>(epoch, 1000);
    }
    if (!workload->TraceSetup(clients)) {
      std::fprintf(stderr, "traced set-up failed: %s\n",
                   workload->error().c_str());
      return 1;
    }
    const std::map<std::string, double> before =
        ReadTenants(*server, workload->tenants());
    traced_seconds = RunLoop(*server, *workload, clients, args.seconds / 2);
    const std::map<std::string, double> after =
        ReadTenants(*server, workload->tenants());
    for (const auto& [name, value] : after) {
      layers[name] = value - before.at(name);
    }
    for (Client& client : clients) {
      traced_requests += client.requests;
      layers["shed"] += static_cast<double>(client.shed);
      recorders.push_back(std::move(client.spans));
      for (const auto& [name, value] : client.layers) layers[name] += value;
    }
    layers["traced_requests"] = static_cast<double>(traced_requests);
  }
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const double untraced_seconds =
      RunLoop(*server, *workload, clients, loop_seconds);

  uint64_t requests = 0, non_ok = 0, wrong = 0;
  std::string first_error;
  std::map<std::string, std::array<Distribution, kWindows>> kinds;
  std::array<double, kWindows> window_requests{};
  for (const Client& client : clients) {
    requests += client.requests;
    non_ok += client.non_ok;
    wrong += client.wrong;
    if (first_error.empty()) first_error = client.first_error;
    for (const auto& [kind, windows] : client.samples) {
      for (int w = 0; w < kWindows; ++w) {
        kinds[kind][static_cast<size_t>(w)].Merge(
            windows[static_cast<size_t>(w)]);
      }
    }
    for (int w = 0; w < kWindows; ++w) {
      window_requests[static_cast<size_t>(w)] +=
          static_cast<double>(client.window_requests[static_cast<size_t>(w)]);
    }
  }
  for (auto& entry : kinds) {
    for (Distribution& window : entry.second) window.Finish();
  }
  server.reset();

  // Windows are equal slices of the requested time; the last one also
  // holds the cycles still in flight at the deadline.
  std::vector<double> window_rates;
  for (int w = 0; w < kWindows; ++w) {
    const double length =
        w + 1 < kWindows ? loop_seconds / kWindows
                         : untraced_seconds - loop_seconds * (kWindows - 1) /
                                                  kWindows;
    window_rates.push_back(window_requests[static_cast<size_t>(w)] / length);
  }
  const double ops_per_s = Median(window_rates);
  const uint64_t failed = non_ok + wrong;

  // Human-readable report: every metric that applies to this workload.
  std::printf("workload %s seed %llu: %llu requests, %llu failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(failed));
  if (!first_error.empty()) std::printf("first failure: %s\n",
                                        first_error.c_str());
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", ops_per_s, "ops/s"},
  };
  const auto percentile = [&](const char* kind, double q) {
    std::vector<double> per_window;
    for (const Distribution& window : kinds[kind]) {
      if (window.count > 0) per_window.push_back(window.Quantile(q));
    }
    return Median(per_window);
  };
  e2e.push_back({"cycle_p50_us", percentile("cycle", 0.5), "us"});
  e2e.push_back({"cycle_p90_us", percentile("cycle", 0.9), "us"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  std::vector<Metric> report = e2e;
  const struct {
    const char* kind;
    const char* name;
    double q;
  } kReported[] = {
      {"query", "query_p50_us", 0.5},
      {"query", "query_p99_us", 0.99},
      {"mutate", "mutate_p50_us", 0.5},
      {"mutate", "mutate_p99_us", 0.99},
      {"assert_visible", "assert_visible_p50_us", 0.5},
      {"assert_visible", "assert_visible_p90_us", 0.9},
      {"retract_visible", "retract_visible_p50_us", 0.5},
      {"retract_visible", "retract_visible_p90_us", 0.9},
      {"stable", "stable_p50_us", 0.5},
      {"stable", "stable_p90_us", 0.9},
  };
  for (const auto& entry : kReported) {
    if (kinds.count(entry.kind)) {
      report.push_back({entry.name, percentile(entry.kind, entry.q), "us"});
    }
  }
  report.push_back({"failed_ratio", Ratio(failed, requests), "ratio"});
  for (const Metric& metric : report) {
    std::printf("  %-24s %14.3f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  set-ups s");
  for (double seconds : setup_s) std::printf(" %.4f", seconds);
  std::printf("\n  per window: ops/s");
  for (double rate : window_rates) std::printf(" %.1f", rate);
  std::printf(", cycle p50 us");
  for (const Distribution& window : kinds["cycle"]) {
    std::printf(" %.1f", window.Quantile(0.5));
  }
  std::printf("\n");
  for (const auto& [kind, windows] : kinds) {
    uint64_t count = 0;
    for (const Distribution& window : windows) count += window.count;
    std::printf("  samples %-16s %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }

  std::vector<Metric> out = e2e;
  if (args.trace) {
    const double traced_ops = traced_requests / traced_seconds;
    const double untraced_ops = (requests - traced_requests) / untraced_seconds;
    layers["traced_ops"] = traced_ops;
    layers["untraced_ops"] = untraced_ops;
    out.clear();
    for (const auto& metric : kLayerMetrics) {
      const double sum = layers[metric.sum];
      const double value =
          metric.per == nullptr ? sum : Ratio(sum, layers[metric.per]);
      out.push_back({metric.name, value, metric.unit});
    }
    std::printf("traced: %.1f ops/s vs %.1f untraced\n", traced_ops,
                untraced_ops);
    for (const Metric& metric : out) {
      std::printf("  %-28s %14.3f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }

    // Self-time table: wrapper spans (`request`, `replay`) are listed but
    // never named the top layer.
    std::map<std::string, LayerTime> totals;
    std::vector<const SpanRecorder*> views;
    for (const auto& recorder : recorders) {
      views.push_back(recorder.get());
      for (const auto& [name, time] : recorder->totals()) {
        totals[name].calls += time.calls;
        totals[name].self_us += time.self_us;
      }
    }
    std::vector<std::pair<std::string, LayerTime>> rows(totals.begin(),
                                                        totals.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_us > b.second.self_us;
    });
    double all_us = 0;
    for (const auto& row : rows) all_us += row.second.self_us;
    std::printf("self time by layer (%s, %llu traced requests)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(traced_requests));
    std::printf("  %-20s %10s %16s %7s\n", "layer", "calls", "self_us/call",
                "share");
    std::string top;
    for (const auto& [name, time] : rows) {
      std::printf("  %-20s %10llu %16.3f %6.1f%%\n", name.c_str(),
                  static_cast<unsigned long long>(time.calls),
                  Ratio(time.self_us, time.calls),
                  100.0 * Ratio(time.self_us, all_us));
      if (top.empty() && name != "request" && name != "replay") top = name;
    }
    std::printf("top self-time layer: %s\n", top.c_str());
    const std::string path = (fs::path(args.out_dir) /
                              ("spans-" + args.workload + "-" +
                               std::to_string(args.seed) + ".jsonl"))
                                 .string();
    if (WriteSpans(path, views)) std::printf("spans: %s\n", path.c_str());
  }

  std::string line = "{\"correct\":";
  line += wrong == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(requests) +
          ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) line += ',';
    line += "\"" + out[i].name + "\":{\"value\":" + JsonNumber(out[i].value) +
            ",\"unit\":\"" + out[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
