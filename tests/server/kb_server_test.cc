// End-to-end tests for the multi-tenant KB server: the JSON wire
// protocol (admin + tenant endpoints), status-code mapping, admission
// control, durability across a server restart, and the JSON reader the
// protocol is built on.

#include "server/kb_server.h"

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "server/admission.h"
#include "server/json_value.h"
#include "server/kb_registry.h"

namespace ordlog {
namespace {

namespace fs = std::filesystem;

HttpRequest Post(const std::string& path, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = body;
  return request;
}

HttpRequest Get(const std::string& path, const std::string& query = "") {
  HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.query = query;
  return request;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class KbServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ordlog_kb_server_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  KbServerOptions Options() const {
    KbServerOptions options;
    options.registry.data_dir = dir_ + "/data";
    options.registry.snapshot_every = 0;  // rotate only when a test asks
    return options;
  }

  // Builds the little ordered-logic KB the paper's examples use:
  // birds fly, penguins are birds, antarctic overrules fly for penguins.
  void SeedOrderedKb(KbServer& server, const std::string& tenant) {
    ASSERT_EQ(
        server.Handle(Post("/v1/admin/create", "{\"tenant\":\"" + tenant +
                                                   "\"}"))
            .code,
        200);
    const HttpResponse response = server.Handle(Post(
        "/v1/" + tenant + "/mutate",
        R"json({"ops":[
             {"op":"add_module","module":"animals"},
             {"op":"add_rule","module":"animals","text":"fly(X) :- bird(X)."},
             {"op":"add_rule","module":"animals","text":"bird(X) :- penguin(X)."},
             {"op":"add_fact","module":"animals","text":"bird(tweety)"},
             {"op":"add_module","module":"antarctic"},
             {"op":"add_isa","module":"antarctic","text":"animals"},
             {"op":"add_rule","module":"antarctic","text":"-fly(X) :- penguin(X)."},
             {"op":"add_fact","module":"antarctic","text":"penguin(pingu)"}
           ]})json"));
    ASSERT_EQ(response.code, 200) << response.body;
  }

  std::string dir_;
};

// --- JsonValue ------------------------------------------------------------

TEST(JsonValueTest, ParsesScalarsObjectsAndArrays) {
  StatusOr<JsonValue> value = JsonValue::Parse(
      R"json({"s":"hi","n":-2.5,"b":true,"z":null,"a":[1,"two",false],"o":{"k":"v"}})json");
  ASSERT_TRUE(value.ok()) << value.status().message();
  ASSERT_TRUE(value->is_object());
  EXPECT_EQ(value->Find("s")->string_value(), "hi");
  EXPECT_EQ(value->Find("n")->number_value(), -2.5);
  EXPECT_TRUE(value->Find("b")->bool_value());
  EXPECT_TRUE(value->Find("z")->is_null());
  ASSERT_TRUE(value->Find("a")->is_array());
  EXPECT_EQ(value->Find("a")->array_items().size(), 3u);
  EXPECT_EQ(value->Find("o")->Find("k")->string_value(), "v");
  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(JsonValueTest, ParsesStringEscapes) {
  StatusOr<JsonValue> value =
      JsonValue::Parse(R"json({"s":"a\"b\\c\/d\n\tA"})json");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("s")->string_value(), "a\"b\\c/d\n\tA");
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1 2]").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("truu").ok());
  // Depth cap: 70 nested arrays exceeds the 64-level limit.
  std::string deep(70, '[');
  deep += std::string(70, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonValueTest, TypedAccessorsFallBackAndRejectWrongTypes) {
  StatusOr<JsonValue> value =
      JsonValue::Parse(R"json({"s":"text","n":42,"b":true})json");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->GetString("s", "dflt").value(), "text");
  EXPECT_EQ(value->GetString("absent", "dflt").value(), "dflt");
  EXPECT_EQ(value->GetInt("n", 0).value(), 42);
  EXPECT_EQ(value->GetInt("absent", 7).value(), 7);
  EXPECT_TRUE(value->GetBool("b", false).value());
  // Present with the wrong type is an error, not a fallback.
  EXPECT_FALSE(value->GetString("n", "dflt").ok());
  EXPECT_FALSE(value->GetInt("s", 0).ok());
  EXPECT_FALSE(value->GetBool("n", false).ok());
}

// --- status mapping & names ----------------------------------------------

TEST(HttpCodeForStatusTest, MapsTheLibraryErrorSpace) {
  EXPECT_EQ(HttpCodeForStatus(Status::Ok()), 200);
  EXPECT_EQ(HttpCodeForStatus(InvalidArgumentError("x")), 400);
  EXPECT_EQ(HttpCodeForStatus(NotFoundError("x")), 404);
  EXPECT_EQ(HttpCodeForStatus(AlreadyExistsError("x")), 409);
  EXPECT_EQ(HttpCodeForStatus(FailedPreconditionError("x")), 409);
  EXPECT_EQ(HttpCodeForStatus(ResourceExhaustedError("x")), 429);
  EXPECT_EQ(HttpCodeForStatus(DeadlineExceededError("x")), 504);
  EXPECT_EQ(HttpCodeForStatus(InternalError("x")), 500);
}

TEST(TenantNameTest, ValidatesAndBlocksPathTraversal) {
  EXPECT_TRUE(IsValidTenantName("t1"));
  EXPECT_TRUE(IsValidTenantName("my-tenant_2"));
  EXPECT_FALSE(IsValidTenantName(""));
  EXPECT_FALSE(IsValidTenantName("Upper"));
  EXPECT_FALSE(IsValidTenantName("has space"));
  EXPECT_FALSE(IsValidTenantName("../escape"));
  EXPECT_FALSE(IsValidTenantName("a/b"));
  EXPECT_FALSE(IsValidTenantName(std::string(65, 'a')));
}

// --- admission controller -------------------------------------------------

TEST(AdmissionControllerTest, EnforcesTenantAndGlobalQuotas) {
  AdmissionOptions options;
  options.tenant_max_inflight = 2;
  options.global_max_inflight = 3;
  options.retry_after_seconds = 7;
  AdmissionController admission(options, nullptr);
  std::atomic<uint64_t> tenant_a{0};
  std::atomic<uint64_t> tenant_b{0};

  EXPECT_TRUE(admission.TryEnter("a", tenant_a).admitted);
  EXPECT_TRUE(admission.TryEnter("a", tenant_a).admitted);
  // Third request for tenant a: per-tenant quota.
  const AdmissionDecision tenant_reject = admission.TryEnter("a", tenant_a);
  EXPECT_FALSE(tenant_reject.admitted);
  EXPECT_EQ(tenant_reject.http_code, 429);
  EXPECT_EQ(tenant_reject.reason, "tenant_quota");
  EXPECT_EQ(tenant_reject.retry_after_seconds, 7);
  // The rejection must not leak a global slot: b still fits one...
  EXPECT_TRUE(admission.TryEnter("b", tenant_b).admitted);
  // ...and the next hits the global ceiling.
  const AdmissionDecision global_reject = admission.TryEnter("b", tenant_b);
  EXPECT_FALSE(global_reject.admitted);
  EXPECT_EQ(global_reject.http_code, 503);
  EXPECT_EQ(global_reject.reason, "global_quota");
  EXPECT_EQ(admission.global_inflight(), 3u);

  admission.Exit(tenant_a);
  admission.Exit(tenant_a);
  admission.Exit(tenant_b);
  EXPECT_EQ(admission.global_inflight(), 0u);
  EXPECT_EQ(tenant_a.load(), 0u);
  EXPECT_TRUE(admission.TryEnter("a", tenant_a).admitted);
  admission.Exit(tenant_a);
}

TEST(AdmissionControllerTest, ZeroMeansUnlimited) {
  AdmissionOptions options;
  options.tenant_max_inflight = 0;
  options.global_max_inflight = 0;
  AdmissionController admission(options, nullptr);
  std::atomic<uint64_t> inflight{0};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(admission.TryEnter("t", inflight).admitted);
  }
  EXPECT_EQ(inflight.load(), 1000u);
}

// --- admin surface --------------------------------------------------------

TEST_F(KbServerTest, CreateListDropLifecycle) {
  KbServer server(Options());
  HttpResponse response =
      server.Handle(Post("/v1/admin/create", "{\"tenant\":\"t1\"}"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"tenant\":\"t1\""));
  EXPECT_TRUE(Contains(response.body, "\"recovered\":false"));
  EXPECT_TRUE(fs::exists(dir_ + "/data/t1"));

  ASSERT_EQ(
      server.Handle(Post("/v1/admin/create", "{\"tenant\":\"t2\"}")).code,
      200);
  response = server.Handle(Get("/v1/admin/list"));
  EXPECT_EQ(response.code, 200);
  EXPECT_EQ(response.body, "{\"tenants\":[\"t1\",\"t2\"]}");

  response = server.Handle(Post("/v1/admin/drop", "{\"tenant\":\"t1\"}"));
  EXPECT_EQ(response.code, 200);
  EXPECT_FALSE(fs::exists(dir_ + "/data/t1"));  // drop deletes data
  response = server.Handle(Get("/v1/admin/list"));
  EXPECT_EQ(response.body, "{\"tenants\":[\"t2\"]}");
}

TEST_F(KbServerTest, AdminValidation) {
  KbServer server(Options());
  // Duplicate create.
  ASSERT_EQ(server.Handle(Post("/v1/admin/create", "{\"tenant\":\"t\"}")).code,
            200);
  EXPECT_EQ(server.Handle(Post("/v1/admin/create", "{\"tenant\":\"t\"}")).code,
            409);
  // Bad names.
  EXPECT_EQ(
      server.Handle(Post("/v1/admin/create", "{\"tenant\":\"../oops\"}")).code,
      400);
  EXPECT_EQ(server.Handle(Post("/v1/admin/create", "{}")).code, 400);
  EXPECT_EQ(server.Handle(Post("/v1/admin/create", "not json")).code, 400);
  // GET on a mutating admin endpoint.
  EXPECT_EQ(server.Handle(Get("/v1/admin/create")).code, 400);
  // Unknown admin verb / malformed paths.
  EXPECT_EQ(server.Handle(Post("/v1/admin/frob", "{}")).code, 404);
  EXPECT_EQ(server.Handle(Get("/v1/justone")).code, 404);
  EXPECT_EQ(server.Handle(Get("/v1/a/b/c")).code, 404);
  // Dropping an unknown tenant.
  EXPECT_EQ(server.Handle(Post("/v1/admin/drop", "{\"tenant\":\"nope\"}")).code,
            404);
}

TEST_F(KbServerTest, TenantCapReturns429) {
  KbServerOptions options = Options();
  options.registry.max_tenants = 1;
  KbServer server(options);
  ASSERT_EQ(server.Handle(Post("/v1/admin/create", "{\"tenant\":\"a\"}")).code,
            200);
  EXPECT_EQ(server.Handle(Post("/v1/admin/create", "{\"tenant\":\"b\"}")).code,
            429);
}

// --- tenant surface -------------------------------------------------------

TEST_F(KbServerTest, QueryAnswersOrderedLogicThroughTheWire) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");

  // Inherited default: tweety flies in animals.
  HttpResponse response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"animals","literal":"fly(tweety)"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"mode\":\"skeptical\""));
  EXPECT_TRUE(Contains(response.body, "\"truth\":\"true\""));
  EXPECT_TRUE(Contains(response.body, "\"revision\":"));

  // Overruling: the antarctic module knows penguins don't fly.
  response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"antarctic","literal":"fly(pingu)"})json"));
  ASSERT_EQ(response.code, 200);
  EXPECT_TRUE(Contains(response.body, "\"truth\":\"false\""));

  // The general module has no opinion about pingu.
  response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"animals","literal":"fly(pingu)"})json"));
  ASSERT_EQ(response.code, 200);
  EXPECT_TRUE(Contains(response.body, "\"truth\":\"undefined\""));

  // Stable-model modes.
  response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"antarctic","literal":"-fly(pingu)","mode":"brave"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"holds\":true"));
  response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"antarctic","mode":"count_models"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"model_count\":"));
}

TEST_F(KbServerTest, SecondQueryIsACacheHit) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");
  const std::string body = R"json({"module":"animals","literal":"fly(tweety)"})json";
  HttpResponse response = server.Handle(Post("/v1/zoo/query", body));
  ASSERT_EQ(response.code, 200);
  response = server.Handle(Post("/v1/zoo/query", body));
  ASSERT_EQ(response.code, 200);
  EXPECT_TRUE(Contains(response.body, "\"cache_hit\":true")) << response.body;
}

TEST_F(KbServerTest, ExplainEndpointEmbedsDerivation) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");
  const HttpResponse response = server.Handle(
      Post("/v1/zoo/explain",
           R"json({"module":"animals","literal":"fly(tweety)"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"explanation\":")) << response.body;
}

TEST_F(KbServerTest, FactsAndStatusEndpoints) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");
  HttpResponse response = server.Handle(Get("/v1/zoo/facts", "module=animals"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"bird(tweety)\""));
  EXPECT_TRUE(Contains(response.body, "\"fly(tweety)\""));

  // No module param lists the modules.
  response = server.Handle(Get("/v1/zoo/facts"));
  ASSERT_EQ(response.code, 200);
  EXPECT_TRUE(Contains(response.body, "\"animals\""));
  EXPECT_TRUE(Contains(response.body, "\"antarctic\""));

  response = server.Handle(Get("/v1/zoo/status"));
  ASSERT_EQ(response.code, 200);
  EXPECT_TRUE(Contains(response.body, "\"tenant\":\"zoo\""));
  EXPECT_TRUE(Contains(response.body, "\"durable\":true"));
  EXPECT_TRUE(Contains(response.body, "\"wal_records\":1"));
  EXPECT_TRUE(Contains(response.body, "\"inflight\":0"));
}

TEST_F(KbServerTest, MutationsCountOnlyRevisionChanges) {
  KbServer server(Options());
  ASSERT_EQ(server.Handle(Post("/v1/admin/create", "{\"tenant\":\"zoo\"}"))
                .code,
            200);
  // One durable request, two revision changes: the module, then the fact
  // batch. Its snapshot-rotation check reads the KB and changes nothing.
  const HttpResponse mutated = server.Handle(Post(
      "/v1/zoo/mutate", R"json({"ops":[
           {"op":"add_module","module":"m"},
           {"op":"add_fact","module":"m","text":"p(a)"}
         ]})json"));
  ASSERT_EQ(mutated.code, 200) << mutated.body;
  // /facts reads run on the engine's writer path too; they are not
  // mutations either.
  ASSERT_EQ(server.Handle(Get("/v1/zoo/facts", "module=m")).code, 200);
  ASSERT_EQ(server.Handle(Get("/v1/zoo/facts")).code, 200);

  StatusOr<TenantLease> lease = server.registry().Acquire("zoo");
  ASSERT_TRUE(lease.ok()) << lease.status();
  EXPECT_EQ((*lease)->engine->Metrics().mutations, 2u);
}

TEST_F(KbServerTest, TenantMetricsAndSlowLogBypassAdmission) {
  KbServerOptions options = Options();
  options.admission.tenant_max_inflight = 1;
  KbServer server(options);
  SeedOrderedKb(server, "zoo");

  // Saturate the tenant quota artificially.
  StatusOr<TenantLease> lease = server.registry().Acquire("zoo");
  ASSERT_TRUE(lease.ok());
  (*lease)->inflight.store(1);

  EXPECT_EQ(server.Handle(Get("/v1/zoo/metricsz")).code, 200);
  EXPECT_EQ(server.Handle(Get("/v1/zoo/status")).code, 200);
  EXPECT_EQ(server.Handle(Get("/v1/zoo/slowz")).code, 200);
  (*lease)->inflight.store(0);
}

TEST_F(KbServerTest, TenantQuotaRejectsWithRetryAfter) {
  KbServerOptions options = Options();
  options.admission.tenant_max_inflight = 1;
  options.admission.retry_after_seconds = 3;
  KbServer server(options);
  SeedOrderedKb(server, "zoo");

  StatusOr<TenantLease> lease = server.registry().Acquire("zoo");
  ASSERT_TRUE(lease.ok());
  (*lease)->inflight.store(1);
  const HttpResponse rejected = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"animals","literal":"fly(tweety)"})json"));
  EXPECT_EQ(rejected.code, 429);
  EXPECT_TRUE(Contains(rejected.body, "tenant_quota"));
  bool saw_retry_after = false;
  for (const auto& [name, value] : rejected.headers) {
    if (name == "Retry-After") {
      saw_retry_after = true;
      EXPECT_EQ(value, "3");
    }
  }
  EXPECT_TRUE(saw_retry_after);

  (*lease)->inflight.store(0);
  EXPECT_EQ(server
                .Handle(Post("/v1/zoo/query",
                             R"json({"module":"animals","literal":"fly(tweety)"})json"))
                .code,
            200);
}

TEST_F(KbServerTest, ExpiredDeadlineMapsTo504) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");
  const HttpResponse response = server.Handle(Post(
      "/v1/zoo/query",
      R"json({"module":"animals","literal":"fly(tweety)","deadline_ms":-1})json"));
  EXPECT_EQ(response.code, 504) << response.body;
}

TEST_F(KbServerTest, OutOfRangeIntegerLiteralIsRejected) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");
  // Larger than INT64_MAX: a client error, never a wrapped-around answer.
  const HttpResponse response = server.Handle(Post(
      "/v1/zoo/query",
      R"json({"module":"animals","literal":"p(99999999999999999999)"})json"));
  EXPECT_EQ(response.code, 400) << response.body;
  EXPECT_TRUE(Contains(response.body, "exceeds")) << response.body;
}

TEST_F(KbServerTest, RequestValidationErrors) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");
  // Unknown tenant.
  EXPECT_EQ(server
                .Handle(Post("/v1/ghost/query",
                             R"json({"module":"m","literal":"p(a)"})json"))
                .code,
            404);
  // Unknown tenant verb.
  EXPECT_EQ(server.Handle(Get("/v1/zoo/frobnicate")).code, 404);
  // Missing fields.
  EXPECT_EQ(server.Handle(Post("/v1/zoo/query", "{}")).code, 400);
  EXPECT_EQ(
      server.Handle(Post("/v1/zoo/query", R"json({"module":"animals"})json")).code,
      400);
  // Wrong field type.
  EXPECT_EQ(server
                .Handle(Post("/v1/zoo/query",
                             R"json({"module":42,"literal":"p(a)"})json"))
                .code,
            400);
  // Bad mode.
  EXPECT_EQ(
      server
          .Handle(Post(
              "/v1/zoo/query",
              R"json({"module":"animals","literal":"fly(tweety)","mode":"psychic"})json"))
          .code,
      400);
  // A deadline too large to add to a clock reading.
  EXPECT_EQ(
      server
          .Handle(Post(
              "/v1/zoo/query",
              R"json({"module":"animals","literal":"fly(tweety)","deadline_ms":9000000000000000000})json"))
          .code,
      400);
  // GET where POST is required.
  EXPECT_EQ(server.Handle(Get("/v1/zoo/query")).code, 400);
  // Mutate validation.
  EXPECT_EQ(server.Handle(Post("/v1/zoo/mutate", "{}")).code, 400);
  EXPECT_EQ(server.Handle(Post("/v1/zoo/mutate", R"json({"ops":[]})json")).code, 400);
  EXPECT_EQ(
      server
          .Handle(Post("/v1/zoo/mutate",
                       R"json({"ops":[{"op":"transmogrify","module":"m","text":"x"}]})json"))
          .code,
      400);
  EXPECT_EQ(server
                .Handle(Post("/v1/zoo/mutate",
                             R"json({"ops":[{"op":"add_fact","module":"m"}]})json"))
                .code,
            400);
}

TEST_F(KbServerTest, MutationsSurviveServerRestart) {
  {
    KbServer server(Options());
    SeedOrderedKb(server, "zoo");
    // Server goes away without ever snapshotting: WAL is all there is.
  }
  KbServer server(Options());
  // Create on an existing directory recovers it.
  const HttpResponse created =
      server.Handle(Post("/v1/admin/create", "{\"tenant\":\"zoo\"}"));
  ASSERT_EQ(created.code, 200) << created.body;
  EXPECT_TRUE(Contains(created.body, "\"recovered\":true"));
  EXPECT_TRUE(Contains(created.body, "\"wal_records\":1"));
  EXPECT_TRUE(Contains(created.body, "\"wal_clean\":true"));

  const HttpResponse response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"antarctic","literal":"fly(pingu)"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"truth\":\"false\""));
}

TEST_F(KbServerTest, HostileNestingIsRejectedAndReplaySkipsIt) {
  // A 100k-deep term is logged to the WAL before the apply step parses
  // it; it must be a 400 live and a skipped op on replay, never a crash
  // (which the replay would repeat on every restart).
  std::string term;
  for (int i = 0; i < 100'000; ++i) term += "f(";
  term += "a";
  term.append(100'000, ')');
  {
    KbServer server(Options());
    SeedOrderedKb(server, "zoo");
    const HttpResponse response = server.Handle(
        Post("/v1/zoo/mutate",
             R"json({"ops":[{"op":"add_fact","module":"animals","text":"bird()json" +
                 term + R"json()"}]})json"));
    EXPECT_EQ(response.code, 400) << response.body.substr(0, 200);
    EXPECT_TRUE(Contains(response.body, "nesting deeper than"));
  }
  KbServer server(Options());
  const HttpResponse created =
      server.Handle(Post("/v1/admin/create", "{\"tenant\":\"zoo\"}"));
  ASSERT_EQ(created.code, 200) << created.body;
  EXPECT_TRUE(Contains(created.body, "\"recovered\":true"));
  const HttpResponse response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"antarctic","literal":"fly(pingu)"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"truth\":\"false\""));
}

TEST_F(KbServerTest, RecoverAllFindsTenantsOnStartup) {
  {
    KbServer server(Options());
    SeedOrderedKb(server, "zoo");
  }
  KbServer server(Options());
  ASSERT_TRUE(server.registry().RecoverAll().ok());
  EXPECT_EQ(server.registry().List(), std::vector<std::string>{"zoo"});
  const HttpResponse response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"animals","literal":"fly(tweety)"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"truth\":\"true\""));
}

TEST_F(KbServerTest, InMemoryTenantsWorkWithoutDataDir) {
  KbServerOptions options;
  options.registry.data_dir = "";  // durability disabled
  KbServer server(options);
  SeedOrderedKb(server, "mem");
  HttpResponse response = server.Handle(Get("/v1/mem/status"));
  ASSERT_EQ(response.code, 200);
  EXPECT_TRUE(Contains(response.body, "\"durable\":false"));
  response = server.Handle(
      Post("/v1/mem/query",
           R"json({"module":"antarctic","literal":"fly(pingu)"})json"));
  ASSERT_EQ(response.code, 200);
  EXPECT_TRUE(Contains(response.body, "\"truth\":\"false\""));
}

TEST_F(KbServerTest, ServerMetricsCountTraffic) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");
  ASSERT_EQ(server
                .Handle(Post("/v1/zoo/query",
                             R"json({"module":"animals","literal":"fly(tweety)"})json"))
                .code,
            200);
  const std::string rendered = server.metrics().RenderPrometheus();
  EXPECT_TRUE(Contains(rendered, "ordlog_server_requests_total"));
  EXPECT_TRUE(Contains(rendered, "ordlog_server_responses_total"));
  EXPECT_TRUE(Contains(rendered, "ordlog_server_wal_records_total"));
  EXPECT_TRUE(Contains(rendered, "ordlog_server_tenants"));
  EXPECT_TRUE(Contains(rendered, "tenant=\"zoo\""));
}

TEST_F(KbServerTest, SnapshotRotationOverTheWire) {
  KbServerOptions options = Options();
  options.registry.snapshot_every = 2;
  KbServer server(options);
  ASSERT_EQ(server.Handle(Post("/v1/admin/create", "{\"tenant\":\"t\"}")).code,
            200);
  ASSERT_EQ(
      server
          .Handle(Post("/v1/t/mutate",
                       R"json({"ops":[{"op":"add_module","module":"m"}]})json"))
          .code,
      200);
  const HttpResponse second = server.Handle(
      Post("/v1/t/mutate",
           R"json({"ops":[{"op":"add_fact","module":"m","text":"p(a)"}]})json"));
  ASSERT_EQ(second.code, 200);
  // Second record hit snapshot_every=2: rotated to epoch 1, fresh WAL.
  EXPECT_TRUE(Contains(second.body, "\"epoch\":1")) << second.body;
  EXPECT_TRUE(Contains(second.body, "\"wal_records\":0")) << second.body;
  EXPECT_TRUE(fs::exists(dir_ + "/data/t/snapshot-1"));
  EXPECT_FALSE(fs::exists(dir_ + "/data/t/wal-0"));

  const std::string rendered = server.metrics().RenderPrometheus();
  EXPECT_TRUE(Contains(rendered, "ordlog_server_snapshots_total"));
}

// --- Spans, usage attribution, readiness ----------------------------------

// Pulls the 16-hex-digit trace id out of a JSON body ("" if absent).
std::string ExtractTraceId(const std::string& body) {
  const std::string key = "\"trace_id\":\"";
  const size_t at = body.find(key);
  if (at == std::string::npos) return "";
  return body.substr(at + key.size(), 16);
}

// Parses the integer value of "<key>":<n> from a JSON body (0 if absent).
uint64_t ExtractUint(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

TEST_F(KbServerTest, QueryTraceIsFetchableFromTracez) {
  KbServerOptions options = Options();
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  KbServer server(options);
  SeedOrderedKb(server, "zoo");

  const HttpResponse response = server.Handle(
      Post("/v1/zoo/query",
           R"json({"module":"antarctic","literal":"fly(pingu)"})json"));
  ASSERT_EQ(response.code, 200) << response.body;
  const std::string trace_id = ExtractTraceId(response.body);
  ASSERT_EQ(trace_id.size(), 16u) << response.body;

  // The id returned in the response resolves on /tracez to the complete
  // span tree: server phases wrap the engine phases.
  const HttpResponse full =
      server.Handle(Get("/tracez", "trace_id=" + trace_id));
  ASSERT_EQ(full.code, 200) << full.body;
  EXPECT_TRUE(Contains(full.body, "\"tenant\":\"zoo\"")) << full.body;
  EXPECT_TRUE(Contains(full.body, "\"endpoint\":\"query\""));
  for (const std::string span :
       {"request", "admission", "query", "snapshot", "resolve"}) {
    EXPECT_TRUE(Contains(full.body, "\"name\":\"" + span + "\""))
        << "missing span " << span << " in " << full.body;
  }

  // The list view carries the same id, and the span metrics counted it.
  EXPECT_TRUE(Contains(server.Handle(Get("/tracez")).body, trace_id));
  const std::string metrics = server.metrics().RenderPrometheus();
  EXPECT_TRUE(
      Contains(metrics, "ordlog_span_traces_total{reason=\"sampled\"}"))
      << metrics;
  EXPECT_TRUE(Contains(metrics, "ordlog_span_spans_total"));
}

TEST_F(KbServerTest, MutateTraceCarriesWalAndApplySpans) {
  KbServerOptions options = Options();
  options.spans.enabled = true;
  options.spans.sample_probability = 1.0;
  KbServer server(options);
  // SeedOrderedKb issues exactly one tenant mutate, so the store holds
  // exactly that trace (admin/create is not a tenant request).
  SeedOrderedKb(server, "zoo");

  const HttpResponse list = server.Handle(Get("/tracez"));
  ASSERT_EQ(list.code, 200);
  const std::string trace_id = ExtractTraceId(list.body);
  ASSERT_EQ(trace_id.size(), 16u) << list.body;

  const HttpResponse full =
      server.Handle(Get("/tracez", "trace_id=" + trace_id));
  ASSERT_EQ(full.code, 200) << full.body;
  EXPECT_TRUE(Contains(full.body, "\"endpoint\":\"mutate\"")) << full.body;
  for (const std::string span : {"request", "wal_append", "apply",
                                 "snapshot"}) {
    EXPECT_TRUE(Contains(full.body, "\"name\":\"" + span + "\""))
        << "missing span " << span << " in " << full.body;
  }
  // The WAL span carries the payload size as a typed attribute.
  EXPECT_TRUE(Contains(full.body, "\"bytes\"")) << full.body;
}

TEST_F(KbServerTest, UsagezTotalsMatchWorkload) {
  KbServer server(Options());
  SeedOrderedKb(server, "zoo");  // one mutation through the WAL
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        server
            .Handle(Post(
                "/v1/zoo/query",
                R"json({"module":"animals","literal":"fly(tweety)"})json"))
            .code,
        200);
  }
  // One failing query: unknown module, still billed to the tenant.
  EXPECT_NE(server
                .Handle(Post("/v1/zoo/query",
                             R"json({"module":"nope","literal":"p(a)"})json"))
                .code,
            200);

  const HttpResponse usage = server.Handle(Get("/v1/zoo/usagez"));
  ASSERT_EQ(usage.code, 200) << usage.body;
  EXPECT_TRUE(Contains(usage.body, "\"tenant\":\"zoo\""));
  EXPECT_EQ(ExtractUint(usage.body, "queries_ok"), 3u) << usage.body;
  EXPECT_EQ(ExtractUint(usage.body, "queries_failed"), 1u) << usage.body;
  EXPECT_EQ(ExtractUint(usage.body, "mutations"), 1u);
  EXPECT_EQ(ExtractUint(usage.body, "wal_records"), 1u);
  EXPECT_GT(ExtractUint(usage.body, "wal_bytes"), 0u);
  EXPECT_GT(ExtractUint(usage.body, "wall_us"), 0u);
  // The cold first query grounded and evaluated; the warm repeats were
  // cache hits and billed zero work, so the totals stay small but nonzero.
  EXPECT_GT(ExtractUint(usage.body, "ground_rules"), 0u);
  EXPECT_GT(ExtractUint(usage.body, "eval_rounds"), 0u);

  const std::string metrics = server.metrics().RenderPrometheus();
  EXPECT_TRUE(Contains(
      metrics, "ordlog_tenant_queries_total{tenant=\"zoo\",status=\"ok\"} 3"))
      << metrics;
  EXPECT_TRUE(Contains(metrics,
                       "ordlog_tenant_queries_total{tenant=\"zoo\","
                       "status=\"failed\"} 1"));
  EXPECT_TRUE(Contains(metrics,
                       "ordlog_tenant_mutations_total{tenant=\"zoo\"} 1"));
  EXPECT_TRUE(Contains(
      metrics, "ordlog_tenant_work_total{tenant=\"zoo\",kind=\"ground_rules\"}"));
  EXPECT_TRUE(Contains(metrics, "ordlog_tenant_wal_bytes{tenant=\"zoo\"}"));
}

TEST_F(KbServerTest, ReadyzReports503UntilRecoveryCompletes) {
  {
    KbServer server(Options());
    SeedOrderedKb(server, "zoo");  // leave a tenant on disk to recover
  }
  KbServerOptions options = Options();
  options.port = 0;
  KbServer server(options);
  // Routes answer before Start(): health is up, readiness is not.
  EXPECT_EQ(server.Handle(Get("/healthz")).code, 200);
  EXPECT_EQ(server.Handle(Get("/readyz")).code, 503);
  ASSERT_TRUE(server.Start().ok());
  // Start() returned, so WAL recovery finished and readiness flipped.
  EXPECT_EQ(server.Handle(Get("/readyz")).code, 200);
  EXPECT_EQ(server.registry().List(), std::vector<std::string>{"zoo"});
  server.Stop();
  EXPECT_EQ(server.Handle(Get("/readyz")).code, 503);
}

TEST_F(KbServerTest, ServesOverRealSockets) {
  KbServerOptions options = Options();
  options.port = 0;
  KbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  // The statsz surface is mounted on the same server.
  EXPECT_EQ(server.Handle(Get("/healthz")).code, 200);
  server.Stop();
  server.Stop();  // idempotent
}

}  // namespace
}  // namespace ordlog
