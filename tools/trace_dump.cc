// trace_dump — structured tracing and provenance inspector for ordered
// logic programs.
//
// Usage:
//   trace_dump FILE [--module=NAME] [--why=LITERAL]... [--json]
//              [--events] [--strip-durations] [--stable] [--metrics]
//
// With no module given, the first declared component is used.
//
//   --why=LITERAL     derivation provenance for the literal: why it is
//                     true, false, or undefined in the module's least
//                     model. Human-readable by default; --json switches
//                     to the DerivationBuilder JSON schema (one line,
//                     deterministic — what the golden tests diff).
//   --events          stream every trace event (grounding, fixpoint
//                     rounds, rule statuses, solver search) to stdout as
//                     JSON lines, before the answers.
//   --strip-durations zero the duration_us field of streamed events so
//                     the event stream is byte-for-byte deterministic.
//   --stable          enumerate the module's stable models (Def. 9) and
//                     print each model's literals.
//   --metrics         print the query engine's metrics snapshot last.
//   --slow            record every engine query in the slow-query log
//                     (threshold 0) and dump the log as JSON last — the
//                     same document the /slowz statsz endpoint serves.
//                     With no --why, a count_models query is run so the
//                     log has at least one record.
//   --spans           trace every engine query with hierarchical spans
//                     (sample probability 1.0) and dump the trace-store
//                     list as JSON last — the same document the /tracez
//                     statsz endpoint serves. With no --why, a
//                     count_models query is run so the store has at
//                     least one trace.
//   --tree[=TRACE_ID] like --spans, but render human-readable span trees
//                     instead of JSON: every recorded trace, or just the
//                     one with the given 16-hex-digit id.
//   --tenant=NAME     label this engine's traces with tenant NAME and
//                     restrict --spans/--tree output to that tenant.

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/strings.h"
#include "core/stable_solver.h"
#include "kb/knowledge_base.h"
#include "obs/span.h"
#include "runtime/query_engine.h"
#include "trace/sink.h"

namespace {

struct Options {
  std::string file;
  std::optional<std::string> module;
  std::vector<std::string> whys;
  bool json = false;
  bool events = false;
  bool strip_durations = false;
  bool stable = false;
  bool metrics = false;
  bool slow = false;
  bool spans = false;
  bool tree = false;
  std::optional<std::string> tree_id;
  std::string tenant;
};

int Usage() {
  std::cerr << "usage: trace_dump FILE [--module=NAME] [--why=LITERAL]...\n"
            << "           [--json] [--events] [--strip-durations]\n"
            << "           [--stable] [--metrics] [--slow]\n"
            << "           [--spans] [--tree[=TRACE_ID]] [--tenant=NAME]\n";
  return 2;
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!ordlog::StartsWith(arg, "--")) {
      if (!options.file.empty()) return std::nullopt;
      options.file = arg;
    } else if (ordlog::StartsWith(arg, "--module=")) {
      options.module = arg.substr(9);
    } else if (ordlog::StartsWith(arg, "--why=")) {
      options.whys.push_back(arg.substr(6));
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--events") {
      options.events = true;
    } else if (arg == "--strip-durations") {
      options.strip_durations = true;
    } else if (arg == "--stable") {
      options.stable = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--slow") {
      options.slow = true;
    } else if (arg == "--spans") {
      options.spans = true;
    } else if (arg == "--tree") {
      options.tree = true;
    } else if (ordlog::StartsWith(arg, "--tree=")) {
      options.tree = true;
      options.tree_id = arg.substr(7);
    } else if (ordlog::StartsWith(arg, "--tenant=")) {
      options.tenant = arg.substr(9);
    } else {
      return std::nullopt;
    }
  }
  if (options.file.empty()) return std::nullopt;
  return options;
}

// Forwards events to `inner`, optionally zeroing wall times so that the
// streamed output is deterministic (for the golden tests).
class ForwardingSink : public ordlog::TraceSink {
 public:
  ForwardingSink(ordlog::TraceSink* inner, bool strip_durations)
      : inner_(inner), strip_durations_(strip_durations) {}

  void Emit(const ordlog::TraceEvent& event) override {
    ordlog::TraceEvent copy = event;
    if (strip_durations_) copy.duration_us = 0;
    inner_->Emit(copy);
  }

 private:
  ordlog::TraceSink* const inner_;
  const bool strip_durations_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = ParseArgs(argc, argv);
  if (!options.has_value()) return Usage();

  std::ifstream in(options->file);
  if (!in) {
    std::cerr << "trace_dump: cannot open " << options->file << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  ordlog::JsonLinesSink json_sink(std::cout);
  ForwardingSink sink(&json_sink, options->strip_durations);
  ordlog::TraceSink* const trace = options->events ? &sink : nullptr;

  ordlog::GrounderOptions grounder_options;
  grounder_options.trace = trace;
  ordlog::KnowledgeBase kb(grounder_options);
  const ordlog::Status status = kb.Load(buffer.str());
  if (!status.ok()) {
    std::cerr << "trace_dump: " << status << "\n";
    return 1;
  }
  if (kb.program().NumComponents() == 0) {
    std::cerr << "trace_dump: the program declares no components\n";
    return 1;
  }
  const std::string module =
      options->module.value_or(kb.program().component(0).name);
  if (!kb.HasModule(module)) {
    std::cerr << "trace_dump: no module named '" << module << "'\n";
    return 1;
  }

  ordlog::QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.trace = trace;
  if (options->slow) {
    // Threshold 0: every query qualifies, so the dump below always shows
    // the record schema (phase timings + captured trace events).
    engine_options.slow_query_threshold = std::chrono::microseconds(0);
  }
  if (options->spans || options->tree) {
    // Sample everything: a one-shot inspection tool wants every query's
    // trace, not a production sampling rate.
    engine_options.spans.enabled = true;
    engine_options.spans.sample_probability = 1.0;
  }
  engine_options.tenant_label = options->tenant;
  ordlog::QueryEngine engine(kb, engine_options);

  for (const std::string& literal : options->whys) {
    ordlog::QueryRequest request;
    request.module = module;
    request.literal = literal;
    request.mode = ordlog::QueryMode::kSkeptical;
    request.explain = true;
    const ordlog::StatusOr<ordlog::QueryAnswer> answer =
        engine.Execute(std::move(request));
    if (!answer.ok()) {
      std::cerr << "trace_dump: " << answer.status() << "\n";
      return 1;
    }
    if (options->json) {
      std::cout << answer->explanation << "\n";
    } else {
      std::cout << "why " << literal << " in " << module << ": "
                << ordlog::TruthValueToString(answer->truth) << "\n";
      const ordlog::StatusOr<std::string> text = kb.Explain(module, literal);
      if (!text.ok()) {
        std::cerr << "trace_dump: " << text.status() << "\n";
        return 1;
      }
      std::cout << *text;
    }
  }

  if (options->stable) {
    const ordlog::StatusOr<const ordlog::GroundProgram*> ground = kb.ground();
    if (!ground.ok()) {
      std::cerr << "trace_dump: " << ground.status() << "\n";
      return 1;
    }
    const ordlog::StatusOr<ordlog::ComponentId> view =
        kb.program().FindComponent(module);
    if (!view.ok()) {
      std::cerr << "trace_dump: " << view.status() << "\n";
      return 1;
    }
    ordlog::StableSolverOptions solver_options;
    solver_options.trace = trace;
    ordlog::StableModelSolver solver(**ground, *view, solver_options);
    const ordlog::StatusOr<std::vector<ordlog::Interpretation>> models =
        solver.StableModels();
    if (!models.ok()) {
      std::cerr << "trace_dump: " << models.status() << "\n";
      return 1;
    }
    std::cout << "stable models of " << module << ": " << models->size()
              << "\n";
    for (size_t m = 0; m < models->size(); ++m) {
      std::cout << "model " << (m + 1) << ":";
      for (const ordlog::GroundLiteral& literal : (*models)[m].Literals()) {
        std::cout << " " << (*ground)->LiteralToString(literal);
      }
      std::cout << "\n";
    }
  }

  if ((options->slow || options->spans || options->tree) &&
      options->whys.empty()) {
    // Run one query so the slow log / trace store is never empty.
    ordlog::QueryRequest request;
    request.module = module;
    request.mode = ordlog::QueryMode::kCountModels;
    const ordlog::StatusOr<ordlog::QueryAnswer> answer =
        engine.Execute(std::move(request));
    if (!answer.ok()) {
      std::cerr << "trace_dump: " << answer.status() << "\n";
      return 1;
    }
  }

  if (options->slow) {
    std::cout << engine.slow_query_log()->RenderJson() << "\n";
  }

  if (options->tree) {
    const ordlog::TraceStore* store = engine.trace_store();
    if (options->tree_id.has_value()) {
      const std::optional<uint64_t> trace_id =
          ordlog::TraceIdFromHex(*options->tree_id);
      if (!trace_id.has_value()) {
        std::cerr << "trace_dump: bad trace id '" << *options->tree_id
                  << "' (want 16 hex digits)\n";
        return 1;
      }
      const std::optional<ordlog::TraceRecord> record = store->Find(*trace_id);
      if (!record.has_value()) {
        std::cerr << "trace_dump: no trace " << *options->tree_id
                  << " in the store\n";
        return 1;
      }
      std::cout << ordlog::RenderSpanTree(*record);
    } else {
      for (const ordlog::TraceRecord& record :
           store->Records(options->tenant)) {
        std::cout << ordlog::RenderSpanTree(record);
      }
    }
  } else if (options->spans) {
    std::cout << engine.trace_store()->ListJson(options->tenant) << "\n";
  }

  if (options->metrics) {
    std::cout << engine.Metrics().ToString() << "\n";
  }
  return 0;
}
