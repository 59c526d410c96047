// kbserver: the multi-tenant ordered-logic KB service (docs/SERVER.md).
//
//   kbserver --data-dir=/var/lib/ordlog --port=7341
//
// Serves the /v1/ wire protocol plus the statsz surface on one loopback
// port. Runs until SIGINT/SIGTERM (or --serve-seconds for scripted runs).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "base/build_info.h"
#include "base/strings.h"
#include "server/kb_server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t name_len = std::strlen(name);
  if (std::strncmp(arg, name, name_len) != 0 || arg[name_len] != '=') {
    return false;
  }
  *value = arg + name_len + 1;
  return true;
}

// Parses all of `value` as a T in [min, max] into `*out`; false (and
// `*out` untouched) on anything else, NaN included.
template <typename T>
bool ParseInRange(const std::string& value, T min, T max, T* out) {
  const std::optional<T> parsed = ordlog::ParseNumber<T>(value);
  if (!parsed.has_value() || !(*parsed >= min && *parsed <= max)) {
    return false;
  }
  *out = *parsed;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N] [--data-dir=PATH] [--workers=N]\n"
      "          [--search-threads=N] [--tenant-max-inflight=N]\n"
      "          [--global-max-inflight=N] [--snapshot-every=N]\n"
      "          [--default-deadline-ms=N] [--slow-query-threshold-us=N]\n"
      "          [--serve-seconds=N] [--spans] [--span-sample=P]\n"
      "          [--version]\n"
      "\n"
      "Serves the ordlog KB wire protocol (docs/SERVER.md) on 127.0.0.1.\n"
      "--port=0 (default) picks an ephemeral port, printed on stdout.\n"
      "Without --data-dir tenants are in-memory only (no WAL).\n"
      "--search-threads=N lets one query's stable-model search fan out\n"
      "across N engine workers (default 1: sequential search).\n"
      "--spans enables request-span tracing (/tracez); --span-sample sets\n"
      "the head-sampling probability (default 0.01; slow queries are\n"
      "always kept).\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr size_t kMaxSize = std::numeric_limits<size_t>::max();
  constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
  // Durations added to a clock reading stay far from overflowing it.
  constexpr int64_t kMaxDuration = int64_t{1} << 32;
  ordlog::KbServerOptions options;
  int64_t serve_seconds = -1;
  int64_t slow_query_threshold_us = -1;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s\n", ordlog::BuildInfoString().c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--spans") == 0) {
      options.spans.enabled = true;
      continue;
    }
    bool valid = true;
    if (ParseFlag(argv[i], "--span-sample", &value)) {
      options.spans.enabled = true;
      valid = ParseInRange(value, 0.0, 1.0,
                           &options.spans.sample_probability);
    } else if (ParseFlag(argv[i], "--port", &value)) {
      valid = ParseInRange(value, 0, 65535, &options.port);
    } else if (ParseFlag(argv[i], "--data-dir", &value)) {
      options.registry.data_dir = value;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      valid = ParseInRange<size_t>(value, 1, 1024, &options.num_workers);
    } else if (ParseFlag(argv[i], "--search-threads", &value)) {
      valid = ParseInRange<size_t>(value, 0, 1024,
                                   &options.registry.search_threads);
    } else if (ParseFlag(argv[i], "--tenant-max-inflight", &value)) {
      valid = ParseInRange<size_t>(value, 0, kMaxSize,
                                   &options.admission.tenant_max_inflight);
    } else if (ParseFlag(argv[i], "--global-max-inflight", &value)) {
      valid = ParseInRange<size_t>(value, 0, kMaxSize,
                                   &options.admission.global_max_inflight);
    } else if (ParseFlag(argv[i], "--snapshot-every", &value)) {
      valid = ParseInRange<size_t>(value, 0, kMaxSize,
                                   &options.registry.snapshot_every);
    } else if (ParseFlag(argv[i], "--default-deadline-ms", &value)) {
      int64_t ms = 0;
      valid = ParseInRange<int64_t>(value, 0, kMaxDuration, &ms);
      options.registry.default_deadline = std::chrono::milliseconds(ms);
    } else if (ParseFlag(argv[i], "--slow-query-threshold-us", &value)) {
      valid = ParseInRange<int64_t>(value, 0, kMaxInt64,
                                    &slow_query_threshold_us);
    } else if (ParseFlag(argv[i], "--serve-seconds", &value)) {
      valid = ParseInRange<int64_t>(value, 0, kMaxDuration, &serve_seconds);
    } else {
      return Usage(argv[0]);
    }
    if (!valid) {
      std::fprintf(stderr, "kbserver: invalid value in %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (slow_query_threshold_us >= 0) {
    options.registry.slow_query_threshold =
        std::chrono::microseconds(slow_query_threshold_us);
  }

  ordlog::KbServer server(std::move(options));
  const ordlog::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "kbserver: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("kbserver listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(serve_seconds);
  while (g_stop == 0) {
    if (serve_seconds >= 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  return 0;
}
