// sthsl_serve — long-running crime-prediction inference service.
//
//   sthsl_serve --bundle DIR [--host 127.0.0.1] [--port 8080]
//               [--threads N] [--max-batch N] [--max-wait-us N]
//               [--cache-entries N] [--cache-shards N]
//
// Loads a model bundle written by `sthsl_cli export-bundle` and answers
//   POST /v1/predict   one (R, W, C) window → (R, C) predicted counts
//   GET  /healthz      readiness probe with bundle identity
//   GET  /metrics      serve/* counters + latency/batch-size percentiles
// until SIGTERM/SIGINT, then drains gracefully: stops accepting, finishes
// in-flight requests, flushes the micro-batcher, exits 0. Every option can
// also come from the environment (STHSL_SERVE_PORT etc., flags win).
// See docs/serving.md for the full endpoint and tuning reference.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "exec/exec.h"
#include "serve/bundle.h"
#include "serve/engine.h"
#include "serve/http.h"
#include "serve/service.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: sthsl_serve --bundle DIR [options]\n"
      "  --host ADDR        bind address (default 127.0.0.1; use 0.0.0.0\n"
      "                     only behind a trusted proxy)\n"
      "  --port N           TCP port; 0 picks an ephemeral port (default "
      "8080)\n"
      "  --threads N        inference worker threads (default 2)\n"
      "  --exec-threads N   kernel threads per inference worker (default:\n"
      "                     hardware threads / worker threads, min 1, so\n"
      "                     workers x kernel threads never oversubscribes)\n"
      "  --max-batch N      micro-batch size bound (default 8)\n"
      "  --max-wait-us N    micro-batch wait bound in µs (default 2000)\n"
      "  --cache-entries N  LRU prediction-cache entries, 0 disables "
      "(default 1024)\n"
      "  --cache-shards N   cache lock shards (default 8)\n"
      "environment fallbacks: STHSL_SERVE_HOST, STHSL_SERVE_PORT,\n"
      "  STHSL_SERVE_THREADS, STHSL_SERVE_EXEC_THREADS, "
      "STHSL_SERVE_MAX_BATCH,\n"
      "  STHSL_SERVE_MAX_WAIT_US, STHSL_SERVE_CACHE_ENTRIES, "
      "STHSL_SERVE_CACHE_SHARDS\n"
      "  (STHSL_THREADS also sets the kernel thread count; --exec-threads\n"
      "  and STHSL_SERVE_EXEC_THREADS win over it)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Integer options keep EngineConfig's defaults unless the flag, else the
  // environment variable, sets them. Every value is range-checked before
  // the bundle loads; a bad one names its source and exits 2.
  sthsl::serve::EngineConfig config;
  int64_t port = 8080;
  int64_t exec_threads = 0;  // 0: hardware threads / workers, see below
  struct IntOption {
    const char* flag;
    const char* env;
    int64_t min, max;
    int64_t* out;
    const char* flag_value = nullptr;
  } options[] = {
      {"--port", "STHSL_SERVE_PORT", 0, 65535, &port},
      {"--threads", "STHSL_SERVE_THREADS", 1, 1024,
       &config.batcher.worker_threads},
      {"--exec-threads", "STHSL_SERVE_EXEC_THREADS", 1, 1024, &exec_threads},
      {"--max-batch", "STHSL_SERVE_MAX_BATCH", 1, 65536,
       &config.batcher.max_batch_size},
      {"--max-wait-us", "STHSL_SERVE_MAX_WAIT_US", 0, 60'000'000,
       &config.batcher.max_wait_us},
      {"--cache-entries", "STHSL_SERVE_CACHE_ENTRIES", 0, int64_t{1} << 30,
       &config.cache_entries},
      {"--cache-shards", "STHSL_SERVE_CACHE_SHARDS", 1, 1024,
       &config.cache_shards},
  };
  std::string bundle_dir;
  const char* host = std::getenv("STHSL_SERVE_HOST");
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--bundle") == 0) {
      bundle_dir = argv[i + 1];
    } else if (std::strcmp(argv[i], "--host") == 0) {
      host = argv[i + 1];
    } else {
      IntOption* option = std::find_if(
          std::begin(options), std::end(options), [&](const IntOption& o) {
            return std::strcmp(argv[i], o.flag) == 0;
          });
      if (option == std::end(options)) return Usage();
      option->flag_value = argv[i + 1];
    }
  }
  if (argc % 2 == 0) return Usage();  // dangling flag without a value
  if (bundle_dir.empty()) return Usage();
  const std::string host_value =
      host != nullptr && host[0] != '\0' ? host : "127.0.0.1";
  for (const IntOption& option : options) {
    const bool from_flag = option.flag_value != nullptr;
    const char* text = from_flag ? option.flag_value : std::getenv(option.env);
    if (text == nullptr || text[0] == '\0') continue;
    const sthsl::Result<int64_t> value = sthsl::ParseIntFlag(
        from_flag ? option.flag : option.env, text, option.min, option.max);
    if (!value.ok()) {
      std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
      return 2;
    }
    *option.out = value.value();
  }

  // Kernel threads compose with the batcher workers: each worker drives the
  // shared kernel pool, so default the pool to hardware / workers to avoid
  // oversubscription. Explicit settings (flag, STHSL_SERVE_EXEC_THREADS,
  // then a plain STHSL_THREADS) win over the computed default.
  if (exec_threads > 0) {
    sthsl::exec::SetThreadCount(static_cast<int>(exec_threads));
  } else if (std::getenv("STHSL_THREADS") == nullptr) {
    sthsl::exec::SetThreadCount(std::max(
        1, sthsl::exec::HardwareThreadCount() /
               static_cast<int>(config.batcher.worker_threads)));
  }

  auto bundle_or = sthsl::serve::LoadBundle(bundle_dir);
  if (!bundle_or.ok()) {
    std::fprintf(stderr, "cannot load bundle %s: %s\n", bundle_dir.c_str(),
                 bundle_or.status().ToString().c_str());
    return 1;
  }
  STHSL_LOG(Info) << "loaded bundle " << bundle_dir << ": model "
                  << bundle_or.value().manifest.model << ", city "
                  << bundle_or.value().manifest.city << ", window shape (R="
                  << bundle_or.value().manifest.num_regions()
                  << ", W=" << bundle_or.value().manifest.config.train.window
                  << ", C=" << bundle_or.value().manifest.categories << ")";

  sthsl::serve::InferenceEngine engine(std::move(bundle_or).value(), config);
  sthsl::serve::PredictService service(&engine);
  sthsl::serve::HttpServer server;
  service.Register(&server);

  sthsl::Status started = server.Start(host_value, static_cast<int>(port));
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  // The line the smoke tests and operators wait for; flushed immediately.
  std::printf("sthsl_serve listening on %s:%d\n", host_value.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  STHSL_LOG(Info) << "stop signal received; draining";
  server.Drain();     // finish in-flight HTTP requests first
  engine.Shutdown();  // then flush the micro-batcher queue
  STHSL_LOG(Info) << "drained cleanly after " << server.requests_served()
                  << " requests";
  return 0;
}
