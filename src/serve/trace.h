#ifndef STHSL_SERVE_TRACE_H_
#define STHSL_SERVE_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

namespace sthsl::serve {

/// Request-scoped tracing for the serving tier (see docs/observability.md,
/// "Request tracing & serving metrics").
///
/// Every request gets a RequestContext carrying a W3C trace id: accepted
/// from an incoming `traceparent` header when it is well-formed, generated
/// otherwise, and echoed back in the response so a client (HttpClient, and
/// through it sthsl_loadgen; an upstream proxy) can join its own
/// measurements against the server's per-stage breakdown. The context
/// accumulates one duration per pipeline stage; the service publishes them
/// into per-stage histograms, the chrome://tracing buffer ("serve"
/// category) and the JSONL access log.

/// The fixed stages of the predict pipeline, in request order.
enum class Stage {
  kHeaderParse = 0,  // HTTP request line + header fields
  kBodyParse,        // JSON body → validated window tensor
  kCacheLookup,      // sharded LRU probe
  kQueueWait,        // submit → a batcher worker dequeues the request:
                     // a thread wake-up unless every worker is busy
  kBatchAssembly,    // dequeue → batch handed to the model
  kInference,        // batched forward pass
  kSerialize,        // prediction → JSON response body
};
inline constexpr int kNumStages = 7;

/// Stable lowercase stage name ("header_parse", ...), used for metric
/// names, trace span names and access-log keys.
const char* StageName(Stage stage);

struct RequestContext {
  /// 32 lowercase hex chars, never all-zero.
  std::string trace_id;
  /// This request's own span id: 16 lowercase hex chars, never all-zero.
  std::string span_id;
  /// True when trace_id was accepted from the incoming traceparent header
  /// (as opposed to generated here).
  bool propagated = false;

  std::array<double, kNumStages> stage_us{};

  void AddStage(Stage stage, double us) {
    stage_us[static_cast<size_t>(stage)] += us;
  }
  double StageUs(Stage stage) const {
    return stage_us[static_cast<size_t>(stage)];
  }

  /// `00-<trace_id>-<span_id>-01`, the header value echoed to the client.
  std::string TraceparentHeader() const;
};

/// Parses a W3C traceparent value ("00-<32 hex>-<16 hex>-<2 hex>"). Returns
/// true and fills trace_id/parent_span_id on a well-formed header whose
/// trace id is not all zeros; malformed headers are rejected wholesale (the
/// caller generates fresh ids instead of trusting partial input).
bool ParseTraceparent(const std::string& header, std::string* trace_id,
                      std::string* parent_span_id);

/// Builds the context for one request: adopts `traceparent_header` when
/// valid (empty string = header absent), generates ids otherwise. Id
/// generation draws from a process-wide PRNG that SeedTraceIds can pin.
RequestContext MakeRequestContext(const std::string& traceparent_header);

/// Re-seeds the trace-id generator deterministically (tests). Ids from a
/// seeded generator form a reproducible sequence; the process default seed
/// comes from std::random_device.
void SeedTraceIds(uint64_t seed);

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_TRACE_H_
