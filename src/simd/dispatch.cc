// Runtime kernel-set selection: detect CPU features once, honor the
// STHSL_SIMD override, fall back to portable with a warning when the
// requested variant is unavailable on this binary/CPU.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "simd/simd.h"
#include "simd/variants.h"
#include "util/obs/calibrate.h"
#include "util/timer.h"

namespace sthsl::simd {
namespace {

// A variant is *available* when it is compiled into this binary AND the
// executing CPU supports it; forcing an unsupported variant via STHSL_SIMD
// must degrade to portable, never SIGILL.
const MicrokernelSet* AvailableAvx2() {
  const CpuFeatures f = DetectCpuFeatures();
  if (!f.avx2 || !f.fma) return nullptr;
  return Avx2KernelsOrNull();
}

const MicrokernelSet* SelectKernels() {
  const char* env = std::getenv("STHSL_SIMD");
  if (env != nullptr && env[0] != '\0') {
    const MicrokernelSet* forced = KernelsByName(env);
    if (forced != nullptr) return forced;
    std::fprintf(stderr,
                 "sthsl: STHSL_SIMD=%s is not available on this "
                 "binary/CPU; falling back to portable kernels\n",
                 env);
    return &PortableKernels();
  }
  if (const MicrokernelSet* s = AvailableAvx2()) return s;
  return &PortableKernels();
}

std::atomic<const MicrokernelSet*> g_test_override{nullptr};

}  // namespace

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  return f;
}

std::string CpuFeatureString() {
  const CpuFeatures f = DetectCpuFeatures();
  std::string s;
  const auto append = [&s](const char* flag) {
    if (!s.empty()) s += ',';
    s += flag;
  };
  if (f.avx2) append("avx2");
  if (f.fma) append("fma");
  if (f.avx512f) append("avx512f");
  if (s.empty()) s = "scalar";
  return s;
}

const MicrokernelSet* KernelsByName(const std::string& name) {
  if (name == "portable") return &PortableKernels();
  if (name == "avx2") return AvailableAvx2();
  return nullptr;
}

const MicrokernelSet& Kernels() {
  static const MicrokernelSet* selected = SelectKernels();
  const MicrokernelSet* forced = g_test_override.load(std::memory_order_acquire);
  return forced != nullptr ? *forced : *selected;
}

void SetKernelsForTesting(const MicrokernelSet* set) {
  g_test_override.store(set, std::memory_order_release);
}

double MeasureFmaThroughputGflops(double seconds_budget) {
  // One full register tile over a 256-deep panel: A (6 KiB) and B (16 KiB)
  // both stay L1/L2-resident, so the loop is bound by the FMA units, not
  // memory. Tiny operand values keep the accumulating C tile finite for
  // any realistic budget.
  constexpr int64_t kKc = 256;
  const std::vector<float> a(
      static_cast<size_t>(kGemmTileRows * kKc), 1e-3f);
  const std::vector<float> b(
      static_cast<size_t>(kKc * kGemmTileCols), 1e-3f);
  // Rotating C tiles: reusing one tile would chain successive calls
  // through its accumulator memory (store-to-load forwarding), which the
  // real GEMM driver — writing a different tile each call — does not do.
  constexpr int64_t kCTiles = 8;
  std::vector<float> c(
      static_cast<size_t>(kCTiles * kGemmTileRows * kGemmTileCols), 0.0f);
  const MicrokernelSet& ks = Kernels();
  // Best block rate, not the whole-budget average: scheduler noise and
  // ramp-up would otherwise drag the "peak" below what the GEMM driver
  // reaches under best-of benchmark timing, and the roofline's
  // percent-of-roof would exceed 100.
  constexpr int64_t kCallsPerBlock = 512;
  double best_block_seconds = 0.0;
  Timer budget_timer;
  do {
    Timer block_timer;
    for (int64_t call = 0; call < kCallsPerBlock; ++call) {
      float* c_tile = c.data() + (call % kCTiles) * kGemmTileRows *
                                     kGemmTileCols;
      ks.gemm_tile(a.data(), b.data(), c_tile, kGemmTileCols,
                   kGemmTileRows, kGemmTileCols, kKc);
    }
    const double block_seconds = block_timer.ElapsedSeconds();
    if (best_block_seconds == 0.0 || block_seconds < best_block_seconds) {
      best_block_seconds = block_seconds;
    }
  } while (budget_timer.ElapsedSeconds() < seconds_budget);
  volatile float sink = c[0];
  (void)sink;
  const double flops = static_cast<double>(kCallsPerBlock) * 2.0 *
                       kGemmTileRows * kGemmTileCols * kKc;
  return best_block_seconds > 0.0 ? flops / best_block_seconds / 1e9 : 0.0;
}

namespace {

// Hands the probe to the calibrator before main() runs; the target pointer
// in util/obs is zero-initialized, so cross-TU initialization order cannot
// bite. Binaries that link the simd layer (everything above util) calibrate
// against the vector peak; a util-only binary keeps the scalar fallback.
[[maybe_unused]] const bool g_fma_probe_registered = [] {
  obs::SetFmaProbe(&MeasureFmaThroughputGflops);
  return true;
}();

}  // namespace

}  // namespace sthsl::simd
