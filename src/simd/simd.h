#ifndef STHSL_SIMD_SIMD_H_
#define STHSL_SIMD_SIMD_H_

// Runtime-dispatched SIMD microkernel layer.
//
// Every inner loop of the tensor tier (GEMM register tiles, conv axpy/dot,
// reductions, elementwise strips, optimizer updates) calls through the
// MicrokernelSet selected here once at startup: AVX2+FMA on x86-64 and a
// portable scalar fallback everywhere. The STHSL_SIMD
// environment variable (avx2 | portable) overrides the automatic
// choice for A/B comparisons and debugging; tests can swap sets at runtime
// with SetKernelsForTesting.
//
// Determinism contract (extends the sthsl::exec contract across ISAs): every
// variant of every kernel performs the *same floating-point operations in
// the same order per output element*, so portable and vectorized runs are
// bitwise-identical — down to checkpoint bytes — not merely close:
//
//  - Multiply-accumulate chains (gemm_tile, axpy, optimizer EMAs) use fused
//    multiply-add everywhere: std::fma in the portable kernels, the fused
//    vector instruction (vfmadd/vfma) in the SIMD kernels. One rounding per
//    element per step in all variants.
//  - Lane-parallel elementwise ops (+, -, *, /, max, sqrt, compare/select)
//    are IEEE-754 basic operations: a vector lane computes bit-for-bit what
//    the scalar op computes, so these vectorize freely.
//  - Reductions (dot, reduce_sum, reduce_max) accumulate into 8 fixed lanes
//    (element j goes to lane j mod 8), fold the lanes through one canonical
//    pairwise tree, then add the scalar-accumulated tail:
//        b0=l0+l4  b1=l1+l5  b2=l2+l6  b3=l3+l7
//        c0=b0+b2  c1=b1+b3
//        result = (c0 + c1) + tail
//    The portable kernel implements this tree explicitly; it is exactly the
//    lane fold the 256-bit horizontal reduction performs.
//  - Transcendentals (exp, log, tanh, pow) are never vectorized: all
//    variants call scalar libm so polynomial-approximation differences
//    between SIMD math libraries can't leak into checkpoints.
//
// The portable kernels in portable.cc are the executable specification;
// simd_test.cc pins every variant against them bitwise, including
// non-multiple-of-vector-width tails.
//
// Intrinsics headers (<immintrin.h>, <arm_neon.h>) are confined to this
// directory — the analyzer's det-intrinsics rule rejects them anywhere else.

#include <cstdint>
#include <string>

namespace sthsl::simd {

/// CPU features detected at startup (x86: cpuid via the compiler builtin;
/// none elsewhere).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;  // detected and reported; no avx512 kernel set yet
};

/// Detects the features of the executing CPU.
CpuFeatures DetectCpuFeatures();

/// Comma-separated detected feature flags, e.g. "avx2,fma";
/// "scalar" when none. Stamped into bench provenance and /statusz.
std::string CpuFeatureString();

/// GEMM register-tile geometry shared by every variant: tiles are kMR rows
/// by kNR columns of C, with the packed B panel laid out kc x kNR.
inline constexpr int64_t kGemmTileRows = 6;
inline constexpr int64_t kGemmTileCols = 16;

/// One ISA variant of the microkernel layer. All buffers are float32; `n`
/// counts elements. Function pointers are never null.
struct MicrokernelSet {
  /// Variant name: "portable" or "avx2".
  const char* name;

  /// GEMM register tile: for each output element (i, j) with i < mr, j < nr,
  ///   c[i*ldc + j] = fma(a_panel[i*kc + p], b_panel[p*kGemmTileCols + j],
  ///                      c[i*ldc + j])    for p = 0 .. kc-1 ascending.
  /// Accumulates into c (callers pre-initialize). a_panel is mr x kc
  /// row-major; b_panel is kc x kGemmTileCols row-major (only the first nr
  /// columns of each row are read). Requires mr <= kGemmTileRows and
  /// nr <= kGemmTileCols.
  void (*gemm_tile)(const float* a_panel, const float* b_panel, float* c,
                    int64_t ldc, int64_t mr, int64_t nr, int64_t kc);

  /// y[i] = fma(a, x[i], y[i])
  void (*axpy)(int64_t n, float a, const float* x, float* y);

  /// Canonical 8-lane fma dot product (see the reduction contract above).
  float (*dot)(int64_t n, const float* x, const float* y);
  /// Canonical 8-lane sum.
  float (*reduce_sum)(int64_t n, const float* x);
  /// Canonical 8-lane max: lane = (lane > x) ? lane : x, folded through the
  /// canonical tree with the same select. Returns -inf for n == 0.
  float (*reduce_max)(int64_t n, const float* x);

  // Elementwise strips (out may alias x and/or y; same-index access only).
  void (*add)(int64_t n, const float* x, const float* y, float* out);
  void (*sub)(int64_t n, const float* x, const float* y, float* out);
  void (*mul)(int64_t n, const float* x, const float* y, float* out);
  void (*div)(int64_t n, const float* x, const float* y, float* out);
  /// out[i] = x[i] + s
  void (*add_scalar)(int64_t n, const float* x, float s, float* out);
  /// out[i] = x[i] * s
  void (*mul_scalar)(int64_t n, const float* x, float s, float* out);
  /// out[i] = x[i] / s  (true division — not multiplication by 1/s)
  void (*div_scalar)(int64_t n, const float* x, float s, float* out);
  /// out[i] = x[i] > 0 ? x[i] : 0
  void (*relu)(int64_t n, const float* x, float* out);
  /// out[i] = x[i] > 0 ? x[i] : slope * x[i]
  void (*leaky_relu)(int64_t n, const float* x, float slope, float* out);
  /// out[i] = x[i] > floor ? x[i] : floor
  void (*clamp_min)(int64_t n, const float* x, float floor, float* out);

  // Optimizer updates (canonical formulas; see portable.cc).
  /// grad = fma(wd, x, g); x = fma(-lr, grad, x)
  void (*sgd_step)(int64_t n, float* x, const float* g, float lr, float wd);
  /// grad = fma(wd, x, g); v = fma(momentum, v, grad); x = fma(-lr, v, x)
  void (*sgd_momentum_step)(int64_t n, float* x, float* v, const float* g,
                            float lr, float momentum, float wd);
  /// grad = fma(wd, x, g)
  /// m = fma(beta1, m, (1-beta1) * grad)
  /// v = fma(beta2, v, (1-beta2) * (grad * grad))
  /// x = x - (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
  void (*adam_step)(int64_t n, float* x, float* m, float* v, const float* g,
                    float lr, float beta1, float beta2, float eps, float wd,
                    float bc1, float bc2);
};

/// The portable scalar reference set (always available on every target).
const MicrokernelSet& PortableKernels();

/// Looks up a variant by name ("portable", "avx2"). Returns nullptr
/// for unknown names and for variants not compiled into this binary.
const MicrokernelSet* KernelsByName(const std::string& name);

/// The microkernel set every kernel dispatches through. Selected once on
/// first use: STHSL_SIMD override if set (falling back to portable with a
/// stderr warning when the requested variant is unavailable), else the best
/// set the CPU supports. Stable for the life of the process unless a test
/// installs an override.
const MicrokernelSet& Kernels();

/// Test hook: forces Kernels() to return `set` until called with nullptr.
/// Call only from single-threaded test setup — swapping variants while
/// kernels are in flight is undefined.
void SetKernelsForTesting(const MicrokernelSet* set);

/// Single-thread FMA throughput in GFLOP/s, measured by driving the
/// dispatched gemm_tile microkernel on L1-resident packed panels for about
/// `seconds_budget` seconds. Registered with obs::SetFmaProbe at static
/// init so the roofline calibrator reports the peak the kernels can
/// actually reach on this machine (the calibrator's scalar fallback loop
/// is off by the vector width).
double MeasureFmaThroughputGflops(double seconds_budget);

}  // namespace sthsl::simd

#endif  // STHSL_SIMD_SIMD_H_
