/// Dense-vs-sparse hypergraph propagation sweep (BENCH_sparse.json).
///
/// Models the ST-HSL incidence matmul H · E2 followed by the transposed
/// propagation H^T · up at the paper's Fig.-1 sparsity regime (~5% of
/// region-day-category cells are nonzero). For each region count R the same
/// incidence pattern and values run through two arms:
///
///   dense  — the pre-sparse-subsystem path: a dense (H, R·C) parameter,
///            MatMul + Transpose + MatMul.
///   sparse — the src/sparse/ path: CSR pattern + values leaf, SpMM twice
///            (the transposed hop via the stable-counting-sort transpose
///            index).
///
/// Both arms run forward AND backward; forward outputs and the dense-operand
/// gradients are asserted bitwise identical (the zero-skip argument in
/// docs/sparse.md). Peak tensor bytes are captured from the obs profiler
/// after the forward pass and again after backward. The process exits
/// nonzero if the sparse forward peak exceeds 0.5x the dense forward peak at
/// the largest R — the memory gate CI enforces on BENCH_sparse.json.
///
/// Times are single-shot (one forward, one backward) — this bench gates
/// memory, not throughput; the roofline bench covers spmm/gather FLOP rates.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "sparse/sparse_tensor.h"
#include "tensor/ops.h"
#include "tensor/sparse_ops.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/json_mini.h"
#include "util/obs/obs.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sthsl {
namespace {

constexpr int64_t kCategories = 4;   // C: crime categories per region
constexpr int64_t kWindowFeats = 7 * 16;  // w · d: window x embedding dim
constexpr double kFig1Density = 0.05;
constexpr double kGateRatio = 0.5;

/// The shared incidence pattern + operands, held as raw std::vectors so the
/// generator data never counts against either arm's tracked tensor bytes.
struct PatternData {
  std::vector<int64_t> row_ptr;  // CSR over (H, R*C)
  std::vector<int64_t> cols;
  std::vector<float> vals;
  std::vector<float> b;  // dense (R*C, w*d) operand
};

PatternData MakePattern(int64_t h_rows, int64_t rc, uint64_t seed) {
  PatternData p;
  Rng rng(seed);
  p.row_ptr.assign(static_cast<size_t>(h_rows) + 1, 0);
  for (int64_t i = 0; i < h_rows; ++i) {
    for (int64_t j = 0; j < rc; ++j) {
      if (rng.Bernoulli(kFig1Density)) {
        p.cols.push_back(j);
        p.vals.push_back(static_cast<float>(rng.Uniform(-1.0, 1.0)));
      }
    }
    p.row_ptr[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(p.cols.size());
  }
  Rng brng(seed ^ 0x9e3779b97f4a7c15ull);
  p.b.resize(static_cast<size_t>(rc * kWindowFeats));
  for (float& v : p.b) v = static_cast<float>(brng.Uniform(-0.5, 0.5));
  return p;
}

struct ArmStats {
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  int64_t fwd_peak_bytes = 0;
  int64_t total_peak_bytes = 0;
  std::vector<float> out;     // forward output, copied out untracked
  std::vector<float> b_grad;  // gradient of the dense operand
};

ArmStats RunDenseArm(const PatternData& p, int64_t h_rows, int64_t rc) {
  obs::ResetProfiler();
  ArmStats s;
  std::vector<float> dense(static_cast<size_t>(h_rows * rc), 0.0f);
  for (int64_t i = 0; i < h_rows; ++i) {
    for (int64_t e = p.row_ptr[i]; e < p.row_ptr[i + 1]; ++e) {
      dense[static_cast<size_t>(i * rc + p.cols[e])] = p.vals[e];
    }
  }
  Tensor h = Tensor::FromVector({h_rows, rc}, std::move(dense),
                                /*requires_grad=*/true);
  Tensor b =
      Tensor::FromVector({rc, kWindowFeats}, p.b, /*requires_grad=*/true);
  Timer fwd;
  Tensor to_edges = LeakyRelu(MatMul(h, b), 0.1f);
  Tensor back = LeakyRelu(MatMul(Transpose(h, 0, 1), to_edges), 0.1f);
  s.fwd_ms = fwd.ElapsedMillis();
  s.fwd_peak_bytes = obs::PeakTensorBytes();
  s.out = back.Data();
  Timer bwd;
  Sum(back).Backward();
  s.bwd_ms = bwd.ElapsedMillis();
  s.total_peak_bytes = obs::PeakTensorBytes();
  s.b_grad = b.Grad();
  return s;
}

ArmStats RunSparseArm(const PatternData& p, int64_t h_rows, int64_t rc) {
  obs::ResetProfiler();
  ArmStats s;
  auto csr = sparse::SparseTensor::CsrFromParts({h_rows, rc}, p.row_ptr,
                                                p.cols, p.vals);
  STHSL_CHECK(csr.ok()) << csr.status().message();
  Tensor values =
      Tensor::FromVector({static_cast<int64_t>(p.vals.size())}, p.vals,
                         /*requires_grad=*/true);
  Tensor b =
      Tensor::FromVector({rc, kWindowFeats}, p.b, /*requires_grad=*/true);
  Timer fwd;
  Tensor to_edges = LeakyRelu(SpMM(csr.value(), values, b), 0.1f);
  Tensor back = LeakyRelu(
      SpMM(csr.value(), values, to_edges, /*transpose_a=*/true), 0.1f);
  s.fwd_ms = fwd.ElapsedMillis();
  s.fwd_peak_bytes = obs::PeakTensorBytes();
  s.out = back.Data();
  Timer bwd;
  Sum(back).Backward();
  s.bwd_ms = bwd.ElapsedMillis();
  s.total_peak_bytes = obs::PeakTensorBytes();
  s.b_grad = b.Grad();
  return s;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

int RunSweep() {
  const std::vector<int64_t> regions = {256, 1024, 4096};
  bool prev_trace = obs::SetTraceEnabled(true);

  bench::PrintSectionTitle(
      "Hypergraph propagate: dense vs sparse (density 0.05)");
  bench::PrintTableHeader({"config", "nnz", "dense_MB", "sparse_MB", "ratio",
                           "d_fwd_ms", "s_fwd_ms", "d_bwd_ms", "s_bwd_ms"},
                          18, 10);

  json::JsonWriter json;
  json.BeginObject().Key("density").Number(kFig1Density);
  json.Key("window_features").Int(kWindowFeats).Key("sweep").BeginArray();
  bool gate_pass = true;
  double gate_ratio = 0.0;
  for (const int64_t r : regions) {
    const int64_t h_rows = r / 2;  // hyperedges: the model's default H = R/2
    const int64_t rc = r * kCategories;
    PatternData p = MakePattern(h_rows, rc, 0x5eed0000ull + r);
    const int64_t nnz = static_cast<int64_t>(p.vals.size());

    ArmStats dense = RunDenseArm(p, h_rows, rc);
    ArmStats sparse = RunSparseArm(p, h_rows, rc);
    obs::ResetProfiler();

    STHSL_CHECK(BitwiseEqual(dense.out, sparse.out))
        << "forward outputs diverge at R=" << r;
    STHSL_CHECK(BitwiseEqual(dense.b_grad, sparse.b_grad))
        << "dense-operand gradients diverge at R=" << r;

    const double ratio = dense.fwd_peak_bytes > 0
                             ? static_cast<double>(sparse.fwd_peak_bytes) /
                                   static_cast<double>(dense.fwd_peak_bytes)
                             : 0.0;
    if (r == regions.back()) {
      gate_ratio = ratio;
      gate_pass = ratio <= kGateRatio;
    }

    const double mb = 1.0 / (1024.0 * 1024.0);
    bench::PrintTableRow(
        "R=" + std::to_string(r),
        {static_cast<double>(nnz), dense.fwd_peak_bytes * mb,
         sparse.fwd_peak_bytes * mb, ratio, dense.fwd_ms, sparse.fwd_ms,
         dense.bwd_ms, sparse.bwd_ms},
        18, 10);

    json.BeginObject().Key("regions").Int(r).Key("hyperedges").Int(h_rows);
    json.Key("nnz").Int(nnz);
    for (const auto& [arm, stats] : {std::pair{"dense", &dense},
                                     std::pair{"sparse", &sparse}}) {
      json.Key(arm).BeginObject().Key("fwd_ms").Number(stats->fwd_ms);
      json.Key("bwd_ms").Number(stats->bwd_ms);
      json.Key("fwd_peak_bytes").Int(stats->fwd_peak_bytes);
      json.Key("total_peak_bytes").Int(stats->total_peak_bytes).EndObject();
    }
    json.Key("fwd_peak_ratio").Number(ratio);
    json.Key("bitwise_equal").Bool(true).EndObject();
  }
  obs::SetTraceEnabled(prev_trace);

  json.EndArray().Key("gate").BeginObject();
  json.Key("max_regions").Int(regions.back());
  json.Key("fwd_peak_ratio").Number(gate_ratio);
  json.Key("threshold").Number(kGateRatio);
  json.Key("pass").Bool(gate_pass).EndObject().EndObject();
  bench::MaybeWriteBenchJson("sparse", json.str());

  std::printf("\nmemory gate @ R=%lld: sparse/dense forward peak = %.4f "
              "(threshold %.2f) -> %s\n",
              static_cast<long long>(regions.back()), gate_ratio, kGateRatio,
              gate_pass ? "PASS" : "FAIL");
  return gate_pass ? 0 : 1;
}

}  // namespace
}  // namespace sthsl

int main() { return sthsl::RunSweep(); }
