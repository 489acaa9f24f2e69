// Tests for the sparse subsystem: COO/CSR layout round-trips and
// validation, SpMM autograd against the dense reference (exact equality,
// per the bitwise-parity contract of docs/sparse.md), thread-count
// invariance, and dense-vs-sparse training equivalence: down to checkpoint
// bytes for the one-propagation graph, to a tolerance with infomax on, and
// a fixed hypergraph pattern through SthslForecaster::Fit.

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sthsl_model.h"
#include "data/generator.h"
#include "exec/exec.h"
#include "nn/serialization.h"
#include "sparse/sparse_tensor.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/sparse_ops.h"
#include "util/obs/obs.h"
#include "util/rng.h"

namespace sthsl {
namespace {

using sparse::Layout;
using sparse::SparseTensor;
using sparse::ZeroPolicy;

class ThreadCountGuard {
 public:
  ThreadCountGuard() : previous_(exec::ThreadCount()) {}
  ~ThreadCountGuard() { exec::SetThreadCount(previous_); }

 private:
  int previous_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

// Roughly `density`-filled random dense buffer.
std::vector<float> RandomSparseData(Rng& rng, int64_t numel, double density) {
  std::vector<float> data(static_cast<size_t>(numel), 0.0f);
  for (auto& v : data) {
    if (rng.Bernoulli(density)) v = rng.Uniform(-2.0f, 2.0f);
  }
  return data;
}

// ------------------------------------------------------------- layouts --

TEST(SparseTensorTest, CooRoundTripProperty) {
  Rng rng(31);
  const std::vector<std::vector<int64_t>> shapes = {
      {7}, {5, 9}, {4, 6, 3}, {2, 3, 4, 5}};
  for (const auto& shape : shapes) {
    for (double density : {0.0, 0.05, 0.3, 1.0}) {
      const int64_t numel = NumelOf(shape);
      const std::vector<float> data = RandomSparseData(rng, numel, density);
      SparseTensor s = SparseTensor::FromDense(data.data(), shape);
      ASSERT_TRUE(s.Validate().ok());
      int64_t nnz = 0;
      for (float v : data) nnz += v != 0.0f ? 1 : 0;
      EXPECT_EQ(s.Nnz(), nnz);
      EXPECT_EQ(s.ToDense(), data);
    }
  }
}

TEST(SparseTensorTest, KeepExplicitZeroPolicyStoresEveryCell) {
  Rng rng(32);
  const std::vector<int64_t> shape = {6, 5};
  const std::vector<float> data = RandomSparseData(rng, 30, 0.2);
  SparseTensor s =
      SparseTensor::FromDense(data.data(), shape, ZeroPolicy::kKeepExplicit);
  ASSERT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.Nnz(), 30);  // every cell, zeros included
  EXPECT_EQ(s.ToDense(), data);
  // The explicit pattern survives a CSR round-trip too.
  SparseTensor csr = s.ToCsr();
  EXPECT_EQ(csr.Nnz(), 30);
  EXPECT_EQ(csr.ToDense(), data);
}

TEST(SparseTensorTest, CooCsrConversionsShareValuesAndPreserveOrder) {
  Rng rng(33);
  const std::vector<int64_t> shape = {8, 11};
  const std::vector<float> data = RandomSparseData(rng, 88, 0.25);
  SparseTensor coo = SparseTensor::FromDense(data.data(), shape);
  SparseTensor csr = coo.ToCsr();
  ASSERT_TRUE(csr.Validate().ok());
  EXPECT_EQ(csr.layout(), Layout::kCsr);
  // Same value buffer, not a copy.
  EXPECT_EQ(coo.Values().data(), csr.Values().data());
  SparseTensor back = csr.ToCoo();
  ASSERT_TRUE(back.Validate().ok());
  EXPECT_EQ(back.FlatIndices(), coo.FlatIndices());
  EXPECT_EQ(back.Values().data(), coo.Values().data());
  EXPECT_EQ(csr.ToDense(), data);
}

TEST(SparseTensorTest, FromPartsRejectsMalformedInput) {
  // COO: unsorted, duplicated, out-of-range, size mismatch.
  EXPECT_FALSE(
      SparseTensor::CooFromParts({2, 3}, {4, 1}, {1.0f, 2.0f}).ok());
  EXPECT_FALSE(
      SparseTensor::CooFromParts({2, 3}, {1, 1}, {1.0f, 2.0f}).ok());
  EXPECT_FALSE(SparseTensor::CooFromParts({2, 3}, {6}, {1.0f}).ok());
  EXPECT_FALSE(SparseTensor::CooFromParts({2, 3}, {-1}, {1.0f}).ok());
  EXPECT_FALSE(SparseTensor::CooFromParts({2, 3}, {0, 1}, {1.0f}).ok());
  EXPECT_TRUE(
      SparseTensor::CooFromParts({2, 3}, {0, 4}, {1.0f, 2.0f}).ok());

  // CSR: wrong row_ptr size, non-monotone, bad endpoint, unsorted or
  // escaping columns, rank != 2.
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3}, {0, 1}, {0}, {1.0f}).ok());
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3}, {0, 2, 1}, {0}, {1.0f}).ok());
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3}, {1, 1, 1}, {0}, {1.0f}).ok());
  EXPECT_FALSE(SparseTensor::CsrFromParts({2, 3}, {0, 2, 2}, {2, 1},
                                          {1.0f, 2.0f})
                   .ok());
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3}, {0, 1, 1}, {3}, {1.0f}).ok());
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3, 4}, {0, 1}, {0}, {1.0f}).ok());
  EXPECT_TRUE(SparseTensor::CsrFromParts({2, 3}, {0, 2, 3}, {0, 2, 1},
                                         {1.0f, 2.0f, 3.0f})
                  .ok());
}

TEST(SparseTensorTest, StorageBytesCountedByObsProfiler) {
  const bool previous = obs::SetTraceEnabled(true);
  obs::ResetProfiler();
  Rng rng(34);
  const std::vector<float> data = RandomSparseData(rng, 400, 0.1);
  {
    SparseTensor s = SparseTensor::FromDense(data.data(), {20, 20});
    EXPECT_EQ(obs::LiveTensorBytes(), s.StorageBytes());
    EXPECT_GT(s.StorageBytes(), 0);
    EXPECT_LT(s.StorageBytes(), 400 * 4);  // beats the dense footprint
  }
  EXPECT_EQ(obs::LiveTensorBytes(), 0);
  obs::SetTraceEnabled(previous);
}

// ------------------------------------------------------------- autograd --

// Sparse SpMM must match the dense MatMul reference bitwise — forward
// values, the dense-side gradient, and the values gradient at every stored
// coordinate (zero everywhere else: fixed-pattern semantics).
TEST(SparseOpsTest, SpmmMatchesDenseReferenceBitwise) {
  Rng rng(35);
  const int64_t m = 13;
  const int64_t k = 17;
  const int64_t n = 9;
  const std::vector<float> a_data = RandomSparseData(rng, m * k, 0.2);
  const std::vector<float> b_data = RandomSparseData(rng, k * n, 1.0);

  for (bool transpose_a : {false, true}) {
    const int64_t out_rows = transpose_a ? k : m;
    Tensor a_sparse_leaf = Tensor::FromVector({m, k}, a_data, true);
    Tensor a_dense_leaf = Tensor::FromVector({m, k}, a_data, true);
    Tensor b1 = Tensor::FromVector(
        {transpose_a ? m : k, n},
        std::vector<float>(b_data.begin(),
                           b_data.begin() + (transpose_a ? m : k) * n),
        true);
    Tensor b2 = Tensor::FromVector({transpose_a ? m : k, n},
                                   b1.Data(), true);

    SparseTensor csr = ToSparse(a_sparse_leaf).ToCsr();
    Tensor values = SparseValues(a_sparse_leaf, csr);
    Tensor out_sparse = SpMM(csr, values, b1, transpose_a);
    Tensor out_dense =
        transpose_a
            ? MatMul(Transpose(a_dense_leaf, 0, 1), b2)
            : MatMul(a_dense_leaf, b2);
    ASSERT_EQ(out_sparse.Shape(), (std::vector<int64_t>{out_rows, n}));
    EXPECT_EQ(out_sparse.Data(), out_dense.Data())
        << "forward mismatch, transpose_a=" << transpose_a;

    Tensor seed = Tensor::Rand({out_rows, n}, rng, -1.0f, 1.0f);
    out_sparse.Backward(seed);
    out_dense.Backward(seed);

    // Dense-side grad: bitwise identical.
    EXPECT_EQ(b1.Grad(), b2.Grad())
        << "b grad mismatch, transpose_a=" << transpose_a;
    // Sparse-side grad: equal to the dense grad at stored coordinates,
    // exactly zero off-pattern.
    const auto& ga = a_sparse_leaf.Grad();
    const auto& ga_ref = a_dense_leaf.Grad();
    ASSERT_EQ(ga.size(), ga_ref.size());
    for (size_t i = 0; i < ga.size(); ++i) {
      if (a_data[i] != 0.0f) {
        EXPECT_EQ(ga[i], ga_ref[i]) << "values grad mismatch at " << i;
      } else {
        EXPECT_EQ(ga[i], 0.0f) << "off-pattern grad leaked at " << i;
      }
    }
  }
}

TEST(SparseOpsTest, SparseValuesRoundTripsAndScattersGrad) {
  Rng rng(37);
  const std::vector<float> data = RandomSparseData(rng, 48, 0.3);
  Tensor dense = Tensor::FromVector({6, 8}, data, true);
  SparseTensor pattern = ToSparse(dense);
  Tensor values = SparseValues(dense, pattern);
  ASSERT_EQ(values.Numel(), pattern.Nnz());
  // Gathered in storage order.
  const auto& flat = pattern.FlatIndices();
  for (int64_t e = 0; e < values.Numel(); ++e) {
    EXPECT_EQ(values.At(e), data[static_cast<size_t>(flat[e])]);
  }
  Tensor seed = Tensor::Rand({values.Numel()}, rng, -1.0f, 1.0f);
  values.Backward(seed);
  const auto& grad = dense.Grad();
  int64_t e = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i] != 0.0f) {
      EXPECT_EQ(grad[i], seed.At(e++));
    } else {
      EXPECT_EQ(grad[i], 0.0f);
    }
  }
}

TEST(SparseOpsTest, BitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(38);
  const int64_t m = 37;
  const int64_t k = 53;
  const int64_t n = 19;
  const std::vector<float> a_data = RandomSparseData(rng, m * k, 0.15);
  const std::vector<float> b_data = RandomSparseData(rng, k * n, 1.0);
  const std::vector<float> seed_data = RandomSparseData(rng, m * n, 1.0);

  auto run = [&](int threads) {
    exec::SetThreadCount(threads);
    Tensor a = Tensor::FromVector({m, k}, a_data, true);
    Tensor b = Tensor::FromVector({k, n}, b_data, true);
    SparseTensor csr = ToSparse(a).ToCsr();
    Tensor values = SparseValues(a, csr);
    Tensor out = SpMM(csr, values, b);
    out.Backward(Tensor::FromVector({m, n}, seed_data));

    struct Snapshot {
      std::vector<float> out, da, db;
    };
    return Snapshot{out.Data(), a.Grad(), b.Grad()};
  };

  const auto one = run(1);
  for (int threads : {2, 8}) {
    const auto multi = run(threads);
    EXPECT_EQ(one.out, multi.out) << threads << " threads";
    EXPECT_EQ(one.da, multi.da) << threads << " threads";
    EXPECT_EQ(one.db, multi.db) << threads << " threads";
  }
}

// -------------------------------------------------------------- training --

CrimeDataset SparseTestCity() {
  CrimeGenConfig gen;
  gen.rows = 4;
  gen.cols = 4;
  gen.days = 64;
  gen.num_zones = 3;
  gen.category_totals = {300, 700, 350, 400};
  gen.seed = 77;
  return GenerateCrimeData(gen);
}

SthslConfig SparseTrainConfig() {
  SthslConfig config;
  config.dim = 4;
  config.num_hyperedges = 8;
  config.kernel_size = 3;
  config.global_temporal_layers = 2;
  config.train.window = 7;
  config.train.epochs = 2;
  config.train.max_steps_per_epoch = 4;
  config.train.seed = 11;
  config.hypergraph_density = 0.2f;
  return config;
}

// Trains `net` on `steps` consecutive windows with the Eq. 10 objective:
// forward, loss, Backward, Adam. When `hypergraph_mask` is non-empty it
// multiplies the hypergraph gradient before each step — the fixed-pattern
// contract applied by hand to a dense parameter.
void TrainSteps(SthslNet& net, const CrimeDataset& data, int64_t steps,
                const std::vector<float>& hypergraph_mask) {
  const SthslConfig& config = net.config();
  Adam adam(net.Parameters(), config.train.lr, 0.9f, 0.999f, 1e-8f,
            config.train.weight_decay);
  net.SetTraining(true);
  const int64_t window = config.train.window;
  for (int64_t t = window; t < window + steps; ++t) {
    adam.ZeroGrad();
    SthslNet::Output out =
        net.Forward(data.WindowInput(t, window), /*training=*/true);
    Tensor loss = MseLoss(out.prediction, data.TargetDay(t));
    if (out.infomax_loss.Defined()) {
      loss = Add(loss, MulScalar(out.infomax_loss, config.lambda1));
    }
    loss = Add(loss, MulScalar(out.contrastive_loss, config.lambda2));
    loss.Backward();
    if (!hypergraph_mask.empty()) {
      Tensor h = net.hyperedge_weights();
      std::vector<float>& grad = h.MutableGrad();
      for (size_t i = 0; i < grad.size(); ++i) grad[i] *= hypergraph_mask[i];
    }
    adam.Step();
  }
  net.SetTraining(false);
}

// A network at `config`'s hypergraph density (< 1, so its incidence runs
// CSR SpMM), a density-1 reference holding a copy of its parameters, and
// the 0/1 pattern of its incidence. Equal seeds give equal dropout and
// corruption generators (both fork before the incidence is drawn); the
// sparse net is built exactly as SthslForecaster::Prepare builds it.
struct NetPair {
  std::unique_ptr<SthslNet> sparse;
  std::unique_ptr<SthslNet> dense;
  std::vector<float> mask;
};

NetPair MakeNetPair(const SthslConfig& config, const CrimeDataset& data,
                    int64_t train_end) {
  float mean;
  float stddev;
  data.SliceDays(0, train_end).ComputeMoments(&mean, &stddev);
  SthslConfig dense_cfg = config;
  dense_cfg.hypergraph_density = 1.0f;
  Rng sparse_rng(config.train.seed);
  Rng dense_rng(config.train.seed);
  NetPair pair;
  pair.sparse = std::make_unique<SthslNet>(config, data.rows(), data.cols(),
                                           data.num_categories(), mean,
                                           stddev, sparse_rng);
  pair.dense = std::make_unique<SthslNet>(dense_cfg, data.rows(), data.cols(),
                                          data.num_categories(), mean, stddev,
                                          dense_rng);
  const std::vector<Tensor> from = pair.sparse->Parameters();
  std::vector<Tensor> to = pair.dense->MutableParameters();
  EXPECT_EQ(from.size(), to.size());
  for (size_t i = 0; i < from.size() && i < to.size(); ++i) {
    to[i].MutableData() = from[i].Data();
  }
  for (float v : pair.sparse->hyperedge_weights().Data()) {
    pair.mask.push_back(v != 0.0f ? 1.0f : 0.0f);
  }
  return pair;
}

// Absolute tolerance between CSR-trained and masked-dense-trained values
// whose gradients were summed in different orders. Eight Adam steps at the
// default lr move a parameter by up to 4e-2; the two paths differ by 3e-8.
constexpr float kTrackTolerance = 1e-5f;

// Fixed-pattern contract: every coordinate outside `mask` is still exactly
// zero, and the pattern prunes most of the incidence.
void ExpectPrunedCoordinatesZero(const Tensor& hypergraph,
                                 const std::vector<float>& mask) {
  const std::vector<float>& h = hypergraph.Data();
  ASSERT_EQ(h.size(), mask.size());
  int64_t zeros = 0;
  for (size_t i = 0; i < h.size(); ++i) {
    if (mask[i] == 0.0f) {
      EXPECT_EQ(h[i], 0.0f) << "pruned coordinate " << i << " trained";
      ++zeros;
    }
  }
  EXPECT_GT(zeros, static_cast<int64_t>(h.size()) / 2);
}

// Dense/sparse parity at the hypergraph site, asserted down to checkpoint
// bytes: a density-0.2 incidence trained through the model's CSR SpMM path
// must match the same parameters trained as a dense (density 1) network
// whose hypergraph gradient is masked to the pattern before every step.
// Infomax is off: it propagates twice per step, and the CSR path sums each
// call's hypergraph gradient before adding it to the parameter's while a
// dense parameter takes all four contributions one by one. Float addition
// is not associative, so only the one-call graph has bitwise parity; the
// default graph is checked to a tolerance below.
TEST(SparseTrainingTest, SparseAndMaskedDensePathsProduceIdenticalCheckpoints) {
  CrimeDataset data = SparseTestCity();
  SthslConfig config = SparseTrainConfig();
  config.use_infomax = false;
  NetPair pair = MakeNetPair(config, data, 50);
  TrainSteps(*pair.sparse, data, 8, {});
  TrainSteps(*pair.dense, data, 8, pair.mask);

  ASSERT_TRUE(SaveCheckpoint(*pair.sparse, "/tmp/sparse_path_ckpt.bin").ok());
  ASSERT_TRUE(SaveCheckpoint(*pair.dense, "/tmp/masked_path_ckpt.bin").ok());
  const std::string sparse_bytes = ReadFileBytes("/tmp/sparse_path_ckpt.bin");
  ASSERT_FALSE(sparse_bytes.empty());
  EXPECT_TRUE(sparse_bytes == ReadFileBytes("/tmp/masked_path_ckpt.bin"))
      << "checkpoint bytes differ";

  ExpectPrunedCoordinatesZero(pair.sparse->hyperedge_weights(), pair.mask);
  // And the predictions agree bitwise as well.
  Tensor window = data.WindowInput(55, config.train.window);
  EXPECT_EQ(pair.sparse->Forward(window, /*training=*/false).prediction.Data(),
            pair.dense->Forward(window, /*training=*/false).prediction.Data());
}

// The default training graph (infomax on) propagates through the incidence
// twice per step: once for the real view and once for the corrupted one.
// Each propagation must keep the pattern fixed, and the trained values must
// track the gradient-masked dense reference up to summation order.
TEST(SparseTrainingTest, InfomaxTrainingKeepsPatternAndTracksMaskedDense) {
  CrimeDataset data = SparseTestCity();
  const SthslConfig config = SparseTrainConfig();
  ASSERT_TRUE(config.use_infomax);
  NetPair pair = MakeNetPair(config, data, 50);
  TrainSteps(*pair.sparse, data, 8, {});
  TrainSteps(*pair.dense, data, 8, pair.mask);

  ExpectPrunedCoordinatesZero(pair.sparse->hyperedge_weights(), pair.mask);
  const auto named_sparse = pair.sparse->NamedParameters();
  const auto named_dense = pair.dense->NamedParameters();
  ASSERT_EQ(named_sparse.size(), named_dense.size());
  for (size_t i = 0; i < named_sparse.size(); ++i) {
    const std::vector<float>& a = named_sparse[i].second.Data();
    const std::vector<float>& b = named_dense[i].second.Data();
    ASSERT_EQ(a.size(), b.size()) << named_sparse[i].first;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a[j], b[j], kTrackTolerance)
          << named_sparse[i].first << "[" << j << "]";
    }
  }
  Tensor window = data.WindowInput(55, config.train.window);
  const std::vector<float> pred_sparse =
      pair.sparse->Forward(window, /*training=*/false).prediction.Data();
  const std::vector<float> pred_dense =
      pair.dense->Forward(window, /*training=*/false).prediction.Data();
  ASSERT_EQ(pred_sparse.size(), pred_dense.size());
  for (size_t i = 0; i < pred_sparse.size(); ++i) {
    EXPECT_NEAR(pred_sparse[i], pred_dense[i], kTrackTolerance)
        << "prediction " << i;
  }
}

// The forecaster's own loop (default config: infomax, gradient
// accumulation, EMA, validation snapshots) keeps the pattern it drew.
TEST(SparseTrainingTest, ForecasterFitKeepsHypergraphPatternFixed) {
  CrimeDataset data = SparseTestCity();
  const SthslConfig config = SparseTrainConfig();
  const NetPair pair = MakeNetPair(config, data, 50);
  SthslForecaster model(config);
  model.Fit(data, 50);
  ASSERT_NE(model.net(), nullptr);
  ExpectPrunedCoordinatesZero(model.net()->hyperedge_weights(), pair.mask);
  // The live coordinates did train.
  const std::vector<float>& h = model.net()->hyperedge_weights().Data();
  const std::vector<float>& h0 = pair.sparse->hyperedge_weights().Data();
  int64_t moved = 0;
  for (size_t i = 0; i < h.size(); ++i) moved += h[i] != h0[i] ? 1 : 0;
  EXPECT_GT(moved, 0);
}

}  // namespace
}  // namespace sthsl
