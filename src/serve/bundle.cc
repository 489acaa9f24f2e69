#include "serve/bundle.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "nn/serialization.h"
#include "util/json_mini.h"
#include "util/logging.h"

namespace sthsl::serve {
namespace {

using sthsl::json::JsonValue;

const char* PredictionSourceName(PredictionSource source) {
  switch (source) {
    case PredictionSource::kGlobal: return "global";
    case PredictionSource::kLocal: return "local";
    case PredictionSource::kFusion: return "fusion";
  }
  return "global";
}

Status ParsePredictionSource(const std::string& name,
                             PredictionSource* out) {
  if (name == "global") {
    *out = PredictionSource::kGlobal;
  } else if (name == "local") {
    *out = PredictionSource::kLocal;
  } else if (name == "fusion") {
    *out = PredictionSource::kFusion;
  } else {
    return Status::InvalidArgument("manifest arch.prediction_source '" +
                                   name + "' is not global/local/fusion");
  }
  return Status::Ok();
}

std::string RenderManifest(const BundleManifest& m) {
  const SthslConfig& c = m.config;
  json::JsonWriter json;
  json.BeginObject().Key("bundle").String("sthsl").Key("schema").Int(m.schema);
  json.Key("model").String(m.model).Key("window").Int(c.train.window);
  json.Key("arch").BeginObject().Key("dim").Int(c.dim);
  json.Key("num_hyperedges").Int(c.num_hyperedges);
  json.Key("kernel_size").Int(c.kernel_size);
  json.Key("global_temporal_layers").Int(c.global_temporal_layers);
  json.Key("dropout").Number(c.dropout);
  json.Key("leaky_slope").Number(c.leaky_slope);
  json.Key("lambda1").Number(c.lambda1).Key("lambda2").Number(c.lambda2);
  json.Key("temperature").Number(c.temperature);
  json.Key("use_local_encoder").Bool(c.use_local_encoder);
  json.Key("use_spatial_conv").Bool(c.use_spatial_conv);
  json.Key("use_temporal_conv").Bool(c.use_temporal_conv);
  json.Key("use_category_conv").Bool(c.use_category_conv);
  json.Key("use_hypergraph").Bool(c.use_hypergraph);
  json.Key("use_global_temporal").Bool(c.use_global_temporal);
  json.Key("use_infomax").Bool(c.use_infomax);
  json.Key("use_contrastive").Bool(c.use_contrastive);
  json.Key("prediction_source").String(
      PredictionSourceName(c.prediction_source));
  json.EndObject().Key("dataset").BeginObject().Key("city").String(m.city);
  json.Key("rows").Int(m.rows).Key("cols").Int(m.cols);
  json.Key("categories").Int(m.categories);
  json.Key("category_names").BeginArray();
  for (const std::string& name : m.category_names) json.String(name);
  json.EndArray().Key("generator_seed").Int(m.generator_seed).EndObject();
  json.Key("normalization").BeginObject().Key("mean").Number(m.mean);
  json.Key("stddev").Number(m.stddev).EndObject();
  json.Key("provenance").BeginObject().Key("train_seed").Int(m.train_seed);
  json.Key("git_hash").String(m.git_hash);
  json.Key("created_utc").String(m.created_utc);
  json.Key("tool").String(m.tool).EndObject();
  json.Key("weights").String(m.weights_file).EndObject();
  return std::move(json).str() + "\n";
}

// -- Manifest parsing helpers: every failure names the offending field. ------

Status MissingField(const std::string& field) {
  return Status::InvalidArgument("bundle manifest: missing or mistyped field '" +
                                 field + "'");
}

Status GetInt(const JsonValue& obj, const std::string& field, int64_t* out) {
  const JsonValue* v = obj.FindOfKind(field, JsonValue::Kind::kNumber);
  if (v == nullptr) return MissingField(field);
  *out = static_cast<int64_t>(v->number);
  return Status::Ok();
}

Status GetFloat(const JsonValue& obj, const std::string& field, float* out) {
  const JsonValue* v = obj.FindOfKind(field, JsonValue::Kind::kNumber);
  if (v == nullptr) return MissingField(field);
  *out = static_cast<float>(v->number);
  return Status::Ok();
}

Status GetBool(const JsonValue& obj, const std::string& field, bool* out) {
  const JsonValue* v = obj.FindOfKind(field, JsonValue::Kind::kBool);
  if (v == nullptr) return MissingField(field);
  *out = v->boolean;
  return Status::Ok();
}

Status GetString(const JsonValue& obj, const std::string& field,
                 std::string* out) {
  const JsonValue* v = obj.FindOfKind(field, JsonValue::Kind::kString);
  if (v == nullptr) return MissingField(field);
  *out = v->text;
  return Status::Ok();
}

#define SERVE_RETURN_IF_ERROR(expr)            \
  do {                                         \
    const ::sthsl::Status _s = (expr);         \
    if (!_s.ok()) return _s;                   \
  } while (0)

Status ParseManifestJson(const std::string& text, BundleManifest* m) {
  JsonValue root;
  std::string error;
  if (!sthsl::json::JsonParser(text).Parse(&root, &error)) {
    return Status::InvalidArgument("bundle manifest is not valid JSON: " +
                                   error);
  }
  if (!root.Is(JsonValue::Kind::kObject)) {
    return Status::InvalidArgument("bundle manifest root is not an object");
  }
  std::string kind;
  SERVE_RETURN_IF_ERROR(GetString(root, "bundle", &kind));
  if (kind != "sthsl") {
    return Status::InvalidArgument("bundle manifest kind '" + kind +
                                   "' is not 'sthsl'");
  }
  SERVE_RETURN_IF_ERROR(GetInt(root, "schema", &m->schema));
  if (m->schema != 1) {
    return Status::InvalidArgument("unsupported bundle schema " +
                                   std::to_string(m->schema) +
                                   " (this build reads schema 1)");
  }
  SERVE_RETURN_IF_ERROR(GetString(root, "model", &m->model));
  SERVE_RETURN_IF_ERROR(GetInt(root, "window", &m->config.train.window));
  SERVE_RETURN_IF_ERROR(GetString(root, "weights", &m->weights_file));

  const JsonValue* arch = root.FindOfKind("arch", JsonValue::Kind::kObject);
  if (arch == nullptr) return MissingField("arch");
  SthslConfig& c = m->config;
  SERVE_RETURN_IF_ERROR(GetInt(*arch, "dim", &c.dim));
  SERVE_RETURN_IF_ERROR(GetInt(*arch, "num_hyperedges", &c.num_hyperedges));
  SERVE_RETURN_IF_ERROR(GetInt(*arch, "kernel_size", &c.kernel_size));
  SERVE_RETURN_IF_ERROR(
      GetInt(*arch, "global_temporal_layers", &c.global_temporal_layers));
  SERVE_RETURN_IF_ERROR(GetFloat(*arch, "dropout", &c.dropout));
  SERVE_RETURN_IF_ERROR(GetFloat(*arch, "leaky_slope", &c.leaky_slope));
  SERVE_RETURN_IF_ERROR(GetFloat(*arch, "lambda1", &c.lambda1));
  SERVE_RETURN_IF_ERROR(GetFloat(*arch, "lambda2", &c.lambda2));
  SERVE_RETURN_IF_ERROR(GetFloat(*arch, "temperature", &c.temperature));
  SERVE_RETURN_IF_ERROR(
      GetBool(*arch, "use_local_encoder", &c.use_local_encoder));
  SERVE_RETURN_IF_ERROR(
      GetBool(*arch, "use_spatial_conv", &c.use_spatial_conv));
  SERVE_RETURN_IF_ERROR(
      GetBool(*arch, "use_temporal_conv", &c.use_temporal_conv));
  SERVE_RETURN_IF_ERROR(
      GetBool(*arch, "use_category_conv", &c.use_category_conv));
  SERVE_RETURN_IF_ERROR(GetBool(*arch, "use_hypergraph", &c.use_hypergraph));
  SERVE_RETURN_IF_ERROR(
      GetBool(*arch, "use_global_temporal", &c.use_global_temporal));
  SERVE_RETURN_IF_ERROR(GetBool(*arch, "use_infomax", &c.use_infomax));
  SERVE_RETURN_IF_ERROR(
      GetBool(*arch, "use_contrastive", &c.use_contrastive));
  std::string source;
  SERVE_RETURN_IF_ERROR(GetString(*arch, "prediction_source", &source));
  SERVE_RETURN_IF_ERROR(ParsePredictionSource(source, &c.prediction_source));
  SERVE_RETURN_IF_ERROR(ValidateSthslConfig(c));

  const JsonValue* dataset =
      root.FindOfKind("dataset", JsonValue::Kind::kObject);
  if (dataset == nullptr) return MissingField("dataset");
  SERVE_RETURN_IF_ERROR(GetString(*dataset, "city", &m->city));
  SERVE_RETURN_IF_ERROR(GetInt(*dataset, "rows", &m->rows));
  SERVE_RETURN_IF_ERROR(GetInt(*dataset, "cols", &m->cols));
  SERVE_RETURN_IF_ERROR(GetInt(*dataset, "categories", &m->categories));
  SERVE_RETURN_IF_ERROR(
      GetInt(*dataset, "generator_seed", &m->generator_seed));
  const JsonValue* names =
      dataset->FindOfKind("category_names", JsonValue::Kind::kArray);
  if (names == nullptr) return MissingField("dataset.category_names");
  m->category_names.clear();
  for (const JsonValue& item : names->items) {
    if (!item.Is(JsonValue::Kind::kString)) {
      return MissingField("dataset.category_names");
    }
    m->category_names.push_back(item.text);
  }

  const JsonValue* norm =
      root.FindOfKind("normalization", JsonValue::Kind::kObject);
  if (norm == nullptr) return MissingField("normalization");
  SERVE_RETURN_IF_ERROR(GetFloat(*norm, "mean", &m->mean));
  SERVE_RETURN_IF_ERROR(GetFloat(*norm, "stddev", &m->stddev));

  const JsonValue* prov =
      root.FindOfKind("provenance", JsonValue::Kind::kObject);
  if (prov == nullptr) return MissingField("provenance");
  int64_t train_seed = 0;
  SERVE_RETURN_IF_ERROR(GetInt(*prov, "train_seed", &train_seed));
  m->train_seed = static_cast<uint64_t>(train_seed);
  SERVE_RETURN_IF_ERROR(GetString(*prov, "git_hash", &m->git_hash));
  SERVE_RETURN_IF_ERROR(GetString(*prov, "created_utc", &m->created_utc));
  SERVE_RETURN_IF_ERROR(GetString(*prov, "tool", &m->tool));

  // Cross-field consistency: a manifest that parses but cannot describe a
  // runnable network is rejected here rather than at first request.
  if (m->rows <= 0 || m->cols <= 0 || m->categories <= 0) {
    return Status::InvalidArgument(
        "bundle manifest: dataset rows/cols/categories must be positive");
  }
  if (m->config.train.window <= 0) {
    return Status::InvalidArgument("bundle manifest: window must be >= 1");
  }
  if (!m->category_names.empty() &&
      static_cast<int64_t>(m->category_names.size()) != m->categories) {
    return Status::InvalidArgument(
        "bundle manifest: category_names lists " +
        std::to_string(m->category_names.size()) + " names but categories=" +
        std::to_string(m->categories));
  }
  if (!(m->stddev > 0.0f)) {
    return Status::InvalidArgument(
        "bundle manifest: normalization.stddev must be > 0");
  }
  if (m->weights_file.empty() ||
      m->weights_file.find('/') != std::string::npos) {
    return Status::InvalidArgument(
        "bundle manifest: weights must name a file inside the bundle");
  }
  return Status::Ok();
}

#undef SERVE_RETURN_IF_ERROR

}  // namespace

Status WriteBundle(const SthslForecaster& model, const std::string& dir,
                   const BundleManifest& provenance) {
  const SthslNet* net = model.net();
  if (net == nullptr) {
    return Status::FailedPrecondition(
        "cannot export a bundle before the model is fitted/materialized");
  }
  BundleManifest manifest = provenance;
  manifest.schema = 1;
  manifest.model = model.Name();
  manifest.config = net->config();
  manifest.rows = net->grid_rows();
  manifest.cols = net->grid_cols();
  manifest.categories = net->num_categories();
  manifest.mean = net->mean();
  manifest.stddev = net->stddev();
  manifest.train_seed = model.train_config().seed;
  if (manifest.git_hash.empty()) manifest.git_hash = "unknown";
  if (manifest.created_utc.empty()) {
    manifest.created_utc = internal_logging::FormatTimestampIso8601();
  }
  if (manifest.weights_file.empty()) manifest.weights_file = "weights.bin";

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create bundle directory " + dir + ": " +
                           ec.message());
  }
  const Status weights =
      SaveCheckpoint(*net, dir + "/" + manifest.weights_file);
  if (!weights.ok()) return weights;

  const std::string manifest_path = dir + "/manifest.json";
  std::ofstream out(manifest_path);
  if (!out.is_open()) {
    return Status::IoError("cannot open " + manifest_path + " for writing");
  }
  out << RenderManifest(manifest);
  out.flush();
  if (!out.good()) return Status::IoError("write failed: " + manifest_path);
  return Status::Ok();
}

Result<BundleManifest> ReadManifest(const std::string& dir) {
  const std::string path = dir + "/manifest.json";
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open bundle manifest " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  BundleManifest manifest;
  const Status parsed = ParseManifestJson(text.str(), &manifest);
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.message());
  }
  return manifest;
}

Result<LoadedBundle> LoadBundle(const std::string& dir) {
  Result<BundleManifest> manifest_or = ReadManifest(dir);
  if (!manifest_or.ok()) return manifest_or.status();
  LoadedBundle bundle;
  bundle.manifest = std::move(manifest_or).value();

  bundle.model = std::make_unique<SthslForecaster>(bundle.manifest.config,
                                                   bundle.manifest.model);
  bundle.model->MaterializeForInference(
      bundle.manifest.rows, bundle.manifest.cols, bundle.manifest.categories,
      bundle.manifest.mean, bundle.manifest.stddev);
  const Status loaded =
      LoadCheckpoint(*bundle.model->mutable_net(),
                     dir + "/" + bundle.manifest.weights_file);
  if (!loaded.ok()) {
    return Status::FailedPrecondition(
        "bundle weights do not match the manifest architecture: " +
        loaded.ToString());
  }
  return bundle;
}

}  // namespace sthsl::serve
