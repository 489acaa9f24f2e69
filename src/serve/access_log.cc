#include "serve/access_log.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/json_mini.h"
#include "util/logging.h"

namespace sthsl::serve {
namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  const int64_t parsed = std::atoll(value);
  return parsed > 0 ? parsed : fallback;
}

}  // namespace

AccessLog& AccessLog::Global() {
  static AccessLog* log = [] {
    auto* instance = new AccessLog();
    const char* path = std::getenv("STHSL_ACCESS_LOG");
    if (path != nullptr && path[0] != '\0') {
      instance->Configure(
          path, EnvInt64("STHSL_ACCESS_LOG_MAX_BYTES", int64_t{64} << 20),
          static_cast<double>(EnvInt64("STHSL_SLOW_REQUEST_US", 0)));
    }
    return instance;
  }();
  return *log;
}

void AccessLog::Configure(const std::string& path, int64_t max_bytes,
                          double slow_threshold_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_ = path;
  max_bytes_ = max_bytes;
  slow_threshold_us_ = slow_threshold_us;
  written_bytes_ = 0;
  if (path_.empty()) {
    enabled_ = false;
    return;
  }
  file_ = std::fopen(path_.c_str(), "a");
  if (file_ == nullptr) {
    STHSL_LOG(Error) << "access log: cannot open " << path_
                     << "; logging disabled";
    enabled_ = false;
    return;
  }
  // Appending to an existing file: count what is already there toward the
  // rotation budget.
  const long offset = std::ftell(file_);
  written_bytes_ = offset > 0 ? offset : 0;
  enabled_ = true;
}

void AccessLog::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated = path_ + ".1";
  std::remove(rotated.c_str());
  if (std::rename(path_.c_str(), rotated.c_str()) != 0) {
    STHSL_LOG(Warning) << "access log: rotation rename failed for " << path_;
  }
  file_ = std::fopen(path_.c_str(), "w");
  written_bytes_ = 0;
  if (file_ == nullptr) {
    STHSL_LOG(Error) << "access log: cannot reopen " << path_
                     << " after rotation; logging disabled";
    enabled_ = false;
  }
}

void AccessLog::Write(const Record& record) {
  if (!enabled_ || record.context == nullptr) return;
  const RequestContext& context = *record.context;
  const bool slow =
      slow_threshold_us_ > 0.0 && record.total_us > slow_threshold_us_;

  json::JsonWriter json;
  json.BeginObject().Key("ts");
  json.String(internal_logging::FormatTimestampIso8601());
  json.Key("trace_id").String(context.trace_id);
  json.Key("span_id").String(context.span_id);
  json.Key("method").String(record.method).Key("path").String(record.path);
  json.Key("status").Int(record.status).Key("bytes").Int(record.bytes);
  json.Key("total_us").Number(record.total_us).Key("stages").BeginObject();
  for (int i = 0; i < kNumStages; ++i) {
    json.Key(StageName(static_cast<Stage>(i)))
        .Number(context.stage_us[static_cast<size_t>(i)]);
  }
  json.EndObject();
  if (record.batch_size >= 0) {
    json.Key("cache_hit").Bool(record.cache_hit);
    json.Key("batch_size").Int(record.batch_size);
  }
  if (slow) json.Key("slow").Bool(true);
  json.EndObject();
  std::string line = std::move(json).str();
  line += '\n';

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ == nullptr) return;
    if (written_bytes_ + static_cast<int64_t>(line.size()) > max_bytes_ &&
        written_bytes_ > 0) {
      RotateLocked();
      if (file_ == nullptr) return;
    }
    std::fwrite(line.data(), 1, line.size(), file_);
    written_bytes_ += static_cast<int64_t>(line.size());
  }

  if (slow) {
    std::ostringstream breakdown;
    breakdown.precision(6);
    for (int i = 0; i < kNumStages; ++i) {
      if (i > 0) breakdown << ' ';
      breakdown << StageName(static_cast<Stage>(i)) << '='
                << context.stage_us[static_cast<size_t>(i)] << "us";
    }
    STHSL_LOG(Warning) << "slow request trace=" << context.trace_id << ' '
                       << record.method << ' ' << record.path
                       << " total=" << record.total_us << "us over threshold "
                       << slow_threshold_us_ << "us: " << breakdown.str();
  }
}

void AccessLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace sthsl::serve
