#include "analyze/analyzer.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analyze/baseline.h"
#include "analyze/concurrency.h"
#include "analyze/determinism.h"
#include "analyze/headers.h"
#include "analyze/include_graph.h"
#include "util/json_mini.h"

namespace sthsl::analyze {
namespace {

bool PassSelected(const AnalyzeOptions& options, const std::string& name) {
  if (options.only_passes.empty()) return true;
  return std::find(options.only_passes.begin(), options.only_passes.end(),
                   name) != options.only_passes.end();
}

void Append(std::vector<Finding>& into, std::vector<Finding> findings) {
  for (Finding& f : findings) into.push_back(std::move(f));
}

std::string RenderText(const AnalyzeResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    out << f.path;
    if (f.line > 0) out << ":" << f.line;
    out << ": " << SeverityName(f.severity) << " [" << f.rule << "] "
        << f.message << "\n";
  }
  out << "sthsl_analyze: " << result.files_scanned << " files, "
      << result.findings.size() << " finding(s), " << result.suppressed
      << " suppressed\n";
  return out.str();
}

std::string RenderJson(const AnalyzeResult& result) {
  json::JsonWriter json;
  json.BeginObject().Key("findings").BeginArray();
  for (const Finding& f : result.findings) {
    json.BeginObject().Key("path").String(f.path).Key("line").Int(f.line);
    json.Key("rule").String(f.rule);
    json.Key("severity").String(SeverityName(f.severity));
    json.Key("message").String(f.message).EndObject();
  }
  json.EndArray().Key("files_scanned").Int(result.files_scanned);
  json.Key("suppressed").Int(result.suppressed).EndObject();
  return std::move(json).str() + "\n";
}

const char* SarifLevel(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "error";
}

std::string RenderSarif(const AnalyzeResult& result) {
  json::JsonWriter json;
  json.BeginObject().Key("version").String("2.1.0");
  json.Key("$schema").String(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json");
  json.Key("runs").BeginArray().BeginObject();
  json.Key("tool").BeginObject().Key("driver").BeginObject();
  json.Key("name").String("sthsl_analyze");
  json.Key("informationUri").String("docs/correctness_tooling.md");
  json.Key("rules").BeginArray();
  for (const RuleInfo& r : Rules()) {
    json.BeginObject().Key("id").String(r.id);
    json.Key("shortDescription").BeginObject().Key("text").String(r.summary);
    json.EndObject().Key("properties").BeginObject().Key("pass").String(r.pass);
    json.EndObject().Key("defaultConfiguration").BeginObject();
    json.Key("level").String(SarifLevel(r.severity)).EndObject().EndObject();
  }
  json.EndArray().EndObject().EndObject().Key("results").BeginArray();
  for (const Finding& f : result.findings) {
    json.BeginObject().Key("ruleId").String(f.rule);
    json.Key("level").String(SarifLevel(f.severity));
    json.Key("message").BeginObject().Key("text").String(f.message);
    json.EndObject().Key("locations").BeginArray().BeginObject();
    json.Key("physicalLocation").BeginObject();
    json.Key("artifactLocation").BeginObject().Key("uri").String(f.path);
    json.EndObject().Key("region").BeginObject();
    json.Key("startLine").Int(f.line > 0 ? f.line : 1).EndObject();
    json.EndObject().EndObject().EndArray().EndObject();
  }
  json.EndArray().EndObject().EndArray().EndObject();
  return std::move(json).str() + "\n";
}

}  // namespace

const std::vector<std::string>& PassNames() {
  static const std::vector<std::string> names = {"layering", "determinism",
                                                 "concurrency", "headers"};
  return names;
}

AnalyzeResult RunAnalysisOnFiles(const std::vector<SourceFile>& files,
                                 const AnalyzeOptions& options) {
  AnalyzeResult result;
  result.ok = true;
  result.files_scanned = static_cast<int>(files.size());
  std::vector<Finding> findings;
  if (PassSelected(options, "layering")) {
    Append(findings, RunLayeringPass(files));
  }
  if (PassSelected(options, "determinism")) {
    Append(findings, RunDeterminismPass(files));
  }
  if (PassSelected(options, "concurrency")) {
    Append(findings, RunConcurrencyPass(files));
  }
  if (PassSelected(options, "headers")) {
    Append(findings, RunHeaderPass(files));
    if (options.check_self_contained && !options.root.empty()) {
      Append(findings,
             RunSelfContainedCheck(options.root, files, options.compiler));
    }
  }
  SortFindings(findings);

  if (!options.baseline_path.empty()) {
    std::ifstream in(options.baseline_path);
    if (!in) {
      result.ok = false;
      result.error = "cannot read baseline " + options.baseline_path;
      return result;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<Finding> baseline_errors;
    const Baseline baseline =
        ParseBaseline(text.str(), options.baseline_path, &baseline_errors);
    result.suppressed = ApplyBaseline(baseline, &findings);
    Append(findings, std::move(baseline_errors));
    SortFindings(findings);
  }
  result.findings = std::move(findings);
  return result;
}

AnalyzeResult RunAnalysis(const AnalyzeOptions& options) {
  AnalyzeResult result;
  std::vector<SourceFile> files;
  if (!LoadSourceTree(options.root, &files, &result.error)) {
    result.ok = false;
    return result;
  }
  return RunAnalysisOnFiles(files, options);
}

std::string RenderReport(const AnalyzeResult& result,
                         const std::string& format) {
  if (format == "json") return RenderJson(result);
  if (format == "sarif") return RenderSarif(result);
  return RenderText(result);
}

}  // namespace sthsl::analyze
