#include "analyze/include_graph.h"

#include <algorithm>
#include <set>

#include "analyze/lexer.h"

namespace sthsl::analyze {
namespace {

std::string JoinLayers(const std::vector<std::string>& layers) {
  std::string out;
  for (const std::string& layer : layers) {
    if (!out.empty()) out += ", ";
    out += layer;
  }
  return out;
}

std::string LayerOf(const std::string& src_relative_path) {
  const size_t slash = src_relative_path.find('/');
  return slash == std::string::npos ? std::string()
                                    : src_relative_path.substr(0, slash);
}

// Tarjan-free cycle reporting: iterative DFS with an on-stack mark; the
// first back edge found per strongly connected region yields one finding
// describing the full cycle path.
class CycleFinder {
 public:
  explicit CycleFinder(
      const std::map<std::string, std::vector<std::pair<std::string, int>>>&
          graph)
      : graph_(graph) {}

  std::vector<Finding> Run() {
    for (const auto& [node, edges] : graph_) {
      (void)edges;
      if (!visited_.count(node)) Dfs(node);
    }
    return findings_;
  }

 private:
  void Dfs(const std::string& start) {
    // Explicit stack of (node, next-edge-index) to keep deep include
    // chains off the call stack.
    std::vector<std::pair<std::string, size_t>> stack{{start, 0}};
    on_path_.insert(start);
    path_.push_back(start);
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      static const std::vector<std::pair<std::string, int>> kNoEdges;
      const auto it = graph_.find(node);
      const auto& edges = it != graph_.end() ? it->second : kNoEdges;
      if (next < edges.size()) {
        const auto& [target, line] = edges[next++];
        if (on_path_.count(target)) {
          ReportCycle(target, node, line);
          continue;
        }
        if (visited_.count(target)) continue;
        on_path_.insert(target);
        path_.push_back(target);
        stack.emplace_back(target, 0);
        continue;
      }
      visited_.insert(node);
      on_path_.erase(node);
      path_.pop_back();
      stack.pop_back();
    }
  }

  void ReportCycle(const std::string& cycle_entry, const std::string& from,
                   int line) {
    const auto begin = std::find(path_.begin(), path_.end(), cycle_entry);
    std::string chain;
    for (auto it = begin; it != path_.end(); ++it) chain += *it + " -> ";
    chain += cycle_entry;
    // One finding per distinct cycle (keyed by its sorted member set).
    std::set<std::string> members(begin, path_.end());
    std::string key;
    for (const std::string& m : members) key += m + "|";
    if (!reported_.insert(key).second) return;
    findings_.push_back({from, line, "include-cycle", Severity::kError,
                         "include cycle: " + chain});
  }

  const std::map<std::string, std::vector<std::pair<std::string, int>>>&
      graph_;
  std::set<std::string> visited_;
  std::set<std::string> on_path_;
  std::vector<std::string> path_;
  std::set<std::string> reported_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<IncludeEdge> ExtractIncludeEdges(
    const std::vector<SourceFile>& files) {
  std::vector<IncludeEdge> edges;
  for (const SourceFile& file : files) {
    const std::vector<Token> tokens = Lex(file.text);
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind != TokenKind::kDirective ||
          tokens[i].text != "include") {
        continue;
      }
      const Token& target = tokens[i + 1];
      if (target.kind != TokenKind::kString) continue;  // <...> is system
      edges.push_back({file.path, target.line, target.text});
    }
  }
  return edges;
}

const std::map<std::string, std::vector<std::string>>& LayerTable() {
  // The layer DAG (ROADMAP / docs/performance.md): each layer may include
  // itself, util, and the layers named here. nn and metrics sit side by
  // side and may reach each other; baselines builds on core (it wraps the
  // shared Forecaster interface) but never the reverse.
  static const std::map<std::string, std::vector<std::string>> table = {
      {"util", {"util"}},
      {"exec", {"util", "exec"}},
      {"analyze", {"util", "analyze"}},
      {"simd", {"util", "exec", "simd"}},
      {"tensor", {"util", "exec", "simd", "tensor"}},
      {"nn", {"util", "exec", "simd", "tensor", "nn", "metrics"}},
      {"metrics", {"util", "exec", "simd", "tensor", "nn", "metrics"}},
      {"data", {"util", "exec", "simd", "tensor", "nn", "metrics", "data"}},
      {"core",
       {"util", "exec", "simd", "tensor", "nn", "metrics", "data", "core"}},
      {"baselines",
       {"util", "exec", "simd", "tensor", "nn", "metrics", "data", "core",
        "baselines"}},
      {"serve",
       {"util", "exec", "simd", "tensor", "nn", "metrics", "data", "core",
        "baselines", "serve"}},
  };
  return table;
}

std::vector<Finding> RunLayeringPass(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  const auto& table = LayerTable();

  // Per-layer DAG check on every quoted include.
  const std::vector<IncludeEdge> edges = ExtractIncludeEdges(files);
  for (const SourceFile& file : files) {
    const std::string layer = file.Layer();
    if (layer.empty()) continue;
    if (!table.count(layer)) {
      findings.push_back(
          {file.path, 0, "unknown-layer", Severity::kError,
           "directory src/" + layer +
               "/ is not in the layer table; register it in "
               "src/analyze/include_graph.cc with its allowed dependencies"});
    }
  }
  for (const IncludeEdge& edge : edges) {
    const std::string from_layer = LayerOf(
        edge.from.rfind("src/", 0) == 0 ? edge.from.substr(4) : edge.from);
    const std::string to_layer = LayerOf(edge.target);
    if (from_layer.empty() || to_layer.empty()) continue;
    const auto from_it = table.find(from_layer);
    const auto to_it = table.find(to_layer);
    if (from_it == table.end() || to_it == table.end()) continue;
    const auto& allowed = from_it->second;
    if (std::find(allowed.begin(), allowed.end(), to_layer) ==
        allowed.end()) {
      findings.push_back(
          {edge.from, edge.line, "layer-dag", Severity::kError,
           "layer '" + from_layer + "' must not include '" + edge.target +
               "' (layer '" + to_layer + "'); '" + from_layer +
               "' may only include layers: " + JoinLayers(allowed)});
    }
  }

  // Cycle detection on the file-level include graph (src-relative names).
  std::map<std::string, std::vector<std::pair<std::string, int>>> graph;
  std::set<std::string> known;
  for (const SourceFile& file : files) known.insert(file.PathInSrc());
  for (const IncludeEdge& edge : edges) {
    const std::string from =
        edge.from.rfind("src/", 0) == 0 ? edge.from.substr(4) : edge.from;
    if (known.count(edge.target)) {
      graph[from].emplace_back(edge.target, edge.line);
    }
  }
  CycleFinder cycles(graph);
  std::vector<Finding> cycle_findings = cycles.Run();
  // Cycle findings name src-relative paths; restore the repo-relative form.
  for (Finding& f : cycle_findings) {
    if (f.path.rfind("src/", 0) != 0) f.path = "src/" + f.path;
    findings.push_back(std::move(f));
  }
  return findings;
}

}  // namespace sthsl::analyze
