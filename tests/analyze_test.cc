#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/baseline.h"
#include "analyze/concurrency.h"
#include "analyze/determinism.h"
#include "analyze/headers.h"
#include "analyze/include_graph.h"
#include "analyze/lexer.h"
#include "analyze/token_util.h"
#include "util/json_mini.h"

namespace sthsl::analyze {
namespace {

std::vector<std::string> RuleIds(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.rule);
  return ids;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  const auto ids = RuleIds(findings);
  return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  const auto ids = RuleIds(findings);
  return static_cast<int>(std::count(ids.begin(), ids.end(), rule));
}

// ---------------------------------------------------------------- lexer --

TEST(LexerTest, IdentifiersNumbersAndPunct) {
  const auto tokens = Lex("int x = a->b + 1'000 * 0x1fULL;");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].IsIdent("int"));
  EXPECT_TRUE(tokens[1].IsIdent("x"));
  EXPECT_TRUE(tokens[2].IsPunct("="));
  EXPECT_TRUE(tokens[3].IsIdent("a"));
  EXPECT_TRUE(tokens[4].IsPunct("->"));
  EXPECT_TRUE(tokens[5].IsIdent("b"));
  EXPECT_TRUE(tokens[6].IsPunct("+"));
  EXPECT_TRUE(tokens[7].Is(TokenKind::kNumber, "1'000"));
  EXPECT_TRUE(tokens[8].IsPunct("*"));
  EXPECT_TRUE(tokens[9].Is(TokenKind::kNumber, "0x1fULL"));
}

TEST(LexerTest, CommentsAreConsumed) {
  const auto tokens = Lex(
      "a // line comment with std::thread\n"
      "b /* block with rand() */ c\n"
      "/* multi\n   line */ d");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_TRUE(tokens[0].IsIdent("a"));
  EXPECT_TRUE(tokens[1].IsIdent("b"));
  EXPECT_TRUE(tokens[2].IsIdent("c"));
  EXPECT_TRUE(tokens[3].IsIdent("d"));
  EXPECT_EQ(tokens[3].line, 4);
}

TEST(LexerTest, StringAndCharLiterals) {
  const auto tokens = Lex(R"(x = "str with \" and const_cast"; c = 'y';)");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "str with \\\" and const_cast");
  EXPECT_EQ(tokens[6].kind, TokenKind::kChar);
  EXPECT_EQ(tokens[6].text, "y");
}

TEST(LexerTest, RawStrings) {
  const auto tokens =
      Lex("auto s = R\"tag(body with \"quotes\" and )\" inside)tag\"; b");
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "body with \"quotes\" and )\" inside");
  EXPECT_TRUE(tokens[4].IsPunct(";"));
  // Prefixed raw strings lex the same way.
  const auto prefixed = Lex("u8R\"(x)\" LR\"(y)\"");
  ASSERT_EQ(prefixed.size(), 2u);
  EXPECT_EQ(prefixed[0].text, "x");
  EXPECT_EQ(prefixed[1].text, "y");
}

TEST(LexerTest, RawStringBodyIgnoresLineContinuation) {
  // Inside a raw string a trailing backslash is two literal characters,
  // not a splice.
  const auto tokens = Lex("auto s = R\"(line\\\nnext)\";");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_EQ(tokens[3].text, "line\\\nnext");
}

TEST(LexerTest, LineContinuations) {
  // The identifier is spliced across the physical lines.
  const auto tokens = Lex("con\\\ntinued = 1;\nnext");
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_TRUE(tokens[0].IsIdent("continued"));
  EXPECT_EQ(tokens[0].line, 1);
  // Tokens after the splice land on the correct physical line.
  EXPECT_TRUE(tokens[4].IsIdent("next"));
  EXPECT_EQ(tokens[4].line, 3);
}

TEST(LexerTest, ContinuedLineCommentSwallowsNextLine) {
  const auto tokens = Lex("// comment continues \\\nstd::thread t;\nafter");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].IsIdent("after"));
}

TEST(LexerTest, CommentSpanningMacroDefinition) {
  const auto tokens = Lex(
      "#define BAD(x) /* hides\n"
      "   #define INNER const_cast\n"
      "*/ x\n"
      "BAD(1)");
  // The block comment swallows the fake inner directive; what remains is
  // the real define, its params, the body, and the use.
  ASSERT_GE(tokens.size(), 7u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kDirective);
  EXPECT_EQ(tokens[0].text, "define");
  for (const Token& t : tokens) EXPECT_NE(t.text, "const_cast");
}

TEST(LexerTest, IncludeDirectives) {
  const auto tokens = Lex(
      "#include <vector>\n"
      "#include \"tensor/ops.h\"\n"
      "#  include <cmath>\n");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kDirective);
  EXPECT_EQ(tokens[1].kind, TokenKind::kHeaderName);
  EXPECT_EQ(tokens[1].text, "vector");
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "tensor/ops.h");
  EXPECT_EQ(tokens[5].text, "cmath");
}

TEST(LexerTest, DirectiveOnlyAtLineStart) {
  const auto tokens = Lex("int a = b # c;");
  // Mid-line '#' is plain punctuation, not a directive.
  EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokenKind::kPunct && t.text == "#";
  }));
}

// ----------------------------------------------------------- token utils --

TEST(TokenUtilTest, FindsFunctionBodiesNotClassBodies) {
  const auto tokens = Lex(
      "struct S { int x; void F() { x = 1; } };\n"
      "int G(int a) { return a; }\n"
      "std::vector<int> v = {1, 2};\n");
  const auto bodies = FindFunctionBodies(tokens);
  ASSERT_EQ(bodies.size(), 2u);  // F and G; not S's body, not v's init
}

TEST(TokenUtilTest, LockSites) {
  const auto tokens = Lex(
      "void F() {\n"
      "  std::lock_guard<std::mutex> l(pool.mu);\n"
      "  std::scoped_lock both(a_mu_, b_mu_);\n"
      "  std::unique_lock lk(region->done_mu);\n"
      "}\n");
  const auto sites = FindLockSites(tokens, 0, tokens.size());
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].mutexes, std::vector<std::string>{"mu"});
  EXPECT_EQ(sites[1].mutexes, (std::vector<std::string>{"a_mu_", "b_mu_"}));
  EXPECT_EQ(sites[2].mutexes, std::vector<std::string>{"done_mu"});
}

// -------------------------------------------------------------- layering --

TEST(LayeringTest, FlagsUpwardInclude) {
  const std::vector<SourceFile> files = {
      {"src/tensor/bad.cc", "#include \"serve/http.h\"\n"}};
  const auto findings = RunLayeringPass(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-dag");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("serve/http.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("util, exec, simd, sparse, tensor"),
            std::string::npos);
}

TEST(LayeringTest, SimdSitsBetweenExecAndTensor) {
  // simd may reach util and exec; tensor may reach simd; the reverse
  // directions are layering errors.
  const std::vector<SourceFile> ok = {
      {"src/simd/dispatch.cc", "#include \"exec/exec.h\"\n"},
      {"src/simd/avx2.cc", "#include \"simd/simd.h\"\n"},
      {"src/tensor/matmul.cc", "#include \"simd/simd.h\"\n"}};
  EXPECT_TRUE(RunLayeringPass(ok).empty());
  const std::vector<SourceFile> bad = {
      {"src/simd/bad.cc", "#include \"tensor/tensor.h\"\n"},
      {"src/exec/bad.cc", "#include \"simd/simd.h\"\n"}};
  const auto findings = RunLayeringPass(bad);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "layer-dag");
  EXPECT_EQ(findings[1].rule, "layer-dag");
}

TEST(LayeringTest, AcceptsDownwardAndSameLayerIncludes) {
  const std::vector<SourceFile> files = {
      {"src/serve/engine.cc",
       "#include \"core/forecaster.h\"\n#include \"serve/cache.h\"\n"
       "#include \"util/check.h\"\n"},
      {"src/nn/layers.cc", "#include \"metrics/metrics.h\"\n"}};
  EXPECT_TRUE(RunLayeringPass(files).empty());
}

TEST(LayeringTest, SparseSitsBetweenExecAndTensor) {
  // tensor may reach down into sparse, sparse down into exec...
  const std::vector<SourceFile> ok = {
      {"src/tensor/sparse_ops.cc", "#include \"sparse/kernels.h\"\n"},
      {"src/sparse/kernels.cc", "#include \"exec/exec.h\"\n"}};
  EXPECT_TRUE(RunLayeringPass(ok).empty());
  // ...but sparse must never include upward into tensor.
  const std::vector<SourceFile> bad = {
      {"src/sparse/bad.cc", "#include \"tensor/tensor.h\"\n"}};
  const auto findings = RunLayeringPass(bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-dag");
}

TEST(LayeringTest, CoreMustNotIncludeBaselines) {
  const std::vector<SourceFile> files = {
      {"src/core/model.cc", "#include \"baselines/registry.h\"\n"}};
  const auto findings = RunLayeringPass(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-dag");
}

TEST(LayeringTest, DetectsIncludeCycle) {
  const std::vector<SourceFile> files = {
      {"src/util/a.h", "#include \"util/b.h\"\n"},
      {"src/util/b.h", "#include \"util/c.h\"\n"},
      {"src/util/c.h", "#include \"util/a.h\"\n"}};
  const auto findings = RunLayeringPass(files);
  ASSERT_EQ(CountRule(findings, "include-cycle"), 1);
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) {
                                 return f.rule == "include-cycle";
                               });
  EXPECT_NE(it->message.find("util/a.h"), std::string::npos);
  EXPECT_NE(it->message.find("util/c.h"), std::string::npos);
}

TEST(LayeringTest, FlagsUnknownLayer) {
  const std::vector<SourceFile> files = {{"src/wild/new_code.cc", "int x;\n"}};
  const auto findings = RunLayeringPass(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unknown-layer");
}

TEST(LayeringTest, IncludesInCommentsAndStringsIgnored) {
  const std::vector<SourceFile> files = {
      {"src/tensor/ok.cc",
       "// #include \"serve/http.h\"\n"
       "const char* s = \"#include \\\"serve/http.h\\\"\";\n"}};
  EXPECT_TRUE(RunLayeringPass(files).empty());
}

// ----------------------------------------------------------- determinism --

TEST(DeterminismTest, FlagsRawThreadingOutsideExecAndServe) {
  const std::vector<SourceFile> files = {
      {"src/tensor/bad.cc",
       "#include <thread>\nvoid F() { std::thread t([]{}); t.detach(); }\n"},
      {"src/util/bad_async.cc", "auto f = std::async([]{});\n"},
      {"src/data/bad_omp.cc", "#pragma omp parallel for\nvoid G();\n"}};
  const auto findings = RunDeterminismPass(files);
  EXPECT_EQ(CountRule(findings, "det-thread"), 4);  // thread, detach, async, omp
}

TEST(DeterminismTest, AllowsThreadingInExecAndServe) {
  const std::vector<SourceFile> files = {
      {"src/exec/pool.cc", "std::thread worker(Loop);\n"},
      {"src/serve/http.cc", "accept_thread_ = std::thread([]{});\n"}};
  EXPECT_TRUE(RunDeterminismPass(files).empty());
}

TEST(DeterminismTest, FlagsRandAndClockInKernels) {
  const std::vector<SourceFile> files = {
      {"src/nn/bad.cc",
       "int a = rand();\nstd::random_device rd;\n"
       "auto t0 = time(nullptr);\n"
       "auto now = std::chrono::system_clock::now();\n"}};
  const auto findings = RunDeterminismPass(files);
  EXPECT_EQ(CountRule(findings, "det-rand"), 2);
  EXPECT_EQ(CountRule(findings, "det-time"), 2);
}

TEST(DeterminismTest, MemberCallsAndStringsDoNotTrip) {
  const std::vector<SourceFile> files = {
      {"src/core/ok.cc",
       "double s = timer.time();\n"            // member access, not libc
       "const char* m = \"rand() is bad\";\n"  // string literal
       "// time(nullptr) in a comment\n"}};
  EXPECT_TRUE(RunDeterminismPass(files).empty());
}

TEST(DeterminismTest, FlagsUnorderedIterationWithFloatAccumulation) {
  const std::vector<SourceFile> files = {
      {"src/tensor/bad.cc",
       "#include <unordered_map>\n"
       "float Sum(const std::unordered_map<int, float>& m) {\n"
       "  float total = 0;\n"
       "  for (const auto& [k, v] : m) total += v;\n"
       "  return total;\n"
       "}\n"}};
  const auto findings = RunDeterminismPass(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "det-unordered-iter");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(DeterminismTest, OrderedIterationAndLookupsAreFine) {
  const std::vector<SourceFile> files = {
      {"src/tensor/ok.cc",
       "#include <map>\n#include <unordered_map>\n"
       "float F(const std::map<int, float>& m,\n"
       "        const std::unordered_map<int, float>& u) {\n"
       "  float total = 0;\n"
       "  for (const auto& [k, v] : m) total += v;\n"  // ordered: fine
       "  auto it = u.find(3);\n"                      // lookup: fine
       "  for (const auto& [k, v] : u) { Use(k); }\n"  // no accumulation
       "  return total;\n"
       "}\n"}};
  EXPECT_TRUE(RunDeterminismPass(files).empty());
}

TEST(DeterminismTest, FlagsIntrinsicHeadersOutsideSimd) {
  const std::vector<SourceFile> files = {
      {"src/tensor/bad.cc", "#include <immintrin.h>\nvoid F();\n"},
      {"src/nn/bad_neon.cc", "#include <arm_neon.h>\n"},
      {"src/exec/bad_sse.cc", "#include <emmintrin.h>\n"}};
  const auto findings = RunDeterminismPass(files);
  EXPECT_EQ(CountRule(findings, "det-intrinsics"), 3);
}

TEST(DeterminismTest, AllowsIntrinsicHeadersInSimd) {
  const std::vector<SourceFile> files = {
      {"src/simd/avx2.cc", "#include <immintrin.h>\n"},
      {"src/simd/neon.cc", "#include <arm_neon.h>\n"}};
  EXPECT_TRUE(RunDeterminismPass(files).empty());
}

TEST(DeterminismTest, QuotedOrCommentedIntrinsicIncludesDoNotTrip) {
  const std::vector<SourceFile> files = {
      {"src/tensor/ok.cc",
       "// #include <immintrin.h>\n"
       "const char* s = \"#include <immintrin.h>\";\n"
       "#include \"simd/simd.h\"\n"}};
  EXPECT_TRUE(RunDeterminismPass(files).empty());
}

// ----------------------------------------------------------- concurrency --

TEST(ConcurrencyTest, FlagsUnguardedFieldTouch) {
  const std::vector<SourceFile> files = {
      {"src/serve/q.cc",
       "struct Q {\n"
       "  std::mutex item_mu_;\n"
       "  std::vector<int> item_list_;\n"
       "  void Bad() { item_list_.clear(); }\n"
       "  void Good() {\n"
       "    std::lock_guard<std::mutex> l(item_mu_);\n"
       "    item_list_.clear();\n"
       "  }\n"
       "};\n"}};
  const auto findings = RunConcurrencyPass(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-field");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(ConcurrencyTest, HeaderConventionAppliesToPairedCc) {
  const std::vector<SourceFile> files = {
      {"src/serve/q.h",
       "#ifndef STHSL_SERVE_Q_H_\n#define STHSL_SERVE_Q_H_\n"
       "#include <mutex>\n#include <vector>\n"
       "struct Q {\n  std::mutex item_mu_;\n  std::vector<int> item_list_;\n"
       "  void Bad();\n};\n#endif  // STHSL_SERVE_Q_H_\n"},
      {"src/serve/q.cc",
       "#include \"serve/q.h\"\nvoid Q::Bad() { item_list_.clear(); }\n"}};
  const auto findings = RunConcurrencyPass(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/serve/q.cc");
  EXPECT_EQ(findings[0].rule, "guarded-field");
}

TEST(ConcurrencyTest, FlagsManualLocking) {
  const std::vector<SourceFile> files = {
      {"src/util/m.cc",
       "struct M { std::mutex work_mu_; };\n"
       "void F(M& m) { m.work_mu_.lock(); m.work_mu_.unlock(); }\n"}};
  const auto findings = RunConcurrencyPass(files);
  EXPECT_EQ(CountRule(findings, "mutex-guard"), 2);
}

TEST(ConcurrencyTest, BareMuIsExemptFromConvention) {
  const std::vector<SourceFile> files = {
      {"src/util/m.cc",
       "struct M { std::mutex mu; int value; };\n"
       "void F(M& m) { m.mu.lock(); m.value = 1; m.mu.unlock(); }\n"}};
  EXPECT_TRUE(RunConcurrencyPass(files).empty());
}

TEST(ConcurrencyTest, FlagsLockOrderInversion) {
  const std::vector<SourceFile> files = {
      {"src/serve/l.cc",
       "struct L { std::mutex a_mu; std::mutex b_mu; };\n"
       "void AB(L& l) {\n"
       "  std::lock_guard<std::mutex> a(l.a_mu);\n"
       "  std::lock_guard<std::mutex> b(l.b_mu);\n"
       "}\n"
       "void BA(L& l) {\n"
       "  std::lock_guard<std::mutex> b(l.b_mu);\n"
       "  std::lock_guard<std::mutex> a(l.a_mu);\n"
       "}\n"}};
  const auto findings = RunConcurrencyPass(files);
  EXPECT_EQ(CountRule(findings, "lock-order"), 1);
}

TEST(ConcurrencyTest, ScopedNestingDoesNotInvert) {
  // The inner lock is released before the second function locks in the
  // other order — but lexically the first function's nesting ends with its
  // scope, so sequential (non-nested) locks never pair.
  const std::vector<SourceFile> files = {
      {"src/serve/l.cc",
       "struct L { std::mutex a_mu; std::mutex b_mu; };\n"
       "void F(L& l) {\n"
       "  { std::lock_guard<std::mutex> a(l.a_mu); }\n"
       "  { std::lock_guard<std::mutex> b(l.b_mu); }\n"
       "}\n"
       "void G(L& l) {\n"
       "  { std::lock_guard<std::mutex> b(l.b_mu); }\n"
       "  { std::lock_guard<std::mutex> a(l.a_mu); }\n"
       "}\n"}};
  EXPECT_TRUE(RunConcurrencyPass(files).empty());
}

TEST(ConcurrencyTest, ScopedLockMultiArgDoesNotSelfPair) {
  const std::vector<SourceFile> files = {
      {"src/serve/l.cc",
       "struct L { std::mutex a_mu; std::mutex b_mu; };\n"
       "void F(L& l) { std::scoped_lock both(l.a_mu, l.b_mu); }\n"
       "void G(L& l) { std::scoped_lock both(l.b_mu, l.a_mu); }\n"}};
  EXPECT_TRUE(RunConcurrencyPass(files).empty());
}

// --------------------------------------------------------------- headers --

TEST(HeaderTest, ExpectedGuardDerivation) {
  EXPECT_EQ(ExpectedGuard("tensor/ops.h"), "STHSL_TENSOR_OPS_H_");
  EXPECT_EQ(ExpectedGuard("util/obs/run_ledger.h"),
            "STHSL_UTIL_OBS_RUN_LEDGER_H_");
}

TEST(HeaderTest, GuardChecks) {
  const std::vector<SourceFile> files = {
      {"src/util/good.h",
       "#ifndef STHSL_UTIL_GOOD_H_\n#define STHSL_UTIL_GOOD_H_\n"
       "#endif  // STHSL_UTIL_GOOD_H_\n"},
      {"src/util/wrong.h",
       "#ifndef WRONG_H\n#define WRONG_H\n#endif\n"},
      {"src/util/missing_define.h",
       "#ifndef STHSL_UTIL_MISSING_DEFINE_H_\n#include <vector>\n#endif\n"},
      {"src/util/none.h", "int x;\n"}};
  const auto findings = RunHeaderPass(files);
  EXPECT_EQ(CountRule(findings, "include-guard"), 3);
  for (const Finding& f : findings) EXPECT_NE(f.path, "src/util/good.h");
}

TEST(HeaderTest, TokenRules) {
  const std::vector<SourceFile> files = {
      {"src/util/bad.cc",
       "void F(const int* p) {\n"
       "  assert(p);\n"
       "  int* q = const_cast<int*>(p);\n"
       "  float f = *reinterpret_cast<const float*>(q);\n"
       "  static_assert(sizeof(int) == 4);\n"  // not a bare assert
       "  STHSL_CHECK(f > 0);\n"               // macro, fine
       "}\n"}};
  const auto findings = RunHeaderPass(files);
  EXPECT_EQ(CountRule(findings, "bare-assert"), 1);
  EXPECT_EQ(CountRule(findings, "const-cast"), 1);
  EXPECT_EQ(CountRule(findings, "reinterpret-cast"), 1);
}

// -------------------------------------------------------------- baseline --

TEST(BaselineTest, ParseAndApply) {
  std::vector<Finding> errors;
  const Baseline baseline = ParseBaseline(
      "# comment\n"
      "src/a.cc:bare-assert:2\n"
      "src/b.cc:const-cast   # all instances\n",
      "test", &errors);
  EXPECT_TRUE(errors.empty());
  std::vector<Finding> findings = {
      {"src/a.cc", 1, "bare-assert", Severity::kError, "m"},
      {"src/a.cc", 2, "bare-assert", Severity::kError, "m"},
      {"src/a.cc", 3, "bare-assert", Severity::kError, "m"},  // overflows
      {"src/b.cc", 1, "const-cast", Severity::kError, "m"},
      {"src/b.cc", 9, "const-cast", Severity::kError, "m"},
      {"src/c.cc", 1, "const-cast", Severity::kError, "m"},  // not listed
  };
  const int suppressed = ApplyBaseline(baseline, &findings);
  EXPECT_EQ(suppressed, 4);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].path, "src/a.cc");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].path, "src/c.cc");
}

TEST(BaselineTest, MalformedAndUnknownRuleLinesReport) {
  std::vector<Finding> errors;
  ParseBaseline("no-colons-here\nsrc/a.cc:not-a-rule\n", "test", &errors);
  EXPECT_EQ(errors.size(), 2u);
}

TEST(BaselineTest, RenderRoundTrips) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 1, "bare-assert", Severity::kError, "m"},
      {"src/a.cc", 5, "bare-assert", Severity::kError, "m"},
      {"src/b.cc", 2, "const-cast", Severity::kError, "m"},
  };
  std::vector<Finding> parse_errors;
  const Baseline round =
      ParseBaseline(RenderBaseline(findings), "gen", &parse_errors);
  EXPECT_TRUE(parse_errors.empty());
  std::vector<Finding> copy = findings;
  EXPECT_EQ(ApplyBaseline(round, &copy), 3);
  EXPECT_TRUE(copy.empty());
}

// -------------------------------------------------------------- analyzer --

std::vector<SourceFile> MixedTree() {
  return {
      {"src/tensor/bad.cc",
       "#include \"serve/http.h\"\nint a = rand();\n"},
      {"src/util/bad.h", "int x;\n"},  // missing guard
  };
}

TEST(AnalyzerTest, OnlyPassesFilter) {
  AnalyzeOptions options;
  options.check_self_contained = false;
  options.only_passes = {"layering"};
  auto result = RunAnalysisOnFiles(MixedTree(), options);
  EXPECT_EQ(RuleIds(result.findings),
            std::vector<std::string>{"layer-dag"});

  options.only_passes = {"determinism", "headers"};
  result = RunAnalysisOnFiles(MixedTree(), options);
  EXPECT_TRUE(HasRule(result.findings, "det-rand"));
  EXPECT_TRUE(HasRule(result.findings, "include-guard"));
  EXPECT_FALSE(HasRule(result.findings, "layer-dag"));
}

TEST(AnalyzerTest, FindingsAreSorted) {
  AnalyzeOptions options;
  options.check_self_contained = false;
  const auto result = RunAnalysisOnFiles(MixedTree(), options);
  for (size_t i = 1; i < result.findings.size(); ++i) {
    const Finding& a = result.findings[i - 1];
    const Finding& b = result.findings[i];
    EXPECT_LE(a.path, b.path);
  }
}

TEST(AnalyzerTest, SarifReportStructure) {
  AnalyzeOptions options;
  options.check_self_contained = false;
  const auto result = RunAnalysisOnFiles(MixedTree(), options);
  json::JsonValue sarif;
  std::string error;
  ASSERT_TRUE(json::JsonParser(RenderReport(result, "sarif"))
                  .Parse(&sarif, &error))
      << error;
  const json::JsonValue* version = sarif.Find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->text, "2.1.0");
  const json::JsonValue& run = sarif.Find("runs")->items.at(0);
  const json::JsonValue& driver = *run.Find("tool")->Find("driver");
  EXPECT_EQ(driver.Find("name")->text, "sthsl_analyze");
  const json::JsonValue* layer_dag = nullptr;
  for (const json::JsonValue& r : run.Find("results")->items) {
    if (r.Find("ruleId")->text == "layer-dag") layer_dag = &r;
  }
  ASSERT_NE(layer_dag, nullptr);
  const json::JsonValue& location =
      *layer_dag->Find("locations")->items.at(0).Find("physicalLocation");
  EXPECT_EQ(location.Find("region")->Find("startLine")->number, 1);
  // Every catalog rule is described in the tool.driver.rules table.
  std::vector<std::string> described;
  for (const json::JsonValue& r : driver.Find("rules")->items) {
    described.push_back(r.Find("id")->text);
  }
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(std::find(described.begin(), described.end(), rule.id),
              described.end())
        << rule.id;
  }
}

TEST(AnalyzerTest, JsonReportEscapes) {
  AnalyzeResult result;
  result.ok = true;
  result.files_scanned = 1;
  result.findings = {{"src/a.cc", 3, "layer-dag", Severity::kError,
                      "message with \"quotes\" and\nnewline"}};
  json::JsonValue report;
  std::string error;
  ASSERT_TRUE(json::JsonParser(RenderReport(result, "json"))
                  .Parse(&report, &error))
      << error;
  EXPECT_EQ(report.Find("findings")->items.at(0).Find("message")->text,
            "message with \"quotes\" and\nnewline");
}

TEST(AnalyzerTest, RuleCatalogIsConsistent) {
  for (const RuleInfo& rule : Rules()) {
    EXPECT_EQ(FindRule(rule.id), &rule);
    const std::string pass = rule.pass;
    EXPECT_TRUE(std::find(PassNames().begin(), PassNames().end(), pass) !=
                PassNames().end())
        << pass;
  }
  EXPECT_EQ(FindRule("no-such-rule"), nullptr);
}

}  // namespace
}  // namespace sthsl::analyze
