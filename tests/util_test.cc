// Tests for the utility substrate: Status/Result, RNG distributions, CSV,
// and the JSON writer.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/flags.h"
#include "util/json_mini.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace sthsl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad shape");
  EXPECT_EQ(Status::IoError("x").code(), Status::Code::kIoError);
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), Status::Code::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), Status::Code::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            Status::Code::kFailedPrecondition);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng c(124);
  EXPECT_NE(Rng(123).NextU64(), c.NextU64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, DropoutMaskMatchesBernoulliLoop) {
  for (float p : {0.0f, 1e-9f, 0.2f, 0.5f, 0.999f}) {
    const float keep = 1.0f / (1.0f - p);
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{229376}}) {
      Rng loop(91);
      Rng fused(91);
      std::vector<float> want(static_cast<size_t>(n));
      std::vector<float> got(static_cast<size_t>(n), -1.0f);
      for (float& m : want) m = loop.Bernoulli(p) ? 0.0f : keep;
      fused.DropoutMask(p, keep, got.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                  std::bit_cast<uint32_t>(want[i]))
            << "p=" << p << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(loop.NextU64(), fused.NextU64()) << "p=" << p << " n=" << n;
    }
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
  }
  // n=1 always returns 0.
  EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanSmallAndLargeRates) {
  Rng rng(4);
  for (double rate : {0.3, 3.0, 80.0}) {
    double total = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) total += rng.Poisson(rate);
    EXPECT_NEAR(total / n, rate, rate * 0.1 + 0.05) << "rate " << rate;
  }
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ParetoHeavyTail) {
  Rng rng(5);
  int above10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Pareto(1.0, 1.2);
    EXPECT_GE(x, 1.0);
    if (x > 10.0) ++above10;
  }
  // P(X > 10) = 10^-1.2 ~ 0.063 for alpha=1.2.
  EXPECT_NEAR(static_cast<double>(above10) / n, 0.063, 0.02);
}

TEST(RngTest, GammaMean) {
  Rng rng(6);
  for (double shape : {0.5, 2.0, 9.0}) {
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += rng.Gamma(shape, 2.0);
    EXPECT_NEAR(total / n, shape * 2.0, shape * 2.0 * 0.06)
        << "shape " << shape;
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(7);
  auto perm = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (int v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(8);
  Rng child = parent.Fork();
  // Streams should differ from each other and from the parent's continuation.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(LoggingTest, Iso8601TimestampFormat) {
  const std::string ts = internal_logging::FormatTimestampIso8601();
  // "YYYY-MM-DDTHH:MM:SS.mmmZ" — 24 characters with fixed separators.
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts[23], 'Z');
  for (size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u, 15u, 17u,
                   18u, 20u, 21u, 22u}) {
    EXPECT_TRUE(ts[i] >= '0' && ts[i] <= '9') << "position " << i;
  }
}

TEST(LoggingTest, LogLevelRoundTrip) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(saved);
}

TEST(TimerTest, ElapsedUnitsAgree) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  const double seconds = timer.ElapsedSeconds();
  const double micros = timer.ElapsedMicros();
  EXPECT_GT(micros, 0.0);
  // Micros read slightly later than seconds; both measure the same clock.
  EXPECT_GE(micros, seconds * 1e6);
  EXPECT_LT(micros, (seconds + 0.1) * 1e6);
}

TEST(ParseIntFlagTest, AcceptsOnlyWholeIntegersInRange) {
  EXPECT_EQ(ParseIntFlag("--n", "42", 0, 100).value(), 42);
  EXPECT_EQ(ParseIntFlag("--n", "-7", -10, 10).value(), -7);
  EXPECT_EQ(ParseIntFlag("--n", "0", 0, 0).value(), 0);
  for (const char* text : {"", "abc", "12x", " 12", "12 ", "+5", "1.5",
                           "0x10"}) {
    const Result<int64_t> parsed = ParseIntFlag("--n", text, -100, 100);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(),
              "--n must be an integer, got '" + std::string(text) + "'");
  }
  // Out of range, including values past int64_t that strtoll would clamp.
  for (const char* text : {"101", "-101", "70000", "99999999999999999999"}) {
    const Result<int64_t> parsed = ParseIntFlag("PORT", text, -100, 100);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().message(),
              "PORT must be in [-100, 100], got " + std::string(text));
  }
}

TEST(ParseDoubleFlagTest, AcceptsOnlyWholeFiniteNumbersInRange) {
  EXPECT_EQ(ParseDoubleFlag("--q", "200", 0, 1e9).value(), 200.0);
  EXPECT_EQ(ParseDoubleFlag("--q", "2.5", 0, 1e9).value(), 2.5);
  EXPECT_EQ(ParseDoubleFlag("--q", "-1e-3", -1, 1).value(), -1e-3);
  EXPECT_EQ(ParseDoubleFlag("--q", "0", 0, 0).value(), 0.0);
  for (const char* text : {"", "abc", "5x", "2OO", " 1", "1 ", "+5", "inf",
                           "-inf", "nan", "0x10"}) {
    const Result<double> parsed = ParseDoubleFlag("--q", text, -1e9, 1e9);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(),
              "--q must be a finite number, got '" + std::string(text) + "'");
  }
  // Out of range, including values past double that strtod would make inf.
  for (const char* text : {"1000.5", "-0.5", "1e400"}) {
    const Result<double> parsed = ParseDoubleFlag("--q", text, 0, 1000);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().message(),
              "--q must be in [0, 1000], got " + std::string(text));
  }
}

TEST(EnvIntOrTest, BadValueFallsBackWithOneLineNamingIt) {
  const char* name = "STHSL_UTIL_TEST_ENV_INT";
  unsetenv(name);
  EXPECT_EQ(EnvIntOr(name, 7, 1, 100), 7);
  setenv(name, "", 1);
  EXPECT_EQ(EnvIntOr(name, 7, 1, 100), 7);
  setenv(name, "42", 1);
  EXPECT_EQ(EnvIntOr(name, 7, 1, 100), 42);
  for (const char* text : {"4abc", "0", "101"}) {
    setenv(name, text, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(EnvIntOr(name, 7, 1, 100), 7) << text;
    const std::string line = testing::internal::GetCapturedStderr();
    EXPECT_EQ(line, "sthsl: " +
                        ParseIntFlag(name, text, 1, 100).status().message() +
                        "; falling back to 7\n");
  }
  unsetenv(name);
}

TEST(CsvTest, SplitPlainLine) {
  auto cells = SplitCsvLine("a,b,c");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "c");
}

TEST(CsvTest, SplitQuotedCells) {
  auto cells = SplitCsvLine("\"x,y\",plain,\"he said \"\"hi\"\"\"");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "x,y");
  EXPECT_EQ(cells[1], "plain");
  EXPECT_EQ(cells[2], "he said \"hi\"");
}

TEST(CsvTest, EmptyCells) {
  auto cells = SplitCsvLine(",,");
  ASSERT_EQ(cells.size(), 3u);
  for (const auto& c : cells) EXPECT_TRUE(c.empty());
}

TEST(CsvTest, WriteReadRoundTrip) {
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"plain", "1"}, {"with,comma", "2"}, {"with\"quote", "3"}};
  const std::string path = "/tmp/sthsl_util_csv_test.csv";
  ASSERT_TRUE(WriteCsv(path, table).ok());
  auto loaded_or = ReadCsv(path);
  ASSERT_TRUE(loaded_or.ok());
  const CsvTable& loaded = loaded_or.value();
  EXPECT_EQ(loaded.header, table.header);
  ASSERT_EQ(loaded.rows.size(), table.rows.size());
  EXPECT_EQ(loaded.rows[1][0], "with,comma");
  EXPECT_EQ(loaded.rows[2][0], "with\"quote");
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsIoError) {
  auto result = ReadCsv("/tmp/definitely_missing_sthsl.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIoError);
}

json::JsonValue ParseJson(const std::string& text) {
  json::JsonValue value;
  std::string error;
  EXPECT_TRUE(json::JsonParser(text).Parse(&value, &error))
      << error << ": " << text;
  return value;
}

TEST(JsonWriterTest, EscapesEveryControlByteAndRoundTrips) {
  std::string text = "quote\" backslash\\ ";
  for (int c = 0; c < 0x20; ++c) text += static_cast<char>(c);
  const std::string literal = json::JsonWriter().String(text).str();
  for (char c : literal) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  EXPECT_EQ(ParseJson(literal).text, text);
}

TEST(JsonWriterTest, FloatsRoundTripBitwiseAsPercent9g) {
  std::vector<float> values = {0.0f,
                               -0.0f,
                               std::numeric_limits<float>::denorm_min(),
                               -std::numeric_limits<float>::denorm_min(),
                               FLT_MIN,
                               FLT_MAX,
                               -FLT_MAX,
                               1.0f / 3.0f,
                               0.1f};
  std::mt19937 bits(7);
  while (values.size() < 20000) {
    const float value = std::bit_cast<float>(static_cast<uint32_t>(bits()));
    if (std::isfinite(value)) values.push_back(value);
  }
  for (float value : values) {
    const std::string text = json::JsonWriter().Number(value).str();
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.9g",
                  static_cast<double>(value));
    ASSERT_EQ(text, expected);
    const float parsed = static_cast<float>(ParseJson(text).number);
    ASSERT_EQ(std::bit_cast<uint32_t>(parsed), std::bit_cast<uint32_t>(value))
        << text;
  }
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  std::vector<double> values = {0.0, -0.0, 0.1, 1.0 / 3.0, 1e300, -2.5e-300,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max()};
  std::mt19937_64 bits(11);
  while (values.size() < 20000) {
    const double value = std::bit_cast<double>(static_cast<uint64_t>(bits()));
    if (std::isfinite(value)) values.push_back(value);
  }
  for (double value : values) {
    const std::string text = json::JsonWriter().Number(value).str();
    ASSERT_EQ(std::bit_cast<uint64_t>(ParseJson(text).number),
              std::bit_cast<uint64_t>(value))
        << text;
  }
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  const double inf = std::numeric_limits<double>::infinity();
  json::JsonWriter json;
  json.BeginArray().Number(std::nan("")).Number(inf).Number(-inf);
  json.Number(std::nanf("")).Number(static_cast<float>(-inf)).EndArray();
  EXPECT_EQ(json.str(), "[null,null,null,null,null]");
}

TEST(JsonWriterTest, SeparatorsNestAndRawIsVerbatim) {
  json::JsonWriter json;
  json.BeginObject().Key("a").BeginArray().Int(1).BeginArray().EndArray();
  json.BeginObject().EndObject().Bool(false).Null().Int(-3).EndArray();
  json.Key("raw").Raw(R"({"x":[1, 2]})").Key("s").String("v");
  json.Key("o").BeginObject().Key("k").Int(int64_t{1} << 40).EndObject();
  json.EndObject();
  EXPECT_EQ(json.str(),
            R"({"a":[1,[],{},false,null,-3],"raw":{"x":[1, 2]},"s":"v",)"
            R"("o":{"k":1099511627776}})");
  ParseJson(json.str());
}

}  // namespace
}  // namespace sthsl
