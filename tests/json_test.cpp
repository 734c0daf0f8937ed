// Tests for the from-scratch JSON component (support/json.hpp).

#include "support/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/prng.hpp"

namespace aa::support {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").as_bool());
  EXPECT_FALSE(json_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json_parse("-3.5").as_number(), -3.5);
  EXPECT_DOUBLE_EQ(json_parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json_parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntAccessorRequiresIntegral) {
  EXPECT_EQ(json_parse("7").as_int(), 7);
  EXPECT_EQ(json_parse("-9").as_int(), -9);
  EXPECT_THROW((void)json_parse("7.5").as_int(), std::runtime_error);
}

TEST(JsonParse, NestedStructures) {
  const JsonValue v = json_parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(v.at("a").as_array()[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "x");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(json_parse(R"("Aé")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(json_parse(R"("中")").as_string(), "\xe4\xb8\xad");
}

TEST(JsonParse, WhitespaceTolerance) {
  const JsonValue v = json_parse("  {\n\t\"k\" :\r [ 1 , 2 ]\n} ");
  EXPECT_EQ(v.at("k").as_array().size(), 2u);
}

TEST(JsonParse, ErrorsCarryPosition) {
  try {
    (void)json_parse("{\n  \"a\": nope\n}");
    FAIL() << "must throw";
  } catch (const JsonError& error) {
    EXPECT_EQ(error.line(), 2u);
    EXPECT_GT(error.column(), 1u);
  }
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json_parse(""), JsonError);
  EXPECT_THROW((void)json_parse("{"), JsonError);
  EXPECT_THROW((void)json_parse("[1,]"), JsonError);
  EXPECT_THROW((void)json_parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)json_parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)json_parse("01"), JsonError);   // Trailing garbage.
  EXPECT_THROW((void)json_parse("1 2"), JsonError);  // Two documents.
  EXPECT_THROW((void)json_parse("nul"), JsonError);
  EXPECT_THROW((void)json_parse("-"), JsonError);
  EXPECT_THROW((void)json_parse("1."), JsonError);
  EXPECT_THROW((void)json_parse("1e"), JsonError);
  EXPECT_THROW((void)json_parse("\"\\u12g4\""), JsonError);
  EXPECT_THROW((void)json_parse("\"\x01\""), JsonError);
}

TEST(JsonValue, TypeMismatchThrows) {
  const JsonValue v = json_parse("[1]");
  EXPECT_THROW((void)v.as_object(), std::runtime_error);
  EXPECT_THROW((void)v.as_string(), std::runtime_error);
  EXPECT_THROW((void)v.at("x"), std::runtime_error);
}

TEST(JsonValue, FindAndAt) {
  const JsonValue v = json_parse(R"({"a": 1})");
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("b"), nullptr);
  EXPECT_THROW((void)v.at("b"), std::runtime_error);
}

TEST(JsonValue, SetBuildsAndOverwrites) {
  JsonValue v;
  v.set("x", 1);
  v.set("y", "two");
  v.set("x", 3);
  EXPECT_DOUBLE_EQ(v.at("x").as_number(), 3.0);
  EXPECT_EQ(v.at("y").as_string(), "two");
  EXPECT_EQ(v.as_object().size(), 2u);
}

TEST(JsonDump, CompactRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,true,null],"b":{"c":"x,\"y\""},"d":-7})";
  const JsonValue parsed = json_parse(doc);
  const JsonValue reparsed = json_parse(parsed.dump());
  EXPECT_DOUBLE_EQ(reparsed.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(reparsed.at("b").at("c").as_string(), "x,\"y\"");
  EXPECT_EQ(reparsed.at("d").as_int(), -7);
}

TEST(JsonDump, PrettyPrintIsReparsable) {
  JsonValue v;
  v.set("numbers", JsonValue(JsonValue::Array{1, 2, 3}));
  v.set("nested", [] {
    JsonValue inner;
    inner.set("k", true);
    return inner;
  }());
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  const JsonValue reparsed = json_parse(pretty);
  EXPECT_TRUE(reparsed.at("nested").at("k").as_bool());
}

TEST(JsonDump, IntegersStayExact) {
  EXPECT_EQ(JsonValue(std::int64_t{1000000007}).dump(), "1000000007");
  EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
}

TEST(JsonDump, PreservesMemberOrder) {
  JsonValue v;
  v.set("zebra", 1);
  v.set("alpha", 2);
  const std::string out = v.dump();
  EXPECT_LT(out.find("zebra"), out.find("alpha"));
}

TEST(JsonDump, DoubleRoundTripsAtFullPrecision) {
  const double value = 0.1234567890123456789;
  const JsonValue parsed = json_parse(JsonValue(value).dump());
  EXPECT_DOUBLE_EQ(parsed.as_number(), value);
}

/// The formatter dump() used before append_json_number: printf "%lld" for
/// integral values below 2^53 in magnitude, "%.17g" for everything else.
std::string printf_number(double d) {
  char buf[40];
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

std::string appended(double d) {
  std::string out = "x";  // Appends, never overwrites.
  append_json_number(d, out);
  return out.substr(1);
}

TEST(JsonNumber, MatchesPrintfOnRandomBitPatterns) {
  Rng rng(20261018);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double d = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(d)) continue;
    ++checked;
    if (appended(d) != printf_number(d) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(d) << ": "
                    << appended(d) << " vs " << printf_number(d);
    }
  }
  EXPECT_GT(checked, 990000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, MatchesPrintfOnServiceShapedValues) {
  // Reply values: small integers (ids, servers, allocations) and utilities
  // and ratios of order 1..1e4.
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double integral = std::floor(rng.uniform(-1e6, 1e6));
    const double real = rng.uniform(0.0, 1.0) * std::pow(10.0, i % 9 - 4);
    ASSERT_EQ(appended(integral), printf_number(integral));
    ASSERT_EQ(appended(real), printf_number(real));
  }
}

TEST(JsonNumber, MatchesPrintfAtTheEdges) {
  const double two53 = 9007199254740992.0;
  std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1.0 / 3.0,
      two53 - 1, two53, two53 + 2, -(two53 - 1), -two53, -(two53 + 2),
      two53 - 0.5, 1e-5, 1e-4, 1e15, 1e16, 1e17, 1e21, 123456789012345678.0,
      DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0,
      DBL_MAX, -DBL_MAX, DBL_EPSILON};
  const std::size_t base = edges.size();
  for (std::size_t i = 0; i < base; ++i) {
    edges.push_back(std::nextafter(edges[i], 0.0));
    edges.push_back(std::nextafter(edges[i], edges[i] < 0 ? -DBL_MAX
                                                          : DBL_MAX));
  }
  for (const double d : edges) {
    EXPECT_EQ(appended(d), printf_number(d)) << d;
  }
  EXPECT_EQ(appended(-0.0), "0");
  EXPECT_EQ(appended(two53 - 1), "9007199254740991");
  EXPECT_EQ(appended(0.1), "0.10000000000000001");
  EXPECT_EQ(appended(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(appended(1e17), "1e+17");
}

TEST(JsonNumber, NonFiniteValuesThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double d : {nan, inf, -inf}) {
    std::string out;
    EXPECT_THROW(append_json_number(d, out), std::runtime_error);
    EXPECT_THROW((void)JsonValue(d).dump(), std::runtime_error);
  }
}

TEST(JsonFragment, DumpsVerbatimInsideObjectsAndArrays) {
  const JsonValue fragment = JsonValue::fragment(R"([{"id":1},{"id":2}])");
  JsonValue tree;
  tree.set("before", 1);
  tree.set("placed", fragment);
  tree.set("list", JsonValue(JsonValue::Array{fragment, true}));
  EXPECT_EQ(tree.dump(),
            R"({"before":1,"placed":[{"id":1},{"id":2}],)"
            R"("list":[[{"id":1},{"id":2}],true]})");
  // Pretty-printing indents the tree around a fragment, never inside it.
  EXPECT_NE(tree.dump(2).find(R"("placed": [{"id":1},{"id":2}])"),
            std::string::npos);
  // The text is valid JSON, so the dump parses back into an ordinary tree.
  const JsonValue parsed = json_parse(tree.dump());
  EXPECT_EQ(parsed.at("placed").as_array().size(), 2u);
  EXPECT_EQ(parsed.at("placed").fragment_text(), nullptr);
}

TEST(JsonFragment, IsOpaqueToTheAccessors) {
  const JsonValue fragment = JsonValue::fragment("[1,2]");
  EXPECT_EQ(*fragment.fragment_text(), "[1,2]");
  EXPECT_FALSE(fragment.is_null());
  EXPECT_FALSE(fragment.is_array());
  EXPECT_FALSE(fragment.is_object());
  EXPECT_FALSE(fragment.is_string());
  EXPECT_THROW((void)fragment.as_array(), std::runtime_error);
  EXPECT_THROW((void)fragment.find("a"), std::runtime_error);
  EXPECT_EQ(JsonValue(JsonValue::Array{}).fragment_text(), nullptr);
}

TEST(JsonFragment, CopyingATreeSharesTheText) {
  JsonValue tree;
  tree.set("placed", JsonValue::fragment("[0]"));
  const JsonValue copy = tree;  // NOLINT(performance-unnecessary-copy-initialization)
  const std::string* original = tree.at("placed").fragment_text();
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(copy.at("placed").fragment_text(), original);
  EXPECT_EQ(copy.dump(), tree.dump());
}

}  // namespace
}  // namespace aa::support
