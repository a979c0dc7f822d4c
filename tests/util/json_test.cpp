#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace dpho::util {
namespace {

/// The number formatter's specification, kept as the test oracle: integral
/// values under 1e15 as "%.0f", every other finite value as "%.Pg" for the
/// smallest P in 1..17 whose text strtod reads back to the same double.
std::string oracle_format(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[40];
  if (d == std::nearbyint(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", d);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string nested(std::size_t depth) {
  return std::string(depth, '[') + "1" + std::string(depth, ']');
}

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_number(), -1e-3);
  // The exponent and sign forms RFC 8259 allows.
  EXPECT_TRUE(bits_equal(Json::parse("-0").as_number(), -0.0));
  EXPECT_EQ(Json::parse("1E5").as_number(), 1e5);
  EXPECT_EQ(Json::parse("1e-5").as_number(), 1e-5);
  EXPECT_EQ(Json::parse("1.5e+3").as_number(), 1.5e3);
  EXPECT_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_EQ(Json::parse(" [0,-0.25e-1]").as_array()[1].as_number(), -0.025);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNestedDocument) {
  const Json doc = Json::parse(R"({
    "model": {"descriptor": {"rcut": 8.5, "neuron": [25, 50, 100]}},
    "flags": [true, false, null],
    "name": "se_e2_a"
  })");
  EXPECT_DOUBLE_EQ(doc.at("model").at("descriptor").at("rcut").as_number(), 8.5);
  EXPECT_EQ(doc.at("model").at("descriptor").at("neuron").as_array().size(), 3u);
  EXPECT_EQ(doc.at("flags").as_array()[2], Json(nullptr));
  EXPECT_EQ(doc.at("name").as_string(), "se_e2_a");
}

TEST(Json, RoundTripPreservesStructure) {
  const std::string text =
      R"({"a":1,"b":[1,2.5,"x"],"c":{"d":true,"e":null},"f":"q\"uote"})";
  const Json doc = Json::parse(text);
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(doc, again);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json doc;
  doc["zebra"] = 1;
  doc["apple"] = 2;
  doc["mango"] = 3;
  const std::string out = doc.dump();
  EXPECT_LT(out.find("zebra"), out.find("apple"));
  EXPECT_LT(out.find("apple"), out.find("mango"));
}

TEST(Json, NumberFormattingRoundTrips) {
  for (double value : {0.0001, 3.51e-8, 1.0 / 3.0, 12345678.0, -0.0625, 1e300}) {
    Json j(value);
    EXPECT_DOUBLE_EQ(Json::parse(j.dump()).as_number(), value) << value;
  }
}

TEST(Json, IntegersPrintWithoutExponent) {
  EXPECT_EQ(Json(40000).dump(), "40000");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, EscapesControlCharacters) {
  Json j(std::string("line\nbreak\ttab \"quote\" back\\slash"));
  const std::string out = j.dump();
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\t"), std::string::npos);
  EXPECT_NE(out.find("\\\""), std::string::npos);
  EXPECT_EQ(Json::parse(out).as_string(), j.as_string());
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Json, NanAndInfSerializeAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(INFINITY).dump(), "null");
}

TEST(Json, PrettyPrintIndents) {
  Json doc;
  doc["a"]["b"] = 1;
  const std::string out = doc.dump(2);
  EXPECT_NE(out.find("{\n  \"a\""), std::string::npos);
  EXPECT_EQ(Json::parse(out), doc);
}

TEST(Json, AsIntRejectsFractions) {
  EXPECT_EQ(Json(42.0).as_int(), 42);
  EXPECT_THROW(Json(42.5).as_int(), ValueError);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_bool(), ValueError);
  EXPECT_THROW(j.as_number(), ValueError);
  EXPECT_THROW(j.as_string(), ValueError);
  EXPECT_THROW(j.as_object(), ValueError);
  EXPECT_NO_THROW(j.as_array());
}

TEST(Json, AtMissingKeyThrows) {
  const Json doc = Json::parse("{\"a\": 1}");
  EXPECT_THROW(doc.at("b"), ValueError);
}

TEST(Json, NumberOrAndStringOr) {
  const Json doc = Json::parse(R"({"x": 2.5, "s": "v"})");
  EXPECT_DOUBLE_EQ(doc.number_or("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", 7.0), 7.0);
  EXPECT_EQ(doc.string_or("s", "d"), "v");
  EXPECT_EQ(doc.string_or("missing", "d"), "d");
}

TEST(Json, MalformedInputsThrow) {
  for (const char* bad : {"", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated",
                          "{\"a\":1} extra", "[1 2]", "{'a':1}", "nul",
                          // Number forms outside RFC 8259's grammar...
                          "+1", "01", "-01", "1.", ".5", "-.5", "-", "--1", "1e",
                          "1e+", "1.e5", "0x10", "[1.]", "{\"a\":01}",
                          // ...and numbers no double holds.
                          "1e400", "-1e400", "1e-400"}) {
    EXPECT_THROW(Json::parse(bad), ParseError) << bad;
  }
}

TEST(Json, DeepNesting) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 50; ++i) text += "]";
  Json j = Json::parse(text);
  for (int i = 0; i < 50; ++i) {
    Json inner = j.as_array()[0];  // copy before reassigning the owner
    j = std::move(inner);
  }
  EXPECT_DOUBLE_EQ(j.as_number(), 1.0);
}

TEST(Json, NestingPastTheLimitThrows) {
  EXPECT_NO_THROW(Json::parse(nested(256)));
  EXPECT_THROW(Json::parse(nested(257)), ParseError);
  // Deep enough to overflow the stack of a recursive parser with no limit.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), ParseError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(Json::parse(objects), ParseError);
}

TEST(Json, EdgeNumbersPrintPinnedText) {
  const std::vector<std::pair<double, const char*>> table = {
      {0.0, "0"},
      {-0.0, "-0"},
      {5e-324, "5e-324"},
      {-5e-324, "-5e-324"},
      {DBL_MIN, "2.2250738585072014e-308"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {-DBL_MAX, "-1.7976931348623157e+308"},
      {1e15 - 1, "999999999999999"},
      {1e15, "1e+15"},
      {1e21, "1e+21"},
      {0.1, "0.1"},
      {1.0 / 3.0, "0.3333333333333333"},
      {1e-5, "1e-05"},
      {123456789012345680.0, "1.2345678901234568e+17"},
  };
  for (const auto& [value, text] : table) {
    EXPECT_EQ(Json(value).dump(), text);
    EXPECT_EQ(oracle_format(value), text);
    EXPECT_TRUE(bits_equal(Json::parse(text).as_number(), value)) << text;
  }
}

TEST(Json, NumberTextIsByteIdenticalToTheOracle) {
  std::vector<double> values;
  std::mt19937_64 rng(20240611);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_int_distribution<int> places(0, 9);
  for (int i = 0; i < 350000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));  // any bit pattern
    values.push_back(normal(rng) * std::pow(10.0, places(rng) - 4));
    const double scale = std::pow(10.0, places(rng));  // decimals as typed
    values.push_back(std::round(normal(rng) * 1000.0 * scale) / scale);
  }
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    values.push_back(std::ldexp(1.0, exponent));
    values.push_back(-std::ldexp(1.0, exponent));
  }
  ASSERT_GE(values.size(), 1000000u);

  std::size_t mismatches = 0;
  std::size_t lossy = 0;
  for (const double value : values) {
    const std::string text = Json(value).dump();
    if (text != oracle_format(value)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(value) << ": "
                      << text << " vs oracle " << oracle_format(value);
      }
    }
    if (std::isfinite(value) && !bits_equal(Json::parse(text).as_number(), value)) {
      if (++lossy <= 5) ADD_FAILURE() << text << " does not parse back";
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(lossy, 0u);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").dump(), "[]");
  EXPECT_EQ(Json::parse("{}").dump(), "{}");
  EXPECT_EQ(Json::parse("{ }").as_object().size(), 0u);
}

TEST(Json, OperatorBracketCreatesNestedObjects) {
  Json doc;  // starts null
  doc["a"]["b"]["c"] = 3.0;
  EXPECT_DOUBLE_EQ(doc.at("a").at("b").at("c").as_number(), 3.0);
}

}  // namespace
}  // namespace dpho::util
