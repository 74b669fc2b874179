#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

TEST(JsonParse, Literals) {
  EXPECT_TRUE(parse_json("null").value().is_null());
  EXPECT_TRUE(parse_json("true").value().as_bool());
  EXPECT_FALSE(parse_json("false").value().as_bool());
}

TEST(JsonParse, Numbers) {
  EXPECT_DOUBLE_EQ(parse_json("42").value().as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.5").value().as_number(), -3.5);
  EXPECT_DOUBLE_EQ(parse_json("1e3").value().as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_json("2.5E-2").value().as_number(), 0.025);
  EXPECT_DOUBLE_EQ(parse_json("0").value().as_number(), 0.0);
}

TEST(JsonParse, Strings) {
  EXPECT_EQ(parse_json("\"hello\"").value().as_string(), "hello");
  EXPECT_EQ(parse_json("\"a\\nb\"").value().as_string(), "a\nb");
  EXPECT_EQ(parse_json("\"q\\\"q\"").value().as_string(), "q\"q");
  EXPECT_EQ(parse_json("\"back\\\\slash\"").value().as_string(), "back\\slash");
  EXPECT_EQ(parse_json("\"\"").value().as_string(), "");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse_json("\"\\u0041\"").value().as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"").value().as_string(), "\xC3\xA9");   // é
  EXPECT_EQ(parse_json("\"\\u20ac\"").value().as_string(), "\xE2\x82\xAC");  // €
}

TEST(JsonParse, Arrays) {
  auto v = parse_json("[1, 2, 3]").value();
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.as_array()[1].as_number(), 2.0);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse_json("[]").value().as_array().empty());
  EXPECT_TRUE(parse_json("{}").value().as_object().empty());
}

TEST(JsonParse, NestedObject) {
  auto v = parse_json(R"({"a": {"b": [true, {"c": 1}]}})").value();
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  const JsonValue* b = a->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_DOUBLE_EQ(b->as_array()[1].find("c")->as_number(), 1.0);
}

TEST(JsonParse, WhitespaceTolerant) {
  auto v = parse_json(" \n\t{ \"k\" :\n1 } ").value();
  EXPECT_DOUBLE_EQ(v.find("k")->as_number(), 1.0);
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse_json("1 2").ok());
  EXPECT_FALSE(parse_json("{} []").ok());
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(parse_json("").ok());
  EXPECT_FALSE(parse_json("{").ok());
  EXPECT_FALSE(parse_json("[1,").ok());
  EXPECT_FALSE(parse_json("{\"a\" 1}").ok());
  EXPECT_FALSE(parse_json("{\"a\": }").ok());
  EXPECT_FALSE(parse_json("[1 2]").ok());
  EXPECT_FALSE(parse_json("tru").ok());
  EXPECT_FALSE(parse_json("\"unterminated").ok());
  EXPECT_FALSE(parse_json("01x").ok());
  EXPECT_FALSE(parse_json("- ").ok());
  EXPECT_FALSE(parse_json("1e").ok());
}

TEST(JsonParse, ErrorsIncludePosition) {
  auto r = parse_json("{\n  \"a\": oops\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2"), std::string::npos);
}

TEST(JsonParse, RejectsControlCharInString) {
  std::string bad = "\"a\x01b\"";
  EXPECT_FALSE(parse_json(bad).ok());
}

TEST(JsonDump, CompactRoundTrip) {
  const char* doc = R"({"arr":[1,2.5,"s"],"b":true,"n":null})";
  auto v = parse_json(doc).value();
  EXPECT_EQ(v.dump(), doc);
}

TEST(JsonDump, PrettyPrint) {
  JsonObject obj;
  obj["x"] = 1;
  auto pretty = JsonValue(obj).dump(2);
  EXPECT_EQ(pretty, "{\n  \"x\": 1\n}");
}

TEST(JsonDump, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
}

TEST(JsonDump, RoundTripPreservesValues) {
  const char* doc = R"({"deep":{"list":[[1],[2,[3]]],"t":true},"f":false})";
  auto v = parse_json(doc).value();
  auto v2 = parse_json(v.dump()).value();
  EXPECT_EQ(v, v2);
}

TEST(JsonDump, RejectsNonFinite) {
  JsonValue v(std::numeric_limits<double>::infinity());
  EXPECT_THROW(v.dump(), ContractViolation);
}

/// The snprintf/strtod number formatter the dumper used before it moved to
/// std::to_chars, kept as the byte-for-byte reference.
std::string printf_reference_number(double d) {
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

TEST(JsonDump, NumberFormatMatchesPrintfReference) {
  const double edge_cases[] = {
      0.0, -0.0, 1.0, -1.0, 1e15, 1e15 - 1, 1e15 + 1, -1e15 + 1, 1e-5, 1e-4,
      0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0,
      0.1 + 0.2,              // needs 17 digits
      5e-324,                 // smallest subnormal
      DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON, 1.0 + DBL_EPSILON,
      123456789012345.6,      // needs 16 digits
      9007199254740993.0, 4503599627370495.5, 1e21, 1e22, 1e100, 1e-300,
      -7.0, -42.0, -999999999999999.0, 123.456, -0.5, 0.5, 2.5, 1e16};
  for (double d : edge_cases) {
    EXPECT_EQ(JsonValue(d).dump(), printf_reference_number(d)) << d;
  }

  // Random bit patterns cover every exponent; the extra integral and
  // unit-scale draws exercise the "%.0f" branch and the slot log's range.
  Rng rng(20121015);
  int compared = 0;
  for (int i = 0; i < 100000; ++i) {
    const double bits = std::bit_cast<double>(rng.next_u64());
    const double integral =
        static_cast<double>(static_cast<std::int64_t>(rng.next_u64() >> 14) -
                            (std::int64_t{1} << 49));
    const double scaled = rng.uniform(-1000.0, 1000.0);
    for (double d : {bits, integral, scaled}) {
      if (!std::isfinite(d)) continue;
      ASSERT_EQ(JsonValue(d).dump(), printf_reference_number(d))
          << std::bit_cast<std::uint64_t>(d);
      ++compared;
    }
  }
  EXPECT_GT(compared, 250000);
}

TEST(JsonValue, TypedAccessorsAreContractChecked) {
  JsonValue v(1.0);
  EXPECT_THROW(v.as_string(), ContractViolation);
  EXPECT_THROW(v.as_array(), ContractViolation);
  EXPECT_THROW(v.as_object(), ContractViolation);
  EXPECT_THROW(v.as_bool(), ContractViolation);
}

TEST(JsonValue, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(JsonValue(1.0).find("x"), nullptr);
  EXPECT_EQ(JsonValue(JsonArray{}).find("x"), nullptr);
}

TEST(JsonValue, DefaultedLookups) {
  auto v = parse_json(R"({"d": 2.5, "i": 7, "b": true, "s": "txt"})").value();
  EXPECT_DOUBLE_EQ(v.number_or("d", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(v.int_or("i", 0), 7);
  EXPECT_EQ(v.int_or("missing", -1), -1);
  EXPECT_TRUE(v.bool_or("b", false));
  EXPECT_FALSE(v.bool_or("missing", false));
  EXPECT_EQ(v.string_or("s", ""), "txt");
  EXPECT_EQ(v.string_or("missing", "dflt"), "dflt");
  // Wrong-typed keys fall back too.
  EXPECT_DOUBLE_EQ(v.number_or("s", 1.5), 1.5);
}

TEST(JsonParse, DuplicateKeysLastWins) {
  auto v = parse_json(R"({"k": 1, "k": 2})").value();
  EXPECT_DOUBLE_EQ(v.find("k")->as_number(), 2.0);
}

TEST(JsonFile, MissingFileFails) {
  EXPECT_FALSE(parse_json_file("/no/such/file.json").ok());
}

}  // namespace
}  // namespace grefar
