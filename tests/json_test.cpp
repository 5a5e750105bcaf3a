// Tests for common/json — the value model, writer and parser behind the
// campaign outcome store and the bench trajectories.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/json.h"

namespace hmpt {
namespace {

TEST(JsonTest, BuildsAndDumpsAllKinds) {
  JsonObject o;
  o["null"] = Json();
  o["flag"] = Json(true);
  o["count"] = Json(42);
  o["ratio"] = Json(0.5);
  o["name"] = Json("campaign");
  o["list"] = Json(JsonArray{Json(1), Json(2)});
  const Json doc(std::move(o));

  EXPECT_EQ(doc.dump(-1),
            "{\"null\":null,\"flag\":true,\"count\":42,\"ratio\":0.5,"
            "\"name\":\"campaign\",\"list\":[1,2]}");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  JsonObject o;
  o["zebra"] = Json(1);
  o["alpha"] = Json(2);
  const Json doc(std::move(o));
  EXPECT_EQ(doc.dump(-1), "{\"zebra\":1,\"alpha\":2}");
}

TEST(JsonTest, ParseRoundTripsDump) {
  JsonObject inner;
  inner["text"] = Json("line\nbreak \"quoted\" back\\slash");
  inner["tiny"] = Json(1e-17);
  inner["negative"] = Json(-3.25);
  JsonObject o;
  o["inner"] = Json(std::move(inner));
  o["items"] = Json(JsonArray{Json(false), Json(), Json("x")});
  const Json doc(std::move(o));

  for (const int indent : {-1, 0, 2, 4}) {
    const Json reparsed = Json::parse(doc.dump(indent));
    EXPECT_EQ(reparsed.dump(-1), doc.dump(-1)) << "indent " << indent;
  }
}

TEST(JsonTest, NumbersRoundTripExactly) {
  // The outcome store relies on exact double round trips: a resumed
  // campaign must reproduce byte-identical artefacts from parsed values.
  const double kMinDenormal = std::numeric_limits<double>::denorm_min();
  const double kMinNormal = std::numeric_limits<double>::min();
  for (const double value :
       {1.0 / 3.0, 6.02214076e23, -2.5e-13, 1e15, 123456789.125, 0.0,
        // denormals and the normal/denormal boundary
        kMinDenormal, -kMinDenormal, 3 * kMinDenormal, kMinNormal,
        std::nextafter(kMinNormal, 0.0), std::numeric_limits<double>::max(),
        // the integer/non-integer print boundary at 1e15
        1e15 - 1, 1e15 + 1, 1e15 - 0.5, -(1e15 - 1), -1e15, 9007199254740993.0,
        0.1, 0.1 + 0.2, -0.0}) {
    const std::string text = Json(value).dump(-1);
    const double parsed = Json::parse(text).as_number();
    EXPECT_EQ(std::memcmp(&parsed, &value, sizeof(double)), 0)
        << text << " parsed as " << parsed;
    // Re-dumping the parsed value reproduces the text: the stored bytes
    // are a fixed point of parse + dump.
    EXPECT_EQ(Json(parsed).dump(-1), text);
  }
}

TEST(JsonTest, NumbersPrintShortestAndIntegersPlain) {
  EXPECT_EQ(Json(0.1).dump(-1), "0.1");
  EXPECT_EQ(Json(1e-17).dump(-1), "1e-17");
  EXPECT_EQ(Json(-0.0).dump(-1), "-0");
  EXPECT_EQ(Json(0.0).dump(-1), "0");
  EXPECT_EQ(Json(1e15 - 1).dump(-1), "999999999999999");
  EXPECT_EQ(Json(-42).dump(-1), "-42");
  EXPECT_EQ(Json(1e15).dump(-1), "1e+15");
}

TEST(JsonTest, ParserAcceptsTheSameNumberTokens) {
  // Tokens parse in place; what strtod accepted still parses, to the
  // same value, and what it rejected still fails.
  EXPECT_EQ(Json::parse("1.").as_number(), 1.0);
  EXPECT_EQ(Json::parse("-.5").as_number(), -0.5);
  EXPECT_EQ(Json::parse("007").as_number(), 7.0);
  EXPECT_EQ(Json::parse("1E+2").as_number(), 100.0);
  EXPECT_EQ(Json::parse("[2.5e-3]").as_array().at(0).as_number(), 2.5e-3);
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
  // Magnitudes beyond a double round like strtod: to inf and to zero.
  EXPECT_TRUE(std::isinf(Json::parse("1e999").as_number()));
  EXPECT_EQ(Json::parse("1e-999").as_number(), 0.0);
  for (const char* text : {"-", "1e", "1e+", "--1", "1-2", "1.2.3", "+1"})
    EXPECT_THROW(Json::parse(text), Error) << "'" << text << "'";
}

TEST(JsonTest, NestingDepthIsCapped) {
  // 200,000 '[' once overflowed the stack of the recursive parser; the
  // cap turns it (and any deep object) into an ordinary parse error.
  for (const char open : {'[', '{'}) {
    std::string deep(200000, open);
    if (open == '{') {
      deep.clear();
      for (int i = 0; i < 100000; ++i) deep += "{\"a\":";
    }
    try {
      Json::parse(deep);
      ADD_FAILURE() << "deep " << open << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper"),
                std::string::npos)
          << e.what();
    }
  }
  // Well within the cap, nesting still works.
  const std::string ok = std::string(100, '[') + std::string(100, ']');
  EXPECT_NO_THROW(Json::parse(ok));
}

TEST(JsonTest, AsIntIsRangeChecked) {
  EXPECT_EQ(Json(-7).as_int(), -7);
  EXPECT_EQ(Json(2147483647.0).as_int(), 2147483647);
  for (const double bad : {2.5, 2147483648.0, -2147483649.0, 1e300})
    EXPECT_THROW(Json(bad).as_int(), Error) << bad;
  EXPECT_THROW(Json::parse("1e999").as_int(), Error);
  EXPECT_THROW(Json("7").as_int(), Error);
}

TEST(JsonTest, ControlCharactersEscape) {
  const Json doc(std::string("bell\x07tab\t"));
  EXPECT_EQ(doc.dump(-1), "\"bell\\u0007tab\\t\"");
  EXPECT_EQ(Json::parse(doc.dump(-1)).as_string(), doc.as_string());
}

TEST(JsonTest, AccessorsEnforceKinds) {
  const Json doc = Json::parse("{\"a\": 1}");
  EXPECT_THROW(doc.as_array(), Error);
  EXPECT_THROW(doc.at("a").as_string(), Error);
  EXPECT_THROW(doc.at("missing"), Error);
  EXPECT_EQ(doc.number_or("a", 7.0), 1.0);
  EXPECT_EQ(doc.number_or("missing", 7.0), 7.0);
  EXPECT_EQ(doc.string_or("missing", "fallback"), "fallback");
}

TEST(JsonTest, ParserRejectsGarbage) {
  for (const char* text :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1,}", "[1]]", "nan", "\"bad\\q\""}) {
    EXPECT_THROW(Json::parse(text), Error) << "'" << text << "'";
  }
}

TEST(JsonTest, CopiesAreDeep) {
  JsonObject o;
  o["list"] = Json(JsonArray{Json(1)});
  Json a(std::move(o));
  Json b = a;
  // Mutating the copy must not alias the original.
  JsonObject o2;
  o2["list"] = Json(JsonArray{Json(1), Json(2)});
  b = Json(std::move(o2));
  EXPECT_EQ(a.at("list").as_array().size(), 1u);
  EXPECT_EQ(b.at("list").as_array().size(), 2u);
}

TEST(JsonTest, NonFiniteNumbersRefuseToSerialise) {
  EXPECT_THROW(Json(std::nan("")).dump(), Error);
  EXPECT_THROW(Json(INFINITY).dump(), Error);
}

}  // namespace
}  // namespace hmpt
