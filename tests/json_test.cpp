// Tests for common/json — the value model, writer and parser behind the
// campaign outcome store and the bench trajectories.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

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

TEST(JsonTest, NumbersFollowTheRfc8259Grammar) {
  // -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
  EXPECT_EQ(Json::parse("1E+2").as_number(), 100.0);
  EXPECT_EQ(Json::parse("1e-0").as_number(), 1.0);
  EXPECT_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_EQ(Json::parse("-12.5e1").as_number(), -125.0);
  EXPECT_EQ(Json::parse("[2.5e-3]").as_array().at(0).as_number(), 2.5e-3);
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
  // Magnitudes beyond a double round like strtod: to inf and to zero.
  EXPECT_TRUE(std::isinf(Json::parse("1e999").as_number()));
  EXPECT_EQ(Json::parse("1e-999").as_number(), 0.0);
  // Leading zeros, a bare '.', a missing integer part and the other
  // spellings outside the grammar are errors, in any position. A parsed
  // "01" would re-dump as "1", so the stored bytes would not be a fixed
  // point of parse + dump.
  for (const char* text :
       {"01", "-01", "00", "007", "1.", "1.e5", "-.5", ".5", "-", "1e",
        "1e+", "--1", "1-2", "1.2.3", "+1", "0x10", "1e5.5", "-a"}) {
    EXPECT_THROW(Json::parse(text), Error) << "'" << text << "'";
    EXPECT_THROW(Json::parse(std::string("[") + text + "]"), Error)
        << "'[" << text << "]'";
    EXPECT_THROW(Json::parse(std::string("{\"a\":") + text + "}"), Error)
        << "'{\"a\":" << text << "}'";
  }
  try {
    Json::parse("[1,-01]");
    ADD_FAILURE() << "-01 parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("leading zero"), std::string::npos)
        << e.what();
  }
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
  EXPECT_EQ(Json(std::string("a\"b\\c\nd")).dump(-1),
            "\"a\\\"b\\\\c\\nd\"");
  // Plain runs are appended whole; escapes at either end, back to back
  // and between long runs survive parse + dump.
  for (const std::string& text :
       {std::string("\"lead"), std::string("trail\\"), std::string("\n\n\t"),
        std::string(1000, 'a') + "\x01" + std::string(1000, 'b'),
        std::string("mid\"dle\\end\x1f"), std::string()}) {
    const std::string dumped = Json(text).dump(-1);
    EXPECT_EQ(Json::parse(dumped).as_string(), text);
    EXPECT_EQ(Json(Json::parse(dumped).as_string()).dump(-1), dumped);
  }
}

TEST(JsonTest, StringsRoundTripEveryByte) {
  // Every byte value alone, and all 256 in one string, survive dump +
  // parse unchanged; so does each byte placed at every offset of a
  // 24-byte plain run, which covers each position in an 8-byte word.
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    EXPECT_EQ(Json::parse(Json(one).dump(-1)).as_string(), one) << b;
    for (std::size_t at = 0; at < 24; ++at) {
      std::string text(24, 'x');
      text[at] = static_cast<char>(b);
      EXPECT_EQ(Json::parse(Json(text).dump(-1)).as_string(), text)
          << b << " at " << at;
    }
  }
  EXPECT_EQ(Json::parse(Json(all).dump(-1)).as_string(), all);
}

TEST(JsonTest, UnescapedControlBytesAreRejected) {
  // RFC 8259: a string holds U+0000-U+001F only escaped (the writer
  // always escapes them). Each control byte is refused raw, at every
  // offset of a word-sized run, while DEL and bytes >= 0x80 stay legal.
  for (int b = 0; b < 0x20; ++b) {
    for (std::size_t at = 0; at < 17; ++at) {
      std::string text = "\"" + std::string(17, 'y') + "\"";
      text[1 + at] = static_cast<char>(b);
      EXPECT_THROW(Json::parse(text), Error) << b << " at " << at;
    }
  }
  EXPECT_EQ(Json::parse("\"a\x7f\xc3\xa9\xff\"").as_string(),
            "a\x7f\xc3\xa9\xff");
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

  // Copies of every owning kind are independent of their source.
  Json text("original");
  Json copied_text = text;
  text = Json("changed");
  EXPECT_EQ(copied_text.as_string(), "original");
  Json nested = Json::parse("{\"a\":[1,{\"b\":\"c\"}]}");
  Json assigned;
  assigned = nested;
  nested = Json(7);
  EXPECT_EQ(assigned.dump(-1), "{\"a\":[1,{\"b\":\"c\"}]}");
}

TEST(JsonTest, MovesLeaveNullAndSelfAssignmentIsHarmless) {
  static_assert(sizeof(Json) == 16);
  static_assert(std::is_nothrow_move_constructible_v<Json>);
  static_assert(std::is_nothrow_move_assignable_v<Json>);
  for (const std::string text :
       {"\"s\"", "[1,2]", "{\"k\":true}", "3.5", "false", "null"}) {
    Json source = Json::parse(text);
    Json moved(std::move(source));
    EXPECT_TRUE(source.is_null()) << text;  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.dump(-1), text);
    Json target("old");
    target = std::move(moved);
    EXPECT_TRUE(moved.is_null()) << text;  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(target.dump(-1), text);

    Json& alias = target;
    target = alias;  // copy self-assignment
    EXPECT_EQ(target.dump(-1), text);
    target = std::move(alias);  // move self-assignment
    EXPECT_EQ(target.dump(-1), text);
  }
  // Assigning a value its own container holds.
  Json outer = Json::parse("[[\"inner\"]]");
  outer = Json(outer.as_array().front());
  EXPECT_EQ(outer.dump(-1), "[\"inner\"]");
  JsonObject o;
  o["child"] = Json(JsonArray{Json("x")});
  Json parent(std::move(o));
  Json& child = const_cast<Json&>(parent.at("child"));
  parent = std::move(child);
  EXPECT_EQ(parent.dump(-1), "[\"x\"]");
}

TEST(JsonTest, TakeMovesAFieldOutAndLeavesNull) {
  Json doc = Json::parse("{\"a\":{\"b\":[1,2]},\"c\":\"s\"}");
  const Json taken = doc.take("a");
  EXPECT_EQ(taken.dump(-1), "{\"b\":[1,2]}");
  EXPECT_EQ(doc.dump(-1), "{\"a\":null,\"c\":\"s\"}");
  EXPECT_THROW(doc.take("missing"), Error);
  Json text("not an object");
  EXPECT_THROW(text.take("a"), Error);
}

TEST(JsonTest, WideObjectsParseFastAndRejectDuplicateKeys) {
  // Keys were once inserted through a linear lookup each, so an object
  // of n keys took O(n^2): 80,000 keys took 18.7 s. 200,000 keys must
  // now parse well within the limit below.
  constexpr int kKeys = 200000;
  std::string wide = "{";
  for (int i = 0; i < kKeys; ++i)
    wide += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":" +
            std::to_string(i);
  wide += "}";
  const auto start = std::chrono::steady_clock::now();
  const Json doc = Json::parse(wide);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 5.0);
  ASSERT_EQ(doc.as_object().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(doc.at("k199999").as_int(), 199999);
  EXPECT_EQ(doc.dump(-1), wide);  // order kept

  // A repeated key is a parse error, wherever the repeat sits.
  for (const char* text :
       {"{\"a\":1,\"a\":2}", "{\"a\":1,\"b\":2,\"a\":1}",
        "[{\"x\":{\"y\":1,\"y\":1}}]"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate object key"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(Json::parse(wide.substr(0, wide.size() - 1) + ",\"k7\":0}"),
               Error);
  EXPECT_NO_THROW(Json::parse("{\"a\":{\"a\":1},\"b\":{\"a\":2}}"));
}

TEST(JsonTest, NonFiniteNumbersRefuseToSerialise) {
  EXPECT_THROW(Json(std::nan("")).dump(), Error);
  EXPECT_THROW(Json(INFINITY).dump(), Error);
}

TEST(JsonTest, ArrayStreamWritesTheBytesDumpGives) {
  // An object whose last key is an array, streamed element by element,
  // equals the whole tree's dump() byte for byte: with and without keys
  // before the array, and with no elements, one, or several nested ones.
  JsonObject nested;
  nested["name"] = Json("a \"b\"\n");
  nested["list"] = Json(JsonArray{Json(1), Json(JsonArray{}), Json()});
  nested["empty"] = Json(JsonObject{});
  const std::vector<std::vector<Json>> arrays = {
      {}, {Json(2.5)}, {Json(nested), Json("x"), Json(nested)}};
  JsonObject head;
  head["campaign"] = Json("0123");
  head["nested"] = Json(nested);
  for (const JsonObject& keys : {JsonObject{}, head}) {
    for (const auto& elements : arrays) {
      JsonObject whole = keys;
      whole["runs"] = Json(JsonArray(elements));
      std::ostringstream os;
      JsonArrayStream stream(os, keys, "runs");
      for (const Json& element : elements) stream.push(element);
      stream.finish();
      EXPECT_EQ(os.str(), Json(whole).dump())
          << keys.size() << " keys, " << elements.size() << " elements";
    }
  }
}

}  // namespace
}  // namespace hmpt
