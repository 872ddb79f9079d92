// art9::json: the writer renders compact single-line objects whose
// strings the reader accepts back (control characters included), and the
// reader accepts exactly the serve request subset and rejects malformed
// input with an offset-bearing JsonError.
#include "serve/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace art9::json {
namespace {

TEST(JsonWriter, StrIsCompactAndPreservesInsertionOrder) {
  JsonObject object;
  object.add("b", uint64_t{18446744073709551615ull});  // > 2^53: must not go through double
  object.add("a", int64_t{-7});
  object.add("ok", true);
  object.add("name", std::string("quote\" and \\slash"));
  object.add_raw("nested", "{\"x\": 1}");
  EXPECT_EQ(object.str(),
            "{\"b\": 18446744073709551615, \"a\": -7, \"ok\": true, "
            "\"name\": \"quote\\\" and \\\\slash\", \"nested\": {\"x\": 1}}");
}

TEST(JsonWriter, StringLiteralFieldsStayStrings) {
  // Regression: with the bool overload present, a `const char*` would
  // otherwise prefer the standard conversion to bool and emit `true`.
  JsonObject object;
  object.add("bench", "micro_sim");
  EXPECT_EQ(object.str(), "{\"bench\": \"micro_sim\"}");
}

TEST(JsonWriter, IntArrayAndQuote) {
  const int values[] = {-1, 0, 1};
  EXPECT_EQ(int_array(values), "[-1, 0, 1]");
  EXPECT_EQ(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(JsonWriter, ControlCharactersAreEscapedAndRoundTrip) {
  // Regression: the writer escaped only quote and backslash, so a string
  // carrying client text with a raw LF or SOH (echoed in a serve error
  // message) rendered JSON the reader itself rejects.
  const std::string text = std::string("a\nb\rc\td") + '\x01' + '\x1f' + "\"\\";
  EXPECT_EQ(quote(text), "\"a\\nb\\rc\\td\\u0001\\u001f\\\"\\\\\"");
  JsonObject object;
  object.add("message", text);
  const JsonValue doc = parse_json(object.str());
  EXPECT_EQ(doc.get_string("message", ""), text);
}

TEST(JsonReader, ParsesTheServeRequestShape) {
  const JsonValue doc = parse_json(
      R"({"image": "41aa", "engine": "functional", "max_steps": 5000,
          "retries": 2, "deep": {"list": [1, 2.5, true, null, "s"]}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get_string("image", ""), "41aa");
  EXPECT_EQ(doc.get_string("engine", ""), "functional");
  EXPECT_EQ(doc.get_uint64("max_steps", 0), 5000u);
  EXPECT_EQ(doc.get_uint64("retries", 0), 2u);
  EXPECT_EQ(doc.get_uint64("absent", 77), 77u);  // fallback for optional fields
  const JsonValue* deep = doc.find("deep");
  ASSERT_NE(deep, nullptr);
  const JsonValue* list = deep->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->as_array().size(), 5u);
  EXPECT_EQ(list->as_array()[0].as_uint64(), 1u);
  EXPECT_DOUBLE_EQ(list->as_array()[1].as_double(), 2.5);
  EXPECT_TRUE(list->as_array()[2].as_bool());
  EXPECT_TRUE(list->as_array()[3].is_null());
  EXPECT_EQ(list->as_array()[4].as_string(), "s");
}

TEST(JsonReader, StringEscapes) {
  const JsonValue doc = parse_json(R"("a\"b\\c\/d\n\tA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c/d\n\tA");
}

TEST(JsonReader, RoundTripsWriterOutput) {
  JsonObject object;
  object.add("steps", uint64_t{123456789012345ull});
  object.add("name", std::string("a\"b"));
  object.add("flag", false);
  const JsonValue doc = parse_json(object.str());
  EXPECT_EQ(doc.get_uint64("steps", 0), 123456789012345ull);
  EXPECT_EQ(doc.get_string("name", ""), "a\"b");
  ASSERT_NE(doc.find("flag"), nullptr);
  EXPECT_FALSE(doc.find("flag")->as_bool());
}

TEST(JsonReader, RejectsMalformedInputWithOffset) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("[1, 2,]"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW(parse_json("nul"), JsonError);
  EXPECT_THROW(parse_json("01"), JsonError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  try {
    (void)parse_json("{\"a\": !}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos) << e.what();
  }
}

TEST(JsonReader, RejectsUnrepresentableUint64) {
  EXPECT_THROW((void)parse_json("-1").as_uint64(), JsonError);
  EXPECT_THROW((void)parse_json("1.5").as_uint64(), JsonError);
  EXPECT_THROW((void)parse_json("1e300").as_uint64(), JsonError);
  EXPECT_EQ(parse_json("0").as_uint64(), 0u);
}

TEST(JsonReader, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(parse_json(deep), JsonError);
}

TEST(JsonReader, TypedAccessorMismatchThrows) {
  const JsonValue doc = parse_json("{\"n\": 1, \"s\": \"x\"}");
  EXPECT_THROW((void)doc.as_string(), JsonError);
  EXPECT_THROW((void)doc.get_string("n", ""), JsonError);  // exists with wrong type
  EXPECT_THROW((void)doc.get_uint64("s", 0), JsonError);   // ...must throw, not fall back
}

}  // namespace
}  // namespace art9::json
