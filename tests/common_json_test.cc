#include "common/json.h"

#include <gtest/gtest.h>

namespace crayfish {
namespace {

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(3.5).is_number());
  EXPECT_TRUE(JsonValue("x").is_string());
  EXPECT_TRUE(JsonValue::MakeArray().is_array());
  EXPECT_TRUE(JsonValue::MakeObject().is_object());
}

TEST(JsonValueTest, DumpScalars) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(-3).Dump(), "-3");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonValueTest, IntegralDoublesRenderWithoutFraction) {
  EXPECT_EQ(JsonValue(1000000.0).Dump(), "1000000");
}

TEST(JsonValueTest, DumpNestedStructure) {
  JsonValue obj = JsonValue::MakeObject();
  obj["id"] = 7;
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(1);
  arr.Append(2);
  obj["shape"] = std::move(arr);
  EXPECT_EQ(obj.Dump(), "{\"id\":7,\"shape\":[1,2]}");
}

TEST(JsonValueTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->as_bool());
  EXPECT_FALSE(JsonValue::Parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.25")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-1e3")->as_number(), -1000.0);
  EXPECT_EQ(JsonValue::Parse("\"abc\"")->as_string(), "abc");
}

TEST(JsonParseTest, ParsesNestedDocument) {
  auto v = JsonValue::Parse(
      R"({"a": [1, 2, {"b": "c"}], "d": null, "e": true})");
  ASSERT_TRUE(v.ok());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(a->as_array()[2].Find("b")->as_string(), "c");
  EXPECT_TRUE(v->Find("d")->is_null());
  EXPECT_TRUE(v->Find("e")->as_bool());
}

TEST(JsonParseTest, RoundTripsDump) {
  const std::string text =
      R"({"batch":[0.25,0.5],"id":3,"meta":{"kind":"ffnn","ok":true}})";
  auto v = JsonValue::Parse(text);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Dump(), text);
  auto again = JsonValue::Parse(v->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*v == *again);
}

TEST(JsonParseTest, ParsesUnicodeEscapes) {
  auto v = JsonValue::Parse("\"a\\u00e9b\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "a\xc3\xa9" "b");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} extra").ok());
}

TEST(JsonParseTest, SkipsWhitespaceEverywhere) {
  auto v = JsonValue::Parse("  {  \"a\" :\n [ 1 ,\t2 ]  }  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("a")->size(), 2u);
}

TEST(JsonValueTest, TypedLookupsWithDefaults) {
  auto v = JsonValue::Parse(R"({"n": 5, "s": "x", "b": false})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->GetNumberOr("n", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(v->GetNumberOr("missing", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(v->GetNumberOr("s", -1.0), -1.0);  // wrong type -> default
}

TEST(JsonValueTest, PrettyPrintContainsNewlinesAndIndent) {
  JsonValue obj = JsonValue::MakeObject();
  obj["k"] = 1;
  const std::string pretty = obj.DumpPretty();
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_NE(pretty.find("  \"k\": 1"), std::string::npos);
}

TEST(JsonValueTest, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(JsonValue(3).Find("x"), nullptr);
  EXPECT_EQ(JsonValue::MakeArray().Find("x"), nullptr);
}

}  // namespace
}  // namespace crayfish
