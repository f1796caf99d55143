#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <typeinfo>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "hwsim/node.hpp"
#include "model/dataset.hpp"
#include "store/measurement_store.hpp"
#include "workload/suite.hpp"

namespace ecotune {
namespace {

TEST(Json, TypePredicates) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.14).is_number());
  EXPECT_TRUE(Json(7).is_number());
  EXPECT_TRUE(Json("hello").is_string());
  EXPECT_TRUE(Json::array().is_array());
  EXPECT_TRUE(Json::object().is_object());
}

TEST(Json, AccessorsThrowOnWrongType) {
  const Json j("text");
  EXPECT_THROW((void)j.as_number(), Error);
  EXPECT_THROW((void)j.as_bool(), Error);
  EXPECT_THROW((void)j.as_array(), Error);
  EXPECT_THROW((void)j.as_object(), Error);
  EXPECT_EQ(j.as_string(), "text");
}

TEST(Json, ObjectBuildAndAccess) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = "two";
  j["c"]["nested"] = true;  // auto-creates object
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").as_string(), "two");
  EXPECT_TRUE(j.at("c").at("nested").as_bool());
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zzz"));
  EXPECT_THROW((void)j.at("zzz"), Error);
}

TEST(Json, ArrayPushBack) {
  Json j;
  j.push_back(1);
  j.push_back("x");
  ASSERT_TRUE(j.is_array());
  ASSERT_EQ(j.as_array().size(), 2u);
  EXPECT_EQ(j.as_array()[1].as_string(), "x");
}

TEST(Json, RoundTripThroughText) {
  Json j = Json::object();
  j["name"] = "Lulesh";
  j["threads"] = 24;
  j["ratio"] = 0.125;
  j["flag"] = false;
  j["nothing"] = nullptr;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  j["list"] = std::move(arr);

  const Json parsed = Json::parse(j.dump(2));
  EXPECT_EQ(parsed, j);
  const Json compact = Json::parse(j.dump(-1));
  EXPECT_EQ(compact, j);
}

TEST(Json, ParsesEscapes) {
  const Json j = Json::parse(R"({"s": "a\"b\\c\ndA"})");
  EXPECT_EQ(j.at("s").as_string(), "a\"b\\c\ndA");
}

TEST(Json, DumpEscapesControlCharacters) {
  const Json j(std::string("line\nbreak\ttab\"quote"));
  const std::string out = j.dump(-1);
  EXPECT_EQ(Json::parse(out).as_string(), j.as_string());
}

TEST(Json, ParsesNumbersIncludingExponents) {
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5").as_number(), -2.5);
  EXPECT_DOUBLE_EQ(Json::parse("3.25e-2").as_number(), 0.0325);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

// Every parser error keeps its exact text and exception type.
TEST(Json, ErrorMessagesAreStable) {
  struct Case {
    const char* text;
    const char* message;
    bool precondition;  ///< PreconditionError (else plain Error)
  };
  const std::vector<Case> cases = {
      {"", "Json::parse: unexpected end of input", true},
      {"  \n", "Json::parse: unexpected end of input", true},
      {"[1", "Json::parse: unexpected end of input", true},
      {"{\"a\":", "Json::parse: unexpected end of input", true},
      {"\"unterminated", "Json::parse: unexpected end of input", true},
      {"\"a\\", "Json::parse: unexpected end of input", true},
      {"\"\\u12", "Json::parse: unexpected end of input", true},
      {"[1 2]", "Json::parse: expected ',' or ']' in array", true},
      {"{\"a\":1 \"b\":2}", "Json::parse: expected ',' or '}' in object",
       true},
      {"{\"a\" 1}", "Json::parse: expected ':'", true},
      {"{1:2}", "Json::parse: expected '\"'", true},
      {"{\"a\":1,}", "Json::parse: expected '\"'", true},
      {"tru", "Json::parse: bad literal", true},
      {"fals", "Json::parse: bad literal", true},
      {"nul", "Json::parse: bad literal", true},
      {"nulll", "Json::parse: trailing garbage", true},
      {"{\"a\":1} trailing", "Json::parse: trailing garbage", true},
      {"\"bad \\x escape\"", "Json::parse: bad escape", true},
      {"\"\\u12g4\"", "Json::parse: bad \\u escape", true},
      {"[1,]", "Json::parse: bad number", true},
      {"abc", "Json::parse: bad number", true},
      {"-", "Json::parse: bad number '-'", false},
      {"1.2.3", "Json::parse: bad number '1.2.3'", false},
      {"1e", "Json::parse: bad number '1e'", false},
      {"--1", "Json::parse: bad number '--1'", false},
  };
  for (const auto& c : cases) {
    try {
      (void)Json::parse(c.text);
      ADD_FAILURE() << "no error for [" << c.text << "]";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), c.message) << "[" << c.text << "]";
      EXPECT_EQ(dynamic_cast<const PreconditionError*>(&e) != nullptr,
                c.precondition)
          << "[" << c.text << "] threw " << typeid(e).name();
    }
  }
}

TEST(Json, AcceptsTheSixCLocaleWhitespaceCharacters) {
  const Json j = Json::parse(" \t\n\v\f\r[ \v1\f,\r2 ]\v\f ");
  ASSERT_EQ(j.as_array().size(), 2u);
  EXPECT_EQ(j.as_array()[1].as_number(), 2.0);
  EXPECT_THROW((void)Json::parse("\a1"), Error);
}

TEST(Json, LongStringsWithEscapesMidRun) {
  const std::string run(5000, 'x');
  const std::string text = "\"" + run + "\\n" + run + "\\u00e9" + run +
                           "\\\"" + run + "\\u20ac\\/" + run + "\"";
  const std::string expected =
      run + "\n" + run + "\xc3\xa9" + run + "\"" + run + "\xe2\x82\xac/" + run;
  EXPECT_EQ(Json::parse(text).as_string(), expected);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00DF\"").as_string(), "A\xc3\x9f");
  // Escapes at the very start and end of a string.
  EXPECT_EQ(Json::parse("\"\\tmid\\t\"").as_string(), "\tmid\t");
  // Dumped control characters come back through the same path.
  const std::string raw = run + std::string("\x01\x1f") + run;
  EXPECT_EQ(Json::parse(Json(raw).dump(-1)).as_string(), raw);
}

TEST(Json, ParsedArraysAreSizedExactly) {
  const Json j = Json::parse("[[1,2,3],[4,5,6,7,8],[],[[9]]]");
  const auto& outer = j.as_array();
  EXPECT_EQ(outer.capacity(), 4u);
  EXPECT_EQ(outer[0].as_array().capacity(), 3u);
  EXPECT_EQ(outer[1].as_array().capacity(), 5u);
  EXPECT_EQ(outer[1].as_array()[4].as_number(), 8.0);
  EXPECT_EQ(outer[3].as_array()[0].as_array()[0].as_number(), 9.0);
}

TEST(Json, DuplicateAndUnsortedKeysKeepLastWins) {
  const Json j = Json::parse("{\"b\":1,\"a\":2,\"b\":3}");
  EXPECT_EQ(j.as_object().size(), 2u);
  EXPECT_EQ(j.at("b").as_number(), 3.0);
  EXPECT_EQ(j.dump(-1), "{\"a\":2,\"b\":3}");
}

TEST(Json, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string deep(2 * 1024 * 1024, '[');
  try {
    (void)Json::parse(deep);
    ADD_FAILURE() << "2 MB of '[' parsed";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()),
              "Json::parse: nesting deeper than 512 levels");
  }
  // Objects count toward the same limit.
  std::string objects;
  for (int i = 0; i < 600; ++i) objects += "{\"k\":";
  EXPECT_THROW((void)Json::parse(objects), PreconditionError);
  // 512 levels still parse.
  const std::string ok = std::string(512, '[') + std::string(512, ']');
  EXPECT_TRUE(Json::parse(ok).is_array());
  EXPECT_THROW((void)Json::parse("[" + ok + "]"), PreconditionError);
}

// A line the measurement store really writes (one acquisition sweep)
// round-trips parse -> dump byte for byte.
TEST(Json, RealAcquisitionStoreLineRoundTrips) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("ecotune_json_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    store::MeasurementStore store;
    store.open(dir.string(), store::StoreMode::kReadWrite);
    hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(5));
    model::AcquisitionOptions opts;
    opts.thread_counts = {24};
    opts.cf_stride = 4;
    opts.ucf_stride = 4;
    opts.phase_iterations = 1;
    opts.jobs = 1;
    opts.store = &store;
    model::DataAcquisition acquisition(node, opts);
    (void)acquisition.acquire({workload::BenchmarkSuite::by_name("Lulesh")});
  }
  std::ifstream is(dir / "measurements.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_NE(line.find("acquire"), std::string::npos);
  EXPECT_GT(line.size(), 1000u);
  EXPECT_EQ(Json::parse(line).dump(-1), line);
  fs::remove_all(dir);
}

// The pull reader walks a document without a tree: members by key, values
// in place, skipped values returned as their exact text.
TEST(JsonReader, ReadsMembersInPlaceAndSkipsToExactSpans) {
  const std::string text =
      R"({"a": [1, 2.5, -3e2], "b":{"x":"esc\"aped","y":null}, "c" : true})";
  JsonReader r(text);
  r.begin_object();
  r.key("a");
  std::vector<double> a;
  r.begin_array();
  while (r.next_element()) a.push_back(r.number());
  EXPECT_EQ(a, (std::vector<double>{1.0, 2.5, -300.0}));
  r.key("b");
  EXPECT_EQ(r.skip(), R"({"x":"esc\"aped","y":null})");
  std::string_view key;
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "c");
  EXPECT_EQ(r.skip(), "true");
  r.end_object();
  r.end();

  // A string with escapes comes back unescaped.
  JsonReader escaped(R"("tab\there")");
  EXPECT_EQ(escaped.string(), "tab\there");

  // A fixed layout rejects a missing, renamed or extra member.
  JsonReader renamed(R"({"b":1})");
  renamed.begin_object();
  EXPECT_THROW(renamed.key("a"), Error);
  JsonReader extra(R"({"a":1,"b":2})");
  extra.begin_object();
  extra.key("a");
  (void)extra.number();
  EXPECT_THROW(extra.end_object(), Error);
  // skip() checks structure: a torn value throws.
  JsonReader torn(R"({"a":[1,2)");
  EXPECT_THROW((void)torn.skip(), Error);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").as_array().size(), 0u);
  EXPECT_EQ(Json::parse("{}").as_object().size(), 0u);
  EXPECT_EQ(Json::array().dump(-1), "[]");
  EXPECT_EQ(Json::object().dump(-1), "{}");
}

TEST(Json, DeterministicKeyOrder) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  const std::string out = j.dump(-1);
  EXPECT_LT(out.find("alpha"), out.find("zeta"));
}

}  // namespace
}  // namespace ecotune
