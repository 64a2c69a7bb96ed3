// Unit tests for the shared bench helpers (bench/bench_util.h): the
// truncated-rank percentile convention every BENCH_*.json has always
// used, the tail-grid summarizer, and the JSON writer.

#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace e2nvm::bench {
namespace {

TEST(PercentileTest, EmptyIsZero) {
  std::vector<double> v;
  EXPECT_EQ(Percentile(v, 0.5), 0.0);
}

TEST(PercentileTest, SingleElement) {
  std::vector<double> v{7.5};
  EXPECT_EQ(Percentile(v, 0.0), 7.5);
  EXPECT_EQ(Percentile(v, 0.5), 7.5);
  EXPECT_EQ(Percentile(v, 1.0), 7.5);
}

TEST(PercentileTest, TruncatedRankConvention) {
  // sorted[floor(q * (n - 1))] over 1..100.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);    // front
  EXPECT_EQ(Percentile(v, 0.5), 50.0);   // floor(0.5 * 99) = 49 -> 50
  EXPECT_EQ(Percentile(v, 0.99), 99.0);  // floor(0.99 * 99) = 98 -> 99
  EXPECT_EQ(Percentile(v, 0.999), 99.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);  // max
}

TEST(PercentileTest, ClampsOutOfRangeQ) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(Percentile(v, -0.5), 1.0);
  EXPECT_EQ(Percentile(v, 1.5), 3.0);
}

TEST(SummarizeLatenciesTest, SortsAndFillsTailGrid) {
  std::vector<double> us{30.0, 10.0, 20.0, 40.0};  // Unsorted on entry.
  TailStats s = SummarizeLatencies(us, /*seconds=*/2.0, /*ops=*/4);
  EXPECT_TRUE(std::is_sorted(us.begin(), us.end()));
  EXPECT_DOUBLE_EQ(s.ops_s, 2.0);
  EXPECT_DOUBLE_EQ(s.p50_us, 30.0);  // us[n/2] = us[2].
  EXPECT_DOUBLE_EQ(s.p99_us, 30.0);  // floor(0.99 * 3) = 2.
  EXPECT_DOUBLE_EQ(s.max_us, 40.0);
}

TEST(SummarizeLatenciesTest, BatchedOpsScaleTheRate) {
  // One sample may cover a batch: ops is quoted, not us.size().
  std::vector<double> us{100.0};
  TailStats s = SummarizeLatencies(us, 1.0, /*ops=*/16);
  EXPECT_DOUBLE_EQ(s.ops_s, 16.0);
}

TEST(SummarizeLatenciesTest, EmptyOrZeroTimeIsAllZero) {
  std::vector<double> empty;
  TailStats s = SummarizeLatencies(empty, 1.0, 0);
  EXPECT_EQ(s.ops_s, 0.0);
  EXPECT_EQ(s.p999_us, 0.0);
  std::vector<double> us{1.0};
  s = SummarizeLatencies(us, 0.0, 1);
  EXPECT_EQ(s.ops_s, 0.0);
}

std::string WriteJson(const std::function<void(JsonWriter&)>& body) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  {
    JsonWriter jw(f);
    body(jw);
    jw.Finish();
  }
  std::fseek(f, 0, SEEK_END);
  std::string out(static_cast<size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

TEST(JsonWriterTest, EmptyRoot) {
  EXPECT_EQ(WriteJson([](JsonWriter&) {}), "{}\n");
}

TEST(JsonWriterTest, FieldsObjectsArrays) {
  const std::string out = WriteJson([](JsonWriter& jw) {
    jw.Field("n", static_cast<uint64_t>(3));
    jw.Field("x", 1.5, 2);
    jw.Field("s", "hi");
    jw.Field("b", true);
    jw.BeginObject("o");
    jw.Field("inner", 1);
    jw.EndObject();
    jw.BeginArray("a");
    jw.BeginObject();
    jw.Field("i", 0);
    jw.EndObject();
    jw.EndArray();
  });
  EXPECT_EQ(out,
            "{\n"
            "  \"n\": 3,\n"
            "  \"x\": 1.50,\n"
            "  \"s\": \"hi\",\n"
            "  \"b\": true,\n"
            "  \"o\": {\n"
            "    \"inner\": 1\n"
            "  },\n"
            "  \"a\": [\n"
            "    {\n"
            "      \"i\": 0\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, TailSectionKeysAreCanonical) {
  TailStats s;
  s.ops_s = 10.0;
  s.p50_us = 1.0;
  s.p99_us = 2.0;
  s.p999_us = 3.0;
  s.max_us = 4.0;
  const std::string out =
      WriteJson([&](JsonWriter& jw) { jw.TailSection("put", s); });
  EXPECT_NE(out.find("\"put\": {"), std::string::npos);
  EXPECT_NE(out.find("\"ops_per_s\": 10.0"), std::string::npos);
  EXPECT_NE(out.find("\"p50_us\": 1.00"), std::string::npos);
  EXPECT_NE(out.find("\"p999_us\": 3.00"), std::string::npos);
  EXPECT_NE(out.find("\"max_us\": 4.00"), std::string::npos);
}

}  // namespace
}  // namespace e2nvm::bench
