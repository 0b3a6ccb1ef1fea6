// Tests of the benchmark's own code: percentiles, self time of nested spans,
// latency misses, the speed gauge and the Chrome trace export.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "speed.h"
#include "stats.h"
#include "trace.h"

namespace srbench {
namespace {

TEST(NearestRank, PicksCeilRankAndCountsSamples) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  const Percentile p99 = NearestRank(values, 0.99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.samples, 100u);
  const Percentile p50 = NearestRank(values, 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(NearestRank(values, 1.0).value, 100);
  EXPECT_EQ(NearestRank({7}, 0.99).value, 7);
  // 10 samples: p99 is the largest.
  const Percentile small = NearestRank({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99);
  EXPECT_EQ(small.value, 10);
  const Percentile none = NearestRank({}, 0.5);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

// Per thread: OnBatch [0, 100) holds SyncToPending [10, 30), which holds
// Cost [12, 15); a second Cost [40, 45) sits directly under OnBatch.
void RecordNestedRound(int64_t base) {
  trace::Begin(kOnBatch, base + 0);
  trace::Begin(kSync, base + 10);
  trace::Begin(kCost, base + 12);
  trace::End(base + 15, 0, 1);
  trace::End(base + 30);
  trace::Begin(kCost, base + 40);
  trace::End(base + 45, 0, 1);
  trace::End(base + 100);
}

TEST(Trace, SelfTimeSubtractsNestedSpansPerThread) {
  trace::Reset();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Overlapping intervals on different threads must not subtract from
    // each other: only a thread's own nested spans do.
    threads.emplace_back([] { RecordNestedRound(1000); });
  }
  for (std::thread& t : threads) t.join();
  const auto totals = trace::Aggregate();
  EXPECT_EQ(totals[kOnBatch].calls, 4u);
  EXPECT_EQ(totals[kOnBatch].incl_ns, 4u * 100);
  EXPECT_EQ(totals[kOnBatch].self_ns, 4u * (100 - 20 - 5));
  EXPECT_EQ(totals[kSync].incl_ns, 4u * 20);
  EXPECT_EQ(totals[kSync].self_ns, 4u * (20 - 3));
  EXPECT_EQ(totals[kCost].calls, 8u);
  EXPECT_EQ(totals[kCost].self_ns, 4u * 8);
  EXPECT_EQ(totals[kCost].items, 8u);
  trace::Reset();
  EXPECT_EQ(trace::Aggregate()[kOnBatch].calls, 0u);
}

TEST(Trace, KeepsOnlyRoundLevelSpansWithinBudget) {
  trace::Reset();
  trace::SetRecordSpans(true, 3);
  RecordNestedRound(0);  // OnBatch + SyncToPending are round level
  RecordNestedRound(200);
  trace::SetRecordSpans(false, 0);
  const std::vector<SpanRecord> spans = trace::CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& s : spans) EXPECT_TRUE(IsRoundLevel(s.layer));
  EXPECT_EQ(trace::DroppedSpans(), 1u);
  trace::Reset();
}

TEST(NearestRankWithMisses, ShedAndCappedRequestsAreMisses) {
  std::vector<double> decided;
  for (int i = 1; i <= 990; ++i) decided.push_back(i);  // ms
  // 10 misses in 1000: the 990th rank is the slowest decided request.
  Percentile p99 = NearestRankWithMisses(decided, 10, 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.samples, 1000u);
  // 11 misses in 1001: rank ceil(990.99) = 991 falls among the misses.
  EXPECT_TRUE(std::isinf(NearestRankWithMisses(decided, 11, 0.99).value));
  // Misses never pull a percentile down: the median moves up with them.
  EXPECT_EQ(NearestRankWithMisses(decided, 0, 0.5).value, 495);
  EXPECT_EQ(NearestRankWithMisses(decided, 10, 0.5).value, 500);
  // More than half missed: even the median is a miss.
  EXPECT_TRUE(std::isinf(NearestRankWithMisses({1, 2}, 3, 0.5).value));
  // Nothing decided and nothing missed: no samples, value 0.
  const Percentile none = NearestRankWithMisses({}, 0, 0.99);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0);
}

TEST(SpeedGauge, FactorIsAPositiveRatioToTheReference) {
  SpeedGauge gauge;
  const double a = gauge.Factor();
  const double b = gauge.Factor();
  EXPECT_TRUE(std::isfinite(a) && a > 0);
  EXPECT_TRUE(std::isfinite(b) && b > 0);
  // Two readings moments apart agree to well within a factor of two; the
  // kernel is fixed work.
  EXPECT_LT(a / b, 2.0);
  EXPECT_GT(a / b, 0.5);
}

// Minimal JSON syntax checker (RFC 8259 values, no extensions).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool Valid() {
    Ws();
    if (!Value()) return false;
    Ws();
    return i_ == s_.size();
  }

 private:
  void Ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool Eat(char c) {
    Ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool String() {
    if (!Eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    return i_++ < s_.size();
  }
  bool Number() {
    const size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    size_t digits = 0;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      digits += std::isdigit(static_cast<unsigned char>(s_[i_])) ? 1 : 0;
      ++i_;
    }
    return i_ > start && digits > 0;
  }
  bool Value() {
    Ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (Eat('}')) return true;
      do {
        if (!String() || !Eat(':') || !Value()) return false;
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++i_;
      if (Eat(']')) return true;
      do {
        if (!Value()) return false;
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  const std::string& s_;
  size_t i_ = 0;
};

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1))
    ++n;
  return n;
}

TEST(ChromeTrace, IsWellFormedJson) {
  const std::vector<SpanRecord> spans = {{kOnBatch, 0, 1000, 5000},
                                         {kSync, 0, 1500, 2000},
                                         {kEnumerate, 2, 7000, 10}};
  const std::vector<CounterSample> counters = {{6000, 10, 4, 2},
                                               {9000, 0, 0, 0}};
  const std::string json = trace::ChromeTraceJson(spans, counters);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_EQ(Count(json, "\"ph\":\"X\""), 3u);
  EXPECT_EQ(Count(json, "\"ph\":\"C\""), 2u);
  EXPECT_EQ(Count(json, "\"ph\":\"M\""), 3u);  // threads 0..2 named
  EXPECT_NE(json.find("\"name\":\"SyncToPending\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":5.000"), std::string::npos);

  const std::string empty = trace::ChromeTraceJson({}, {});
  EXPECT_TRUE(JsonChecker(empty).Valid()) << empty;
  EXPECT_FALSE(JsonChecker("{\"traceEvents\":[}").Valid());
}

}  // namespace
}  // namespace srbench
