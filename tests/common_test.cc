#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/table.h"

namespace fmds {
namespace {

// ------------------------------- Status ----------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFound("key 17 missing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: key 17 missing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kUnimplemented);
       ++code) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(code)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status(StatusCode::kUnavailable, "nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  FMDS_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status(StatusCode::kInternal, "x")).ok());
}

// -------------------------------- Rng ------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  int counts[kBuckets] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextBelow(kBuckets)]++;
  }
  for (int bucket : counts) {
    EXPECT_NEAR(bucket, kDraws / kBuckets, kDraws / kBuckets / 5);
  }
}

TEST(ZipfTest, SkewConcentratesMassOnHotKeys) {
  ZipfGenerator zipf(10000, 0.99, 5);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    counts[zipf.Next()]++;
  }
  // With theta=0.99 the hottest key takes a large share.
  int top = 0;
  for (const auto& [key, count] : counts) {
    top = std::max(top, count);
  }
  EXPECT_GT(top, kDraws / 20);
  // All draws in range.
  EXPECT_LT(counts.rbegin()->first, 10000u);
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  ZipfGenerator zipf(100, 0.0, 6);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    counts[zipf.Next()]++;
  }
  for (const auto& [key, count] : counts) {
    EXPECT_LT(count, 3000);  // no key dominates
  }
}

TEST(DiscreteChoiceTest, RespectsWeights) {
  DiscreteChoice choice({0.9, 0.1}, 3);
  int first = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    first += choice.Next() == 0;
  }
  EXPECT_NEAR(first, kDraws * 9 / 10, kDraws / 20);
}

// ------------------------------ Histogram --------------------------------

TEST(LogHistogramTest, BasicStats) {
  LogHistogram hist;
  for (uint64_t v = 1; v <= 1000; ++v) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 1000u);
  EXPECT_NEAR(hist.mean(), 500.5, 0.01);
  // Log buckets bound the relative error.
  EXPECT_NEAR(static_cast<double>(hist.Percentile(0.5)), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(hist.Percentile(0.99)), 990.0,
              990.0 * 0.05);
}

TEST(LogHistogramTest, MergeMatchesCombined) {
  LogHistogram a, b, combined;
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextBelow(1 << 20) + 1;
    combined.Record(v);
    (i % 2 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.Percentile(0.5), combined.Percentile(0.5));
}

TEST(LogHistogramTest, EmptyIsZero) {
  LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Percentile(0.99), 0u);
  EXPECT_EQ(hist.mean(), 0.0);
}

TEST(LogHistogramTest, ResetClears) {
  LogHistogram hist;
  hist.Record(5);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.max(), 0u);
}

TEST(LogHistogramTest, ZeroIsFirstClass) {
  // Background far ops cost the client clock nothing; the recorder still
  // histograms them, so zero must record and report exactly.
  LogHistogram hist;
  hist.Record(0);
  hist.Record(0);
  hist.Record(8);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 8u);
  EXPECT_EQ(hist.sum(), 8u);
  EXPECT_EQ(hist.Percentile(0.0), 0u);
  EXPECT_EQ(hist.Percentile(0.5), 0u);
  EXPECT_EQ(hist.Percentile(1.0), 8u);
}

TEST(LogHistogramTest, SingleValueAllQuantiles) {
  LogHistogram hist;
  hist.Record(777);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(hist.Percentile(q), 777u) << "q=" << q;
  }
  EXPECT_EQ(hist.min(), 777u);
  EXPECT_EQ(hist.max(), 777u);
}

TEST(LogHistogramTest, QuantileBoundsAreMinAndMax) {
  LogHistogram hist;
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    hist.Record(rng.NextBelow(1 << 16) + 3);
  }
  // q=0 / q=1 are exact even though interior quantiles are bucketed, and
  // out-of-range q clamps rather than misbehaving.
  EXPECT_EQ(hist.Percentile(0.0), hist.min());
  EXPECT_EQ(hist.Percentile(1.0), hist.max());
  EXPECT_EQ(hist.Percentile(-0.5), hist.min());
  EXPECT_EQ(hist.Percentile(1.5), hist.max());
  // Interior quantiles stay within the recorded range and are monotone.
  uint64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const uint64_t v = hist.Percentile(q);
    EXPECT_GE(v, hist.min());
    EXPECT_LE(v, hist.max());
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LogHistogramTest, MergeEmptyAndCrossBucket) {
  LogHistogram a, b;
  // Merging an empty histogram is a no-op (and min does not get polluted
  // by the empty side's sentinel).
  a.Record(100);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 100u);
  // Merging into an empty histogram adopts the other side exactly.
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.min(), 100u);
  // Cross-bucket merge: values in far-apart log buckets keep exact
  // count/min/max/sum and a sane median.
  LogHistogram lo, hi;
  lo.Record(1);
  lo.Record(2);
  hi.Record(1 << 20);
  lo.Merge(hi);
  EXPECT_EQ(lo.count(), 3u);
  EXPECT_EQ(lo.min(), 1u);
  EXPECT_EQ(lo.max(), 1u << 20);
  EXPECT_EQ(lo.sum(), 3u + (1u << 20));
  EXPECT_EQ(lo.Percentile(0.5), 2u);
}

TEST(RunningStatTest, MeanAndStddev) {
  RunningStat stat;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stat.Record(v);
  }
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.stddev(), 2.138, 0.001);
  EXPECT_EQ(stat.min(), 2.0);
  EXPECT_EQ(stat.max(), 9.0);
}

// -------------------------------- Table ----------------------------------

TEST(TableTest, RendersAlignedRows) {
  Table table({"name", "value"});
  table.AddRow({"alpha", Table::Cell(uint64_t{42})});
  table.AddRow({"b", Table::Cell(3.14159, 2)});
  std::ostringstream os;
  table.Print(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("name |"), std::string::npos);  // right-aligned header
}

// -------------------------------- Bytes ----------------------------------

TEST(BytesTest, RoundTripPod) {
  struct Pod {
    uint64_t a;
    uint32_t b;
    uint32_t c;
  };
  Pod in{7, 8, 9};
  Pod out{};
  auto bytes = AsConstBytes(in);
  std::memcpy(AsBytes(out).data(), bytes.data(), bytes.size());
  EXPECT_EQ(out.a, 7u);
  EXPECT_EQ(out.b, 8u);
  EXPECT_EQ(out.c, 9u);
}

TEST(BytesTest, LoadStoreAtOffset) {
  std::vector<std::byte> buf(32);
  StoreAs<uint64_t>(buf, 0xdeadbeef, 8);
  EXPECT_EQ(LoadAs<uint64_t>(buf, 8), 0xdeadbeefull);
}

// -------------------------------- Hash -----------------------------------

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip ~half the output bits.
  const uint64_t base = Mix64(12345);
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t flipped = Mix64(12345ull ^ (1ull << bit));
    total_flips += __builtin_popcountll(base ^ flipped);
  }
  EXPECT_NEAR(total_flips / 64.0, 32.0, 6.0);
}

TEST(HashTest, Fnv1aDiffers) {
  EXPECT_NE(Fnv1a("hello"), Fnv1a("world"));
  EXPECT_EQ(Fnv1a("same"), Fnv1a("same"));
}

// ------------------------------- FlatMap ---------------------------------

// Applies one random insert-or-overwrite, erase or find of `key` to both
// maps and checks that they agree on its outcome and on their sizes.
void RandomFlatMapStep(Rng& rng, uint64_t key, bool may_insert,
                       FlatMap<uint64_t>& map,
                       std::unordered_map<uint64_t, uint64_t>& oracle) {
  const uint64_t op = rng.NextBelow(3);
  if (op == 0 && may_insert) {
    const uint64_t value = rng.Next();
    map[key] = value;
    oracle[key] = value;
  } else if (op == 1) {
    EXPECT_EQ(map.Erase(key), oracle.erase(key) == 1) << "key " << key;
  } else {
    const uint64_t* got = map.Find(key);
    const auto want = oracle.find(key);
    ASSERT_EQ(got != nullptr, want != oracle.end()) << "key " << key;
    if (got != nullptr) {
      EXPECT_EQ(*got, want->second) << "key " << key;
    }
  }
  ASSERT_EQ(map.size(), oracle.size());
}

// Every key of `pool` is found in `map` exactly when the oracle holds it,
// with the oracle's value, and ForEach visits exactly the oracle's entries.
void ExpectSameContents(const std::vector<uint64_t>& pool,
                        FlatMap<uint64_t>& map,
                        const std::unordered_map<uint64_t, uint64_t>& oracle) {
  for (uint64_t key : pool) {
    const uint64_t* got = map.Find(key);
    const auto want = oracle.find(key);
    ASSERT_EQ(got != nullptr, want != oracle.end()) << "key " << key;
    if (got != nullptr) {
      EXPECT_EQ(*got, want->second) << "key " << key;
    }
  }
  size_t visited = 0;
  map.ForEach([&](uint64_t key, uint64_t& value) {
    ++visited;
    const auto want = oracle.find(key);
    ASSERT_NE(want, oracle.end()) << "key " << key;
    EXPECT_EQ(value, want->second) << "key " << key;
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomOps) {
  // A small key space (with 0 and the largest keys in it) makes overwrites,
  // erases of present keys and finds of erased ones common, and the map
  // grows through several rehashes.
  std::vector<uint64_t> pool;
  for (uint64_t k = 0; k < 700; ++k) {
    pool.push_back(k);
  }
  for (uint64_t k = 0; k < 8; ++k) {
    pool.push_back(~uint64_t{0} - k);
  }
  Rng rng(7);
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> oracle;
  for (int step = 0; step < 40000; ++step) {
    RandomFlatMapStep(rng, pool[rng.NextBelow(pool.size())],
                      /*may_insert=*/true, map, oracle);
  }
  ExpectSameContents(pool, map, oracle);
  map.Clear();
  oracle.clear();
  ExpectSameContents(pool, map, oracle);
}

TEST(FlatMapTest, ClusterWrappingPastTheEndSurvivesErase) {
  // Reserve(8) sizes the 16-slot minimum table (it stays at most half
  // full), and at most 8 keys are present here, so it never rehashes. Every
  // pool key hashes to one of its last two slots: the keys form one probe
  // run that wraps past the array's end, and each erase must shift the
  // wrapped entries back without losing one.
  constexpr uint64_t kSlots = 16;
  std::vector<uint64_t> pool;
  for (uint64_t k = 0; pool.size() < 12; ++k) {
    if ((Mix64(k) & (kSlots - 1)) >= kSlots - 2) {
      pool.push_back(k);
    }
  }
  Rng rng(11);
  FlatMap<uint64_t> map;
  map.Reserve(8);
  std::unordered_map<uint64_t, uint64_t> oracle;
  for (int step = 0; step < 5000; ++step) {
    RandomFlatMapStep(rng, pool[rng.NextBelow(pool.size())],
                      /*may_insert=*/oracle.size() < 8, map, oracle);
    ExpectSameContents(pool, map, oracle);
  }
}

}  // namespace
}  // namespace fmds
