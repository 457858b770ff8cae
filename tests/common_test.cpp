// Unit tests for the foundations: RNG determinism and distributions,
// process sets, streaming statistics, serialization round-trips, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/process_set.hpp"
#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace rfd {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.below(13);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 13);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(3, 6);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 6);
    hit_lo = hit_lo || v == 3;
    hit_hi = hit_hi || v == 6;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximates) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 40'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  Summary s;
  for (int i = 0; i < 40'000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, SplitIndependence) {
  Rng base(23);
  Rng a = base.split(1);
  Rng b = base.split(2);
  Rng a2 = base.split(1);
  EXPECT_EQ(a(), a2());  // same tag, same stream
  int same = 0;
  Rng a3 = base.split(1);
  (void)a3();
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v.data(), static_cast<std::int64_t>(v.size()));
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

TEST(ProcessSet, InsertEraseContains) {
  ProcessSet s(70);
  EXPECT_TRUE(s.empty());
  s.insert(0);
  s.insert(69);
  s.insert(64);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(69));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.count(), 3);
  s.erase(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.count(), 2);
}

TEST(ProcessSet, MinMaxMembers) {
  ProcessSet s = ProcessSet::of(100, {5, 77, 31});
  EXPECT_EQ(s.min(), 5);
  EXPECT_EQ(s.max(), 77);
  EXPECT_EQ(s.members(), (std::vector<ProcessId>{5, 31, 77}));
  EXPECT_EQ(ProcessSet(10).min(), -1);
  EXPECT_EQ(ProcessSet(10).max(), -1);
}

TEST(ProcessSet, Algebra) {
  const ProcessSet a = ProcessSet::of(10, {1, 2, 3});
  const ProcessSet b = ProcessSet::of(10, {3, 4});
  EXPECT_EQ((a | b), ProcessSet::of(10, {1, 2, 3, 4}));
  EXPECT_EQ((a & b), ProcessSet::of(10, {3}));
  EXPECT_EQ((a - b), ProcessSet::of(10, {1, 2}));
  EXPECT_TRUE(ProcessSet::of(10, {1, 2}).is_subset_of(a));
  EXPECT_FALSE(a.is_subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(ProcessSet::of(10, {7}).intersects(a));
}

TEST(ProcessSet, ComplementAndFull) {
  const ProcessSet s = ProcessSet::of(5, {0, 2});
  EXPECT_EQ(s.complement(), ProcessSet::of(5, {1, 3, 4}));
  EXPECT_EQ(ProcessSet::full(5).count(), 5);
  EXPECT_EQ(ProcessSet::full(5).complement().count(), 0);
  // Around both word boundaries, inline (<= 64) and heap (> 64) storage:
  // the unused bits of the tail word never become members.
  for (ProcessId u : {0, 1, 63, 64, 65, 128, 130}) {
    const ProcessSet all = ProcessSet::full(u);
    EXPECT_EQ(all.count(), u) << u;
    EXPECT_EQ(all.max(), u - 1) << u;
    EXPECT_EQ(ProcessSet(u).complement(), all) << u;
    ProcessSet thirds(u);
    for (ProcessId p = 0; p < u; p += 3) thirds.insert(p);
    const ProcessSet rest = thirds.complement();
    EXPECT_EQ(rest.complement(), thirds) << u;
    EXPECT_EQ(rest.count() + thirds.count(), u) << u;
    EXPECT_LT(rest.max(), u) << u;
    EXPECT_EQ(rest | thirds, all) << u;
    EXPECT_FALSE(rest.intersects(thirds)) << u;
  }
}

TEST(ProcessSet, EqualityAndHashIgnoreHowTheSetWasBuilt) {
  for (ProcessId u : {1, 63, 64, 65, 128, 130}) {
    const ProcessSet built = ProcessSet::of(u, {0, u / 2, u - 1});
    ProcessSet carved = ProcessSet::full(u);
    for (ProcessId p = 0; p < u; ++p) {
      if (!built.contains(p)) carved.erase(p);
    }
    EXPECT_EQ(carved, built) << u;
    EXPECT_EQ(carved.hash(), built.hash()) << u;
  }
}

TEST(ProcessSet, CopyAndMoveAcrossStorage) {
  const ProcessSet big = ProcessSet::of(130, {0, 64, 129});
  const ProcessSet small = ProcessSet::of(5, {1, 4});
  ProcessSet copy = big;
  copy.erase(64);
  EXPECT_TRUE(big.contains(64));  // the copy owns its own words
  EXPECT_EQ(copy, ProcessSet::of(130, {0, 129}));

  ProcessSet slot = big;
  slot = small;  // multi-word -> one word
  EXPECT_EQ(slot, small);
  slot = big;  // and back
  EXPECT_EQ(slot, big);
  slot.insert(100);
  EXPECT_FALSE(big.contains(100));

  ProcessSet moved = std::move(slot);
  EXPECT_EQ(moved, ProcessSet::of(130, {0, 64, 100, 129}));
  moved = ProcessSet(small);
  EXPECT_EQ(moved, small);
  moved = ProcessSet(big);
  EXPECT_EQ(moved, big);
  ProcessSet small_copy = small;
  small_copy.insert(0);
  EXPECT_FALSE(small.contains(0));
}

TEST(ProcessSet, ForEachOrder) {
  const ProcessSet s = ProcessSet::of(130, {128, 3, 65});
  std::vector<ProcessId> seen;
  s.for_each([&](ProcessId p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<ProcessId>{3, 65, 128}));
}

TEST(ProcessSet, HashDistinguishes) {
  EXPECT_NE(ProcessSet::of(10, {1}).hash(), ProcessSet::of(10, {2}).hash());
  EXPECT_EQ(ProcessSet::of(10, {1, 5}).hash(), ProcessSet::of(10, {5, 1}).hash());
}

TEST(Summary, MomentsAndPercentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.count(), 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 0.1);
}

TEST(Summary, EmptyIsNaN) {
  Summary s;
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.percentile(0.5)));
}

TEST(Summary, Merge) {
  Summary a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Serialization, RoundTripScalars) {
  Writer w;
  w.u8(200);
  w.boolean(true);
  w.varint(0);
  w.varint(-1);
  w.varint(123456789012345);
  w.varint(std::numeric_limits<std::int64_t>::min());
  w.varint(std::numeric_limits<std::int64_t>::max());
  w.str("hello");
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.varint(), 0);
  EXPECT_EQ(r.varint(), -1);
  EXPECT_EQ(r.varint(), 123456789012345);
  EXPECT_EQ(r.varint(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.varint(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, RoundTripAggregates) {
  Writer w;
  w.process_set(ProcessSet::of(9, {0, 4, 8}));
  w.values({kNoValue, 7, -9});
  Bytes inner{std::byte{1}, std::byte{2}};
  w.bytes(inner);
  Reader r(w.data());
  EXPECT_EQ(r.process_set(), ProcessSet::of(9, {0, 4, 8}));
  EXPECT_EQ(r.values(), (std::vector<Value>{kNoValue, 7, -9}));
  EXPECT_EQ(r.bytes(), inner);
  EXPECT_TRUE(r.exhausted());
}

TEST(Table, RendersAndAligns) {
  Table t({"name", "count"});
  t.add_row({"alpha", "10"});
  t.add_row({"b", "2"});
  const std::string out = t.render("demo");
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find(" 10 |"), std::string::npos);  // numeric right-aligned
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(42), "42");
  EXPECT_EQ(Table::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.5), "50.0%");
  EXPECT_EQ(Table::yes_no(true), "yes");
}

}  // namespace
}  // namespace rfd
