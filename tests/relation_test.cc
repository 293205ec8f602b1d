#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relation/aggregate.h"
#include "relation/csv.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "relation/serialize.h"
#include "relation/sort.h"
#include "sort_reference.h"

namespace sncube {
namespace {

Relation MakeRel(std::initializer_list<std::pair<std::vector<Key>, Measure>> rows) {
  const int w = rows.size() == 0 ? 0 : static_cast<int>(rows.begin()->first.size());
  Relation rel(w);
  for (const auto& [keys, m] : rows) rel.Append(keys, m);
  return rel;
}

TEST(Schema, SortsByDecreasingCardinality) {
  Schema s({10, 300, 50}, {"x", "y", "z"});
  EXPECT_EQ(s.dims(), 3);
  EXPECT_EQ(s.cardinality(0), 300u);
  EXPECT_EQ(s.cardinality(1), 50u);
  EXPECT_EQ(s.cardinality(2), 10u);
  EXPECT_EQ(s.name(0), "y");
  EXPECT_EQ(s.name(1), "z");
  EXPECT_EQ(s.name(2), "x");
}

TEST(Schema, StableForTies) {
  Schema s({6, 6, 8}, {"a", "b", "c"});
  EXPECT_EQ(s.name(0), "c");
  EXPECT_EQ(s.name(1), "a");
  EXPECT_EQ(s.name(2), "b");
}

TEST(Schema, DefaultNames) {
  Schema s({4, 2});
  EXPECT_EQ(s.name(0), "D0");
  EXPECT_EQ(s.name(1), "D1");
}

TEST(Schema, RejectsZeroCardinality) {
  EXPECT_THROW(Schema({4, 0}), SncubeError);
}

TEST(Schema, ColumnsByDefaultNameMapsCsvColumnsToSchemaOrder) {
  // CSV column 0 has 2 values, column 1 has 10: the schema puts D1 first.
  const Schema s({2, 10});
  EXPECT_EQ(s.name(0), "D1");
  const std::vector<int> columns = ColumnsByDefaultName(s);
  EXPECT_EQ(columns, (std::vector<int>{1, 0}));
  const Relation csv = MakeRel({{{1, 9}, 4}, {{0, 5}, 6}});
  const Relation facts = PermuteColumns(csv, columns);
  EXPECT_EQ(facts.key(0, 0), 9u);  // schema dimension 0 = D1 = column 1
  EXPECT_EQ(facts.key(0, 1), 1u);
  EXPECT_EQ(facts.key(1, 0), 5u);
  EXPECT_EQ(facts.measure(1), 6);
  EXPECT_EQ(ColumnsByDefaultName(Schema({9, 9, 3})),
            (std::vector<int>{0, 1, 2}));
}

TEST(Schema, ColumnsByDefaultNameRejectsOtherNames) {
  EXPECT_THROW(ColumnsByDefaultName(Schema({4, 2}, {"x", "y"})), SncubeError);
  EXPECT_THROW(ColumnsByDefaultName(Schema({4, 2}, {"D0", "D2"})),
               SncubeError);
  EXPECT_THROW(ColumnsByDefaultName(Schema({4, 2}, {"D1", "D1"})),
               SncubeError);
  EXPECT_THROW(ColumnsByDefaultName(Schema({4, 2}, {"D0", "D"})), SncubeError);
}

TEST(Relation, AppendAndAccess) {
  Relation rel(3);
  rel.Append(std::vector<Key>{1, 2, 3}, 10);
  rel.Append(std::vector<Key>{4, 5, 6}, 20);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.key(0, 0), 1u);
  EXPECT_EQ(rel.key(1, 2), 6u);
  EXPECT_EQ(rel.measure(1), 20);
  EXPECT_EQ(rel.RowBytes(), 3 * 4 + 8u);
  EXPECT_EQ(rel.ByteSize(), 2 * (3 * 4 + 8u));
}

TEST(Relation, ConcatMovesRows) {
  Relation a = MakeRel({{{1, 1}, 5}});
  Relation b = MakeRel({{{2, 2}, 6}, {{3, 3}, 7}});
  a.Concat(std::move(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.key(2, 0), 3u);
  EXPECT_EQ(b.size(), 0u);
}

TEST(Relation, CompareRowsLexicographic) {
  Relation rel = MakeRel({{{1, 9}, 0}, {{2, 0}, 0}, {{1, 9}, 0}});
  EXPECT_LT(CompareRows(rel, 0, rel, 1), 0);
  EXPECT_GT(CompareRows(rel, 1, rel, 0), 0);
  EXPECT_EQ(CompareRows(rel, 0, rel, 2), 0);
}

TEST(Relation, CompareRowsWithColumnOrders) {
  Relation rel = MakeRel({{{1, 9}, 0}, {{9, 1}, 0}});
  const std::vector<int> second{1};
  // Comparing by column 1 only: row0 has 9, row1 has 1.
  EXPECT_GT(CompareRows(rel, 0, second, rel, 1, second), 0);
}

TEST(Relation, GatherRowsFillsPresizedRange) {
  const Relation src = MakeRel({{{1, 2}, 10}, {{3, 4}, 20}, {{5, 6}, 30}});
  Relation out(2);
  out.Resize(4);
  const std::vector<std::uint32_t> head{2, 0};
  const std::vector<std::uint32_t> tail{1, 2};
  out.GatherRows(src, tail, 2);
  out.GatherRows(src, head, 0);
  EXPECT_EQ(out, MakeRel({{{5, 6}, 30}, {{1, 2}, 10}, {{3, 4}, 20},
                          {{5, 6}, 30}}));
}

TEST(Sort, SortsByGivenColumns) {
  Relation rel = MakeRel({{{3, 1}, 1}, {{1, 2}, 2}, {{2, 0}, 3}});
  const auto cols = IdentityOrder(2);
  Relation sorted = SortRelation(rel, cols);
  EXPECT_TRUE(IsSorted(sorted, cols));
  EXPECT_EQ(sorted.key(0, 0), 1u);
  EXPECT_EQ(sorted.measure(0), 2);
  EXPECT_EQ(sorted.key(2, 0), 3u);
}

TEST(Sort, RespectsColumnPermutation) {
  Relation rel = MakeRel({{{1, 9}, 1}, {{2, 1}, 2}});
  const std::vector<int> order{1, 0};  // sort by second column first
  Relation sorted = SortRelation(rel, order);
  EXPECT_EQ(sorted.key(0, 1), 1u);
  EXPECT_EQ(sorted.key(1, 1), 9u);
  EXPECT_TRUE(IsSorted(sorted, order));
}

TEST(Sort, StableOnEqualKeys) {
  Relation rel = MakeRel({{{5, 1}, 1}, {{5, 2}, 2}, {{5, 3}, 3}});
  const std::vector<int> first{0};
  Relation sorted = SortRelation(rel, first);
  EXPECT_EQ(sorted.measure(0), 1);
  EXPECT_EQ(sorted.measure(1), 2);
  EXPECT_EQ(sorted.measure(2), 3);
}

TEST(Sort, RandomizedMatchesStdSort) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Relation rel(3);
    std::vector<std::vector<Key>> raw;
    for (int i = 0; i < 200; ++i) {
      std::vector<Key> keys{static_cast<Key>(rng.Below(5)),
                            static_cast<Key>(rng.Below(5)),
                            static_cast<Key>(rng.Below(5))};
      raw.push_back(keys);
      rel.Append(keys, i);
    }
    const auto cols = IdentityOrder(3);
    Relation sorted = SortRelation(rel, cols);
    std::sort(raw.begin(), raw.end());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      for (int c = 0; c < 3; ++c) EXPECT_EQ(sorted.key(i, c), raw[i][c]);
    }
  }
}

// ---------------------------------------------------------------------------
// The radix kernel against the comparator reference in sort_reference.h.
// Full permutations are compared, so stability is checked too.

TEST(SortKernel, MatchesStableSortAcrossKeyWidths) {
  Rng rng(2024);
  // 5000 rows: the row offset takes 13 bits, so a word holds 51 key bits.
  const std::vector<std::vector<int>> shapes = {
      {8, 7, 6, 5, 4, 3, 3, 2},  // the paper's mix: 38 bits, one word
      {0, 3, 0, 1},              // all-zero columns order nothing
      {32},                      // one full-width column
      {20, 20, 11},              // 51 bits: one word, exactly full
      {20, 20, 12},              // 52 bits: one bit over, two words
      {32, 32},                  // 64 bits, two words
      {32, 32, 32, 17},          // 113 bits, three words
  };
  for (const auto& bits : shapes) {
    for (const std::uint64_t distinct : {2u, 50u, 100000u}) {
      const Relation rel =
          testing::RandomBitsRelation(5000, bits, distinct, rng);
      std::vector<std::vector<int>> orders{IdentityOrder(rel.width())};
      for (int t = 0; t < 4; ++t) {
        orders.push_back(testing::RandomColumnOrder(rel.width(), rng));
      }
      for (const auto& cols : orders) {
        ASSERT_EQ(SortedPermutation(rel, cols),
                  testing::ReferencePermutation(rel, cols))
            << "columns " << rel.width() << " distinct " << distinct;
      }
    }
  }
}

TEST(SortKernel, MatchesStableSortAtEdgeSizes) {
  Rng rng(7);
  const std::vector<int> bits = {9, 32, 1, 17};
  for (const std::size_t rows :
       {0u, 1u, 2u, 1023u, 1024u, 1025u, 4095u, 4096u, 4097u, 100003u}) {
    const Relation rel = testing::RandomBitsRelation(rows, bits, 64, rng);
    for (int t = 0; t < 3; ++t) {
      const auto cols = testing::RandomColumnOrder(rel.width(), rng);
      ASSERT_EQ(SortedPermutation(rel, cols),
                testing::ReferencePermutation(rel, cols))
          << "rows " << rows;
    }
  }
}

TEST(SortKernel, AllEqualAndPresortedInputs) {
  const Key max_key = std::numeric_limits<Key>::max();
  Relation equal(3);
  for (int r = 0; r < 5000; ++r) {
    equal.Append(std::vector<Key>{7, 0, max_key}, r);
  }
  std::vector<std::uint32_t> identity(equal.size());
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(SortedPermutation(equal, IdentityOrder(3)), identity);

  Rng rng(3);
  const Relation rel =
      testing::RandomBitsRelation(20000, {12, 5, 30}, 300, rng);
  const std::vector<int> cols{1, 2, 0};
  std::vector<std::uint32_t> order = testing::ReferencePermutation(rel, cols);
  const Relation sorted = ApplyPermutation(rel, order);
  EXPECT_EQ(SortedPermutation(sorted, cols),
            testing::ReferencePermutation(sorted, cols));
  std::reverse(order.begin(), order.end());
  const Relation reversed = ApplyPermutation(rel, order);
  EXPECT_EQ(SortedPermutation(reversed, cols),
            testing::ReferencePermutation(reversed, cols));
}

TEST(SortKernel, SortsOnlyItsRowRange) {
  Rng rng(11);
  const Relation rel = testing::RandomBitsRelation(9000, {6, 25, 3}, 40, rng);
  const std::vector<int> cols{2, 0, 1};
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 9000}, {0, 1}, {17, 17}, {100, 4197}, {4500, 9000}};
  for (const auto& [b, e] : ranges) {
    std::vector<std::uint32_t> out(e - b);
    RadixSortRows(rel, cols, b, e, out);
    EXPECT_EQ(out, testing::ReferencePermutation(rel, cols, b, e))
        << b << ".." << e;
  }
  std::vector<std::uint32_t> out(rel.size() + 1);
  EXPECT_THROW(RadixSortRows(rel, cols, 0, rel.size() + 1, out), SncubeError);
}

TEST(Aggregate, SumsDuplicateGroups) {
  Relation rel = MakeRel({{{1, 1}, 5}, {{1, 1}, 7}, {{1, 2}, 1}, {{2, 1}, 2}});
  const auto cols = IdentityOrder(2);
  Relation agg = SortAndAggregate(rel, cols, AggFn::kSum);
  ASSERT_EQ(agg.size(), 3u);
  EXPECT_EQ(agg.measure(0), 12);  // (1,1)
  EXPECT_EQ(agg.measure(1), 1);   // (1,2)
  EXPECT_EQ(agg.measure(2), 2);   // (2,1)
}

TEST(Aggregate, PrefixProjection) {
  Relation rel = MakeRel({{{1, 1}, 5}, {{1, 2}, 7}, {{2, 9}, 1}});
  const std::vector<int> prefix{0};
  Relation agg = SortAndAggregate(rel, prefix, AggFn::kSum);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg.width(), 1);
  EXPECT_EQ(agg.key(0, 0), 1u);
  EXPECT_EQ(agg.measure(0), 12);
  EXPECT_EQ(agg.measure(1), 1);
}

TEST(Aggregate, MinMax) {
  Relation rel = MakeRel({{{1}, 5}, {{1}, 7}, {{1}, 3}});
  const auto cols = IdentityOrder(1);
  EXPECT_EQ(SortAndAggregate(rel, cols, AggFn::kMin).measure(0), 3);
  EXPECT_EQ(SortAndAggregate(rel, cols, AggFn::kMax).measure(0), 7);
}

TEST(Aggregate, EmptyInput) {
  Relation rel(2);
  const auto cols = IdentityOrder(2);
  EXPECT_EQ(AggregateSortedPrefix(rel, cols, AggFn::kSum).size(), 0u);
}

TEST(Aggregate, ColumnPermutationProjectsInThatOrder) {
  Relation rel = MakeRel({{{1, 9}, 4}});
  const std::vector<int> order{1, 0};
  Relation agg = SortAndAggregate(rel, order, AggFn::kSum);
  EXPECT_EQ(agg.key(0, 0), 9u);  // column order follows `order`
  EXPECT_EQ(agg.key(0, 1), 1u);
}

TEST(Aggregate, MergeSortedAggregateCombinesAcross) {
  Relation a = MakeRel({{{1, 1}, 5}, {{3, 3}, 1}});
  Relation b = MakeRel({{{1, 1}, 2}, {{2, 2}, 9}});
  const std::vector<int> cols{0, 1};
  Relation merged;
  MergeSortedAggregate(a, b, cols, AggFn::kSum, merged);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.measure(0), 7);
  EXPECT_EQ(merged.key(1, 0), 2u);
  EXPECT_EQ(merged.key(2, 0), 3u);
}

TEST(Aggregate, MergeWithEmptySide) {
  Relation a = MakeRel({{{1}, 5}});
  Relation b(1);
  const std::vector<int> cols{0};
  Relation merged;
  MergeSortedAggregate(a, b, cols, AggFn::kSum, merged);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.measure(0), 5);
}

TEST(Aggregate, CollapseSorted) {
  Relation rel = MakeRel({{{1}, 1}, {{1}, 2}, {{2}, 3}});
  Relation collapsed = CollapseSorted(rel, AggFn::kSum);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed.measure(0), 3);
}

TEST(Aggregate, CountGroups) {
  Relation rel = MakeRel({{{1, 1}, 0}, {{1, 2}, 0}, {{2, 2}, 0}});
  const std::vector<int> first{0};
  EXPECT_EQ(CountGroups(rel, first), 2u);
  EXPECT_EQ(CountGroups(rel, IdentityOrder(2)), 3u);
}

TEST(Serialize, RoundTrip) {
  Relation rel = MakeRel({{{1, 2, 3}, -7}, {{4, 5, 6}, 1234567890123}});
  ByteBuffer bytes = SerializeRelation(rel);
  EXPECT_EQ(bytes.size(), rel.ByteSize());
  Relation back = DeserializeRelation(bytes, 3);
  EXPECT_EQ(back, rel);
}

TEST(Serialize, PartialRange) {
  Relation rel = MakeRel({{{1}, 1}, {{2}, 2}, {{3}, 3}});
  ByteBuffer bytes;
  SerializeRows(rel, 1, 3, bytes);
  Relation back = DeserializeRelation(bytes, 1);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.key(0, 0), 2u);
}

TEST(Serialize, RejectsPartialRows) {
  Relation rel(2);
  ByteBuffer bad(7);
  EXPECT_THROW(DeserializeRows(bad, rel), SncubeError);
}

TEST(Serialize, EmptyRelation) {
  Relation rel(4);
  ByteBuffer bytes = SerializeRelation(rel);
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(DeserializeRelation(bytes, 4).size(), 0u);
}

TEST(Csv, RoundTrip) {
  Relation rel = MakeRel({{{1, 2}, 30}, {{4, 5}, -60}});
  std::stringstream ss;
  WriteCsv(ss, rel, {"a", "b"});
  Relation back = ReadCsv(ss);
  EXPECT_EQ(back, rel);
}

TEST(Csv, HeaderOnly) {
  std::stringstream ss("a,b,measure\n");
  Relation rel = ReadCsv(ss);
  EXPECT_EQ(rel.width(), 2);
  EXPECT_EQ(rel.size(), 0u);
}

// The message of the SncubeCorruptionError ReadCsv throws for `csv`, or ""
// when it reads cleanly.
std::string CsvError(const std::string& csv) {
  std::stringstream ss(csv);
  try {
    ReadCsv(ss);
  } catch (const SncubeCorruptionError& e) {
    return e.what();
  }
  return "";
}

TEST(Csv, RejectsBadCodesNamingTheLine) {
  for (const std::string cell :
       {"-1", "4294967296", "99999999999999999999", "", "abc", "12x", " 3",
        "+3", "3.0"}) {
    const std::string err = CsvError("a,b,measure\n1,2,3\n4," + cell + ",5\n");
    EXPECT_NE(err.find("line 3"), std::string::npos) << cell << ": " << err;
    EXPECT_NE(err.find("column 2"), std::string::npos) << cell << ": " << err;
  }
}

TEST(Csv, RejectsBadMeasures) {
  for (const std::string cell :
       {"", "x", "5 ", "9223372036854775808", "1e3", "--1"}) {
    EXPECT_NE(CsvError("a,measure\n1,2\n\n3," + cell + "\n").find("line 4"),
              std::string::npos)
        << cell;
  }
}

TEST(Csv, RejectsWrongCellCounts) {
  EXPECT_NE(CsvError("a,b,measure\n1,2\n").find("line 2"), std::string::npos);
  EXPECT_NE(CsvError("a,b,measure\n1,2,3,4\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(CsvError("").find("header"), std::string::npos);
}

TEST(Csv, ReadsFullCodeAndMeasureRanges) {
  std::stringstream ss(
      "a,measure\n4294967295,-9223372036854775808\n0,9223372036854775807\n");
  const Relation rel = ReadCsv(ss);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.key(0, 0), std::numeric_limits<Key>::max());
  EXPECT_EQ(rel.measure(0), std::numeric_limits<Measure>::min());
  EXPECT_EQ(rel.measure(1), std::numeric_limits<Measure>::max());
}

TEST(Csv, ReadsCrlfAndSkipsBlankLines) {
  std::stringstream lf("a,b,measure\n1,2,30\n\n4,5,-60\n");
  std::stringstream crlf("a,b,measure\r\n1,2,30\r\n\r\n4,5,-60\r\n");
  const Relation want = MakeRel({{{1, 2}, 30}, {{4, 5}, -60}});
  EXPECT_EQ(ReadCsv(lf), want);
  EXPECT_EQ(ReadCsv(crlf), want);
}

}  // namespace
}  // namespace sncube
