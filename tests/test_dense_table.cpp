#include "checker/dense_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace fsr {
namespace {

TEST(DenseTable, DenseKeysAreStoredFlat) {
  DenseTable<int> t;
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    auto [v, inserted] = t.try_emplace(k);
    EXPECT_TRUE(inserted);
    v = static_cast<int>(k) * 2;
  }
  EXPECT_EQ(t.dense_span(), 1001u);
  EXPECT_EQ(t.find(0), nullptr);
  ASSERT_NE(t.find(500), nullptr);
  EXPECT_EQ(*t.find(500), 1000);
  EXPECT_EQ(t.find(1001), nullptr);
  auto [v, inserted] = t.try_emplace(500);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(v, 1000);
}

TEST(DenseTable, FarOutKeyOverflowsWithoutStretchingTheVector) {
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
  DenseTable<int> t;
  t.try_emplace(1).first = 1;
  t.try_emplace(kFar).first = 7;
  EXPECT_LE(t.dense_span(), 2u);
  ASSERT_NE(t.find(kFar), nullptr);
  EXPECT_EQ(*t.find(kFar), 7);
  EXPECT_EQ(t.find(kFar - 1), nullptr);
  EXPECT_FALSE(t.try_emplace(kFar).second);
}

TEST(DenseTable, GrowingOverAnOverflowKeyKeepsIt) {
  DenseTable<int> t;
  const std::uint64_t ahead = DenseTable<int>::kSlack + 10;  // too far for an empty table
  t.try_emplace(ahead).first = 42;
  EXPECT_EQ(t.dense_span(), 0u);
  for (std::uint64_t k = 0; k < ahead; ++k) t.try_emplace(k).first = 1;
  t.try_emplace(ahead + 1).first = 1;
  EXPECT_GT(t.dense_span(), ahead);  // the dense range now covers it...
  ASSERT_NE(t.find(ahead), nullptr);
  EXPECT_EQ(*t.find(ahead), 42);  // ...and the entry moved in with its value
  EXPECT_FALSE(t.try_emplace(ahead).second);
}

TEST(DenseTable, ForEachVisitsKeysInAscendingOrder) {
  DenseTable<int> t;
  for (std::uint64_t k : {std::uint64_t{1} << 50, std::uint64_t{5}, std::uint64_t{2},
                          std::uint64_t{1} << 33}) {
    t.try_emplace(k);
  }
  std::vector<std::uint64_t> keys;
  t.for_each([&keys](std::uint64_t k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{2, 5, std::uint64_t{1} << 33,
                                              std::uint64_t{1} << 50}));
}

}  // namespace
}  // namespace fsr
