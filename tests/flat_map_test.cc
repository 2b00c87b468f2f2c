// Contract tests for the open-addressing FlatMap used on the hot paths of
// storage, the lock table and the threaded runtime. The pointer- and
// iterator-invalidation rules pinned here are the ones Table::Get's
// documentation promises to callers.

#include "common/flat_map.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ecdb {
namespace {

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);

  map[7] = 70;
  map[9] = 90;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70);
  EXPECT_TRUE(map.Contains(9));
  EXPECT_FALSE(map.Contains(8));

  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(9), 90);
}

TEST(FlatMapTest, OperatorBracketDefaultConstructs) {
  FlatMap<uint64_t, std::vector<int>> map;
  EXPECT_TRUE(map[5].empty());
  map[5].push_back(1);
  EXPECT_EQ(map[5].size(), 1u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, EmplaceDoesNotOverwrite) {
  FlatMap<uint64_t, int> map;
  auto [v1, inserted1] = map.Emplace(3, 30);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*v1, 30);
  auto [v2, inserted2] = map.Emplace(3, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 30);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, GrowsThroughRehashesWithoutLosingEntries) {
  FlatMap<uint64_t, uint64_t> map;
  constexpr uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) map[i * 31] = i;
  EXPECT_EQ(map.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_NE(map.Find(i * 31), nullptr) << i;
    EXPECT_EQ(*map.Find(i * 31), i);
  }
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(FlatMapTest, ReservePreventsRehash) {
  FlatMap<uint64_t, uint64_t> map;
  map.Reserve(1000);
  const size_t cap = map.capacity();
  EXPECT_GE(cap * 3, 1000u * 4 / 4 * 3);  // holds 1000 under 3/4 load
  for (uint64_t i = 0; i < 1000; ++i) map[i] = i;
  EXPECT_EQ(map.capacity(), cap);  // no growth happened

  // With a reservation in place, pointers stay valid across the fill: the
  // contract bulk loaders rely on is "no rehash before the reserved count".
  map.Clear();
  map.Reserve(1000);
  uint64_t* first = &map[0];
  for (uint64_t i = 1; i < 1000; ++i) map[i] = i;
  EXPECT_EQ(first, map.Find(0));
}

TEST(FlatMapTest, PointerInvalidationOnRehashIsReal) {
  // Not a guarantee we *want*, but the documented hazard: growing past the
  // load factor moves every slot, so a held pointer must not be reused.
  FlatMap<uint64_t, uint64_t> map;
  map[1] = 11;
  const uint64_t* before = map.Find(1);
  for (uint64_t i = 2; i < 2000; ++i) map[i] = i;  // forces rehashes
  const uint64_t* after = map.Find(1);
  EXPECT_EQ(*after, 11u);
  // `before` may no longer equal `after`; dereferencing it would be UB. We
  // only assert the lookup still works post-rehash.
  (void)before;
}

TEST(FlatMapTest, EraseBackwardShiftKeepsProbeChainsReachable) {
  // Dense sequential keys force long shared probe chains; erasing from the
  // middle must backward-shift, not tombstone, so every survivor stays
  // findable.
  FlatMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 512; ++i) map[i] = i;
  for (uint64_t i = 0; i < 512; i += 2) EXPECT_TRUE(map.Erase(i));
  EXPECT_EQ(map.size(), 256u);
  for (uint64_t i = 0; i < 512; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(map.Find(i), nullptr) << i;
    } else {
      ASSERT_NE(map.Find(i), nullptr) << i;
      EXPECT_EQ(*map.Find(i), i);
    }
  }
}

TEST(FlatMapTest, EraseReleasesSlotResources) {
  FlatMap<uint64_t, std::string> map;
  map[1] = std::string(1000, 'x');
  EXPECT_TRUE(map.Erase(1));
  // The vacated slot must not keep the old value alive: re-inserting the
  // key yields a fresh default, not the stale string.
  EXPECT_TRUE(map[1].empty());
}

TEST(FlatMapTest, ClearKeepsCapacityAndEmpties) {
  FlatMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 100; ++i) map[i] = i;
  const size_t cap = map.capacity();
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.Find(5), nullptr);
  map[5] = 55;
  EXPECT_EQ(*map.Find(5), 55u);
}

TEST(FlatMapTest, IterationVisitsEveryEntryExactlyOnce) {
  FlatMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 300; ++i) map[i * 7] = i;
  std::set<uint64_t> seen;
  for (const auto& slot : map) {
    EXPECT_TRUE(seen.insert(slot.key).second) << "duplicate " << slot.key;
    EXPECT_EQ(slot.value * 7, slot.key);
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(FlatMapTest, IterationOrderIsDeterministicForSameHistory) {
  // The simulator's golden trace requires container iteration to depend
  // only on the operation sequence.
  auto build = [] {
    FlatMap<uint64_t, uint64_t> map;
    for (uint64_t i = 0; i < 64; ++i) map[i * 13] = i;
    map.Erase(13 * 7);
    map.Erase(13 * 40);
    return map;
  };
  FlatMap<uint64_t, uint64_t> a = build();
  FlatMap<uint64_t, uint64_t> b = build();
  std::vector<uint64_t> ka, kb;
  for (const auto& slot : a) ka.push_back(slot.key);
  for (const auto& slot : b) kb.push_back(slot.key);
  EXPECT_EQ(ka, kb);
}

TEST(FlatMapTest, CustomHasherIsUsed) {
  struct Pair {
    uint32_t a = 0;
    uint32_t b = 0;
    bool operator==(const Pair&) const = default;
  };
  struct PairHash {
    size_t operator()(const Pair& p) const {
      uint64_t h = (static_cast<uint64_t>(p.a) << 32) | p.b;
      return static_cast<size_t>(h * 0x9E3779B97F4A7C15ULL);
    }
  };
  FlatMap<Pair, int, PairHash> map;
  map[Pair{1, 2}] = 12;
  map[Pair{2, 1}] = 21;
  EXPECT_EQ(*map.Find(Pair{1, 2}), 12);
  EXPECT_EQ(*map.Find(Pair{2, 1}), 21);
  EXPECT_TRUE(map.Erase(Pair{1, 2}));
  EXPECT_EQ(map.Find(Pair{1, 2}), nullptr);
}

// Randomized differential test against std::unordered_map-like semantics.
TEST(FlatMapTest, RandomizedMirrorsReferenceMap) {
  Rng rng(2024);
  FlatMap<uint64_t, uint64_t> map;
  std::vector<std::pair<uint64_t, uint64_t>> ref;  // key -> value
  auto ref_find = [&](uint64_t k) -> uint64_t* {
    for (auto& [key, value] : ref) {
      if (key == k) return &value;
    }
    return nullptr;
  };
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.NextBounded(400);
    switch (rng.NextBounded(3)) {
      case 0: {  // insert/overwrite
        const uint64_t value = rng.Next();
        map[key] = value;
        if (uint64_t* v = ref_find(key)) {
          *v = value;
        } else {
          ref.emplace_back(key, value);
        }
        break;
      }
      case 1: {  // erase
        const bool erased = map.Erase(key);
        bool ref_erased = false;
        for (size_t i = 0; i < ref.size(); ++i) {
          if (ref[i].first == key) {
            ref[i] = ref.back();
            ref.pop_back();
            ref_erased = true;
            break;
          }
        }
        ASSERT_EQ(erased, ref_erased) << "step " << step;
        break;
      }
      default: {  // lookup
        uint64_t* v = map.Find(key);
        uint64_t* r = ref_find(key);
        ASSERT_EQ(v == nullptr, r == nullptr) << "step " << step;
        if (v != nullptr) {
          ASSERT_EQ(*v, *r) << "step " << step;
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
  }
}

}  // namespace
}  // namespace ecdb
