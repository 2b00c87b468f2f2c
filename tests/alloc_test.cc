// Allocation tripwire: counts global operator new calls while a
// deterministic SimCluster loads its partitions and runs a fixed window of
// EC transactions. The simulator repeats exactly for a seed, so the
// per-commit counts, and the setup counts, repeat too. The ceilings fail
// the build when a change puts heap allocation back on the per-row or
// per-transaction path (the way the sizeof(Message) static_assert guards
// message size).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "common/cow_vector.h"
#include "workload/ycsb.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ecdb {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct AllocCounts {
  uint64_t setup = 0;   // SimCluster construction + Start (partition load)
  uint64_t window = 0;  // during the measured window
  uint64_t commits = 0;
};

/// EC on `nodes` nodes x 8 clients, YCSB with 16,384 rows per partition
/// and two partitions per transaction, seed 7: 0.1 s of simulated warm-up,
/// then a 0.1 s measured window.
AllocCounts Measure(uint32_t nodes) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.clients_per_node = 8;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.seed = 7;
  YcsbConfig y;
  y.num_partitions = nodes;
  y.rows_per_partition = 16384;
  y.partitions_per_txn = 2;

  AllocCounts counts;
  const uint64_t a0 = Allocations();
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(y));
  cluster.Start();
  counts.setup = Allocations() - a0;
  cluster.RunFor(0.1);
  cluster.BeginMeasurement();
  const uint64_t a1 = Allocations();
  cluster.RunFor(0.1);
  counts.window = Allocations() - a1;
  counts.commits = cluster.CollectStats(0.1).total.txns_committed;
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  std::printf("n=%u: setup %llu allocations, window %llu allocations for "
              "%llu commits (%.2f per commit)\n",
              nodes, static_cast<unsigned long long>(counts.setup),
              static_cast<unsigned long long>(counts.window),
              static_cast<unsigned long long>(counts.commits),
              static_cast<double>(counts.window) /
                  static_cast<double>(counts.commits));
  return counts;
}

TEST(AllocationTripwire, CounterSeesHeapAllocations) {
  const uint64_t before = Allocations();
  auto p = std::make_unique<int>(1);
  EXPECT_EQ(Allocations(), before + 1);
}

TEST(AllocationTripwire, TwoIdListCopiesDoNotAllocate) {
  // A participant list of two ids is copied by value (no heap buffer, so
  // no reference count to bump); a third id moves it to a shared buffer,
  // which copies share without allocating either.
  CowVector<NodeId> pair;
  pair.push_back(3);
  pair.push_back(5);
  CowVector<NodeId> triple = pair;
  triple.push_back(9);
  const uint64_t before = Allocations();
  for (int i = 0; i < 1000; ++i) {
    CowVector<NodeId> copy = pair;
    CowVector<NodeId> assigned;
    assigned = copy;
    CowVector<NodeId> shared = triple;
    if (assigned[1] != 5 || shared.size() != 3) std::abort();
  }
  EXPECT_EQ(Allocations(), before);
  EXPECT_TRUE(pair.IsInline());
  EXPECT_FALSE(triple.IsInline());
}

// Ceilings sit ~20% above the counts measured with libstdc++ 12, each test
// in a process of its own (n=4: 472 setup allocations, 5.83 per commit;
// n=16: 1,714 and 5.91). Loading a partition allocates only its tables'
// catalog entries, a YCSB transaction's partition list is inline, and so
// is the two-id participant list its messages and WAL records carry. A
// heap buffer per loaded row would put setup in the tens of thousands; one
// per lock grant, undo record or applied decision, near 30 per commit.
TEST(AllocationTripwire, EcFourNodes) {
  const AllocCounts c = Measure(4);
  ASSERT_GT(c.commits, 1000u);
  EXPECT_LT(c.setup, 570u);
  EXPECT_LT(static_cast<double>(c.window) / c.commits, 7.0);
}

TEST(AllocationTripwire, EcSixteenNodes) {
  const AllocCounts c = Measure(16);
  ASSERT_GT(c.commits, 4000u);
  EXPECT_LT(c.setup, 2060u);
  EXPECT_LT(static_cast<double>(c.window) / c.commits, 7.1);
}

}  // namespace
}  // namespace ecdb
