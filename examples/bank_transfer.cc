// Bank-transfer example: a custom workload on the *threaded* runtime
// (real OS threads, wall-clock time), demonstrating
//   * how to implement your own Workload,
//   * distributed transactions that span partitions (transfers between
//     accounts homed on different nodes),
//   * the atomicity audit: every committed transfer updates exactly two
//     account rows, so the total number of row updates must equal
//     2 x committed transfers — aborted attempts must leave no trace.
//
// Run: ./build/examples/bank_transfer

#include <cstdio>
#include <memory>

#include "cluster/thread_node.h"
#include "common/logging.h"
#include "workload/workload.h"

using namespace ecdb;

namespace {

constexpr TableId kAccounts = 0;
constexpr uint64_t kAccountsPerBranch = 1024;

/// Each node hosts one bank branch with `kAccountsPerBranch` accounts.
/// A transfer touches two accounts; 40% of transfers cross branches.
class BankWorkload : public Workload {
 public:
  explicit BankWorkload(uint32_t branches) : branches_(branches) {}

  void LoadPartition(PartitionStore* store,
                     const KeyPartitioner& partitioner) const override {
    (void)partitioner;
    // Accounts 0..n-1 of this branch: keys branch, branch + B, ...
    Status s = store->CreateTable(kAccounts, "accounts", /*num_columns=*/2,
                                  AccountKey(store->id(), 0), branches_,
                                  kAccountsPerBranch);
    ECDB_CHECK(s.ok());
  }

  TxnRequest NextTxn(PartitionId home, Rng& rng) override {
    TxnRequest request;
    const Key from = AccountKey(home, rng.NextBounded(kAccountsPerBranch));
    PartitionId to_branch = home;
    if (branches_ > 1 && rng.NextBernoulli(0.4)) {
      do {
        to_branch = static_cast<PartitionId>(rng.NextBounded(branches_));
      } while (to_branch == home);
    }
    Key to = AccountKey(to_branch, rng.NextBounded(kAccountsPerBranch));
    while (to == from) {
      to = AccountKey(to_branch, rng.NextBounded(kAccountsPerBranch));
    }
    request.ops.push_back({kAccounts, from, AccessMode::kWrite});
    request.ops.push_back({kAccounts, to, AccessMode::kWrite});
    return request;
  }

  Key AccountKey(PartitionId branch, uint64_t account) const {
    return account * branches_ + branch;
  }

 private:
  uint32_t branches_;
};

}  // namespace

int main() {
  constexpr uint32_t kBranches = 4;

  ThreadClusterConfig config;
  config.num_nodes = kBranches;
  config.clients_per_node = 4;
  config.protocol = CommitProtocol::kEasyCommit;

  auto workload = std::make_unique<BankWorkload>(kBranches);
  BankWorkload* bank = workload.get();
  ThreadCluster cluster(config, std::move(workload));

  std::printf("bank_transfer: %u branches on real threads, EasyCommit\n",
              kBranches);
  cluster.Start();
  cluster.RunFor(2.0);   // wall-clock seconds
  cluster.Quiesce(0.5);  // drain in-flight transfers so the audit is exact
  cluster.Stop();

  const ClusterStats stats = cluster.CollectStats(2.0);
  const uint64_t committed = stats.total.txns_committed;
  const uint64_t aborted = stats.total.txns_aborted;

  // Atomicity audit: each committed transfer bumped exactly two account
  // versions; aborted attempts must have been rolled back completely.
  uint64_t total_updates = 0;
  for (NodeId id = 0; id < kBranches; ++id) {
    Table* accounts = cluster.node(id).store().GetTable(kAccounts);
    for (uint64_t a = 0; a < kAccountsPerBranch; ++a) {
      total_updates +=
          accounts->Version(accounts->Get(bank->AccountKey(id, a)).value());
    }
  }

  std::printf("committed transfers: %llu (plus %llu aborted+retried "
              "attempts)\n",
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(aborted));
  std::printf("account updates:     %llu (expected exactly 2 x committed "
              "= %llu)\n",
              static_cast<unsigned long long>(total_updates),
              static_cast<unsigned long long>(2 * committed));
  if (total_updates != 2 * committed) {
    std::printf("ATOMICITY VIOLATION — this is a bug\n");
    return 1;
  }
  std::printf("atomicity audit passed: no partial transfers.\n");
  return 0;
}
