// Vote accumulation and Majority Voting Aggregation (paper Definition 4).
//
// Every sampled graph's FDET output casts one vote for each node it flags;
// MVA accepts a node iff its vote count reaches the threshold T. Sweeping T
// from N down to 1 yields the paper's smooth operating curve — the key
// practicability win over FRAUDAR's all-or-nothing blocks.
#ifndef ENSEMFDET_ENSEMBLE_VOTE_TABLE_H_
#define ENSEMFDET_ENSEMBLE_VOTE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"

namespace ensemfdet {

class VoteTable {
 public:
  VoteTable() = default;
  /// Zero votes for every node of a |U|=num_users, |V|=num_merchants graph.
  VoteTable(int64_t num_users, int64_t num_merchants);

  int64_t num_users() const {
    return static_cast<int64_t>(user_votes_.size());
  }
  int64_t num_merchants() const {
    return static_cast<int64_t>(merchant_votes_.size());
  }

  /// Casts one vote for every listed node (one ensemble member's output).
  void AddVotes(std::span<const UserId> users,
                std::span<const MerchantId> merchants);

  int32_t user_votes(UserId u) const { return user_votes_[u]; }
  int32_t merchant_votes(MerchantId v) const { return merchant_votes_[v]; }
  std::span<const int32_t> all_user_votes() const { return user_votes_; }
  std::span<const int32_t> all_merchant_votes() const {
    return merchant_votes_;
  }

  /// H(u) = accept ⇔ votes(u) ≥ threshold. Ascending id order.
  std::vector<UserId> AcceptedUsers(int32_t threshold) const;
  std::vector<MerchantId> AcceptedMerchants(int32_t threshold) const;

  /// Number of users with votes ≥ threshold (cheap count for sweeps).
  int64_t CountAcceptedUsers(int32_t threshold) const;

  int32_t max_user_votes() const;

 private:
  std::vector<int32_t> user_votes_;
  std::vector<int32_t> merchant_votes_;
};

/// Reduces one member's (node, φ) pairs, listed in block order, to its
/// distinct nodes, ascending, each with the max φ over the blocks that
/// contain it — appended to `*ids` / `*weights`. The stable sort keeps
/// each node's pairs in block order, so every node sees the same
/// first-touch-then-max sequence as an id-indexed scan over the blocks
/// would give it, with scratch proportional to the blocks rather than to
/// the id universe. `*pairs` is left sorted.
template <typename Id>
void ReduceMaxWeights(std::vector<std::pair<Id, double>>* pairs,
                      std::vector<Id>* ids, std::vector<double>* weights) {
  std::stable_sort(pairs->begin(), pairs->end(),
                   [](const std::pair<Id, double>& a,
                      const std::pair<Id, double>& b) {
                     return a.first < b.first;
                   });
  for (const auto& [id, weight] : *pairs) {
    if (!ids->empty() && ids->back() == id) {
      weights->back() = std::max(weights->back(), weight);
    } else {
      ids->push_back(id);
      weights->push_back(weight);
    }
  }
}

}  // namespace ensemfdet

#endif  // ENSEMFDET_ENSEMBLE_VOTE_TABLE_H_
