// The seed ENSEMFDET loop (paper Algorithm 2), serial: every member
// materializes its sampled child graph, runs FDET on it, maps the blocks
// back to parent ids and votes, in member order.
//
// Test-only: the referee that tests/ensemble_parity_test.cc pins the
// zero-materialization EnsemFDet::Run and EnsemFDet::RunMember against,
// bit for bit. It is built only from public pieces (MakeSampler,
// Rng::Split, Sampler::Sample, RunFdet, VoteTable) and shares no code
// with ensemble/ensemfdet.cc, so a bug in the production aggregation
// cannot hide from it.
#ifndef ENSEMFDET_TESTS_REFEREE_ENSEMBLE_REFERENCE_H_
#define ENSEMFDET_TESTS_REFEREE_ENSEMBLE_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "detect/fdet.h"
#include "ensemble/ensemfdet.h"
#include "graph/bipartite_graph.h"

namespace ensemfdet {

/// A report with N = `num_samples`, no votes and no members, sized for a
/// `num_users` × `num_merchants` graph.
EnsemFDetReport EmptyEnsembleReport(int num_samples, int64_t num_users,
                                    int64_t num_merchants);

/// Adds one member to `report`: every node of `blocks` (parent ids) gets
/// one vote, and its weighted vote grows by the φ of the densest block
/// containing it; `stats` is appended to `report->members`.
void AddMemberVotes(const std::vector<DetectedBlock>& blocks,
                    const EnsemFDetReport::MemberStats& stats,
                    EnsemFDetReport* report);

/// Runs the ensemble the seed way on the calling thread. Member i draws
/// from Rng(config.seed).Split(i). Fails with InvalidArgument on a bad
/// N / S / FDET configuration, like EnsemFDet::Run.
Result<EnsemFDetReport> RunEnsembleReference(const EnsemFDetConfig& config,
                                             const BipartiteGraph& graph);

}  // namespace ensemfdet

#endif  // ENSEMFDET_TESTS_REFEREE_ENSEMBLE_REFERENCE_H_
