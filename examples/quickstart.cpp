// Quickstart: build a tiny "who buy-from where" graph by hand, publish it
// to the service layer, run ENSEMFDET through a DetectionService job, and
// print the suspicious users at a few voting thresholds.
//
//   $ ./build/quickstart
//
// The graph has one obvious fraud ring (users 0-7 bulk-buying at merchants
// 0-2) inside light legitimate traffic; the ring should collect near-N
// votes while ordinary shoppers collect almost none. Going through
// GraphRegistry + DetectionService (instead of calling EnsemFDet::Run
// directly) exercises the serving path: the second Detect() below is
// answered from the ResultCache without recomputation.
#include <cstdio>

#include "core/ensemfdet.h"

using namespace ensemfdet;

int main() {
  // 1. Build the bipartite graph: 40 users × 20 merchants.
  GraphBuilder builder(40, 20);

  // The fraud ring: 8 controlled accounts bulk-purchasing at 3 colluding
  // merchants during a promotion (synchronized + rare behaviour).
  for (UserId u = 0; u < 8; ++u) {
    for (MerchantId v = 0; v < 3; ++v) builder.AddEdge(u, v);
  }

  // Legitimate traffic: everyone occasionally buys somewhere.
  Rng traffic(2024);
  for (int i = 0; i < 70; ++i) {
    builder.AddEdge(static_cast<UserId>(traffic.NextBounded(40)),
                    static_cast<MerchantId>(3 + traffic.NextBounded(17)));
  }

  auto graph_result = builder.Build();
  if (!graph_result.ok()) {
    std::fprintf(stderr, "graph build failed: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }

  // 2. Publish the graph and stand up the service: a registry of named
  //    snapshots plus an async job scheduler over the shared pool.
  GraphRegistry registry;
  DetectionService service(&registry, &DefaultThreadPool());
  auto snapshot =
      registry.Publish("quickstart", std::move(graph_result).value());
  if (!snapshot.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %lld users, %lld merchants, %lld edges "
              "(fingerprint %016llx)\n\n",
              static_cast<long long>(snapshot->csr->num_users()),
              static_cast<long long>(snapshot->csr->num_merchants()),
              static_cast<long long>(snapshot->csr->num_edges()),
              static_cast<unsigned long long>(snapshot->fingerprint));

  // 3. Configure ENSEMFDET: N sampled graphs at ratio S, FDET with
  //    automatic truncation, majority voting at the end.
  JobRequest request;
  request.graph_name = "quickstart";
  request.ensemble.method = SampleMethod::kRandomEdge;
  request.ensemble.num_samples = 20;  // N
  request.ensemble.ratio = 0.3;       // S
  request.ensemble.seed = 7;
  request.ensemble.fdet.max_blocks = 10;

  auto job = service.Detect(request);
  if (!job.ok()) {
    std::fprintf(stderr, "detection failed: %s\n",
                 job.status().ToString().c_str());
    return 1;
  }
  const EnsemFDetReport& report = *(*job)->report;
  std::printf("ran %d ensemble members in %s (repetition rate R = %.1f)\n",
              report.num_samples, FormatDuration((*job)->seconds).c_str(),
              request.ensemble.RepetitionRate());

  // A repeated request over the unchanged snapshot is memoized: same
  // report object, no recomputation.
  auto again = service.Detect(request);
  if (!again.ok()) {
    std::fprintf(stderr, "repeat detection failed: %s\n",
                 again.status().ToString().c_str());
    return 1;
  }
  std::printf("repeat request: %s\n\n",
              (*again)->cache_hit ? "served from ResultCache"
                                  : "recomputed (unexpected)");

  // 4. Apply MVA at a few thresholds T and show how the detected set
  //    tightens as T rises.
  for (int32_t threshold : {4, 10, 16}) {
    auto suspicious = report.AcceptedUsers(threshold);
    std::printf("T = %2d -> %2zu suspicious users:", threshold,
                suspicious.size());
    for (UserId u : suspicious) std::printf(" %u", u);
    std::printf("\n");
  }

  std::printf("\nvotes per fraud-ring user (ids 0-7):");
  for (UserId u = 0; u < 8; ++u) {
    std::printf(" %d", report.votes.user_votes(u));
  }
  std::printf("\n");
  return 0;
}
