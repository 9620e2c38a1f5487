#include "graph/fingerprint.h"

#include <vector>

#include "common/hash.h"

namespace ensemfdet {

uint64_t FingerprintEdges(int64_t num_users, int64_t num_merchants,
                          std::span<const Edge> edges,
                          std::span<const double> weights) {
  // Shape first: distinct shapes can never collide regardless of content
  // hashing, and isolated nodes (which edges can't see) still matter for
  // vote-table sizing.
  uint64_t h = HashValue<uint64_t>(0x656e73656d66u);  // domain tag
  h = HashCombine(h, HashValue(num_users));
  h = HashCombine(h, HashValue(num_merchants));
  h = HashCombine(h, HashValue(static_cast<int64_t>(edges.size())));

  // Edge endpoints: Edge is two packed uint32s (no padding), and the edge
  // order is canonical, so hashing the raw array is stable.
  static_assert(sizeof(Edge) == 2 * sizeof(uint32_t));
  h = HashCombine(h, Hash64(edges.data(), edges.size_bytes()));

  if (!weights.empty()) {
    uint64_t wh = 0;
    for (double w : weights) wh = HashCombine(wh, HashValue(w));
    h = HashCombine(h, wh);
  }
  return h;
}

uint64_t FingerprintGraph(const BipartiteGraph& graph) {
  return FingerprintEdges(graph.num_users(), graph.num_merchants(),
                          graph.edges(), graph.weights());
}

uint64_t FingerprintGraph(const CsrGraph& graph) {
  // Reassemble the canonical endpoint-pair array (the user-side CSR is the
  // merchant column in EdgeId order; edge_users is the user column) so the
  // byte stream matches the BipartiteGraph overload exactly.
  std::vector<Edge> edges(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    edges[static_cast<size_t>(e)] = {graph.edge_user(e),
                                     graph.edge_merchant(e)};
  }
  return FingerprintEdges(graph.num_users(), graph.num_merchants(), edges,
                          graph.weights());
}

}  // namespace ensemfdet
