// GraphRegistry: a thread-safe catalog of named, immutable CsrGraph
// snapshots — the service layer's source of truth for "which graph does
// this request mean".
//
// Publishing a graph under an existing name atomically replaces the entry
// (version bumps, fingerprint recomputes); readers holding the previous
// snapshot keep a valid shared_ptr, so in-flight detection jobs are
// isolated from concurrent re-publishes (snapshot isolation). Fingerprints
// are stable content hashes (common/hash.h) over node counts, edge
// endpoints, and weights, and key the service's ResultCache.
#ifndef ENSEMFDET_SERVICE_GRAPH_REGISTRY_H_
#define ENSEMFDET_SERVICE_GRAPH_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"
// FingerprintGraph historically lived here; it moved to the graph layer so
// the ingest subsystem can stamp GraphVersions without a service
// dependency. The include keeps every existing `FingerprintGraph` call
// site through this header compiling unchanged.
#include "graph/fingerprint.h"
#include "ingest/graph_version.h"

namespace ensemfdet {

/// One published graph: shared, immutable, fingerprinted. The CSR is the
/// only form the registry holds, so every job over the snapshot shares
/// the same flat arrays (for a loaded .efg, the file mapping itself).
struct GraphSnapshot {
  std::string name;
  /// Monotonically increasing per name, starting at 1.
  uint64_t version = 0;
  /// FingerprintGraph(*csr).
  uint64_t fingerprint = 0;
  /// Built once at publish time; immutable and safe to share across
  /// ThreadPool workers.
  std::shared_ptr<const CsrGraph> csr;
};

class GraphRegistry {
 public:
  GraphRegistry() = default;
  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// Publishes the CSR form of `graph` under `name`, replacing any
  /// existing entry (the old snapshot stays valid for holders). Returns
  /// the new snapshot. Fails with InvalidArgument on an empty name.
  Result<GraphSnapshot> Publish(const std::string& name,
                                const BipartiteGraph& graph);

  /// Publishes the live edge set of an incremental-ingest GraphVersion
  /// under `name` as version.MaterializeCsr() (the frozen base itself when
  /// the delta-log is empty). The snapshot fingerprint is
  /// version.ContentFingerprint() — equal to FingerprintGraph of the CSR
  /// by the graph/fingerprint.h contract, so ResultCache keys stay
  /// representation-independent: a batch job over a streamed-then-
  /// registered graph and one over the same content published from a
  /// BipartiteGraph share cache entries.
  Result<GraphSnapshot> PublishVersion(const std::string& name,
                                       const GraphVersion& version);

  /// Writes the named snapshot's CSR form as a kCsrGraph .efg binary
  /// snapshot (storage/snapshot_writer.h) — the registry's warm-start /
  /// snapshot-shipping format. NotFound when `name` is not published.
  Status SaveSnapshot(const std::string& name,
                      const std::string& path) const;

  /// Publishes the graph stored in an .efg snapshot under `name`, serving
  /// the CSR zero-copy off a file mapping: the mapping is the only copy
  /// of the graph. The file's content fingerprint is re-verified against
  /// the mapped payload before anything is published — and it becomes
  /// the snapshot's fingerprint, so ResultCache keys stay
  /// representation-independent: a job over a snapshot-loaded graph
  /// cache-hits against the same content published from TSV.
  Result<GraphSnapshot> LoadSnapshot(const std::string& name,
                                     const std::string& path);

  /// Current snapshot for `name`; NotFound if absent.
  Result<GraphSnapshot> Get(const std::string& name) const;

  /// Removes `name`; NotFound if absent. Holders of snapshots are
  /// unaffected.
  Status Remove(const std::string& name);

  /// Ascending list of published names.
  std::vector<std::string> Names() const;

  int64_t size() const;

 private:
  struct Entry {
    uint64_t version = 0;
    uint64_t fingerprint = 0;
    std::shared_ptr<const CsrGraph> csr;
  };

  /// Installs (fingerprint, csr) as the next version of `name`.
  GraphSnapshot Install(const std::string& name, uint64_t fingerprint,
                        std::shared_ptr<const CsrGraph> csr);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_SERVICE_GRAPH_REGISTRY_H_
