#include "service/graph_registry.h"

#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace ensemfdet {

Result<GraphSnapshot> GraphRegistry::Publish(const std::string& name,
                                             BipartiteGraph graph) {
  return Publish(name,
                 std::make_shared<const BipartiteGraph>(std::move(graph)));
}

Result<GraphSnapshot> GraphRegistry::Publish(
    const std::string& name, std::shared_ptr<const BipartiteGraph> graph) {
  if (name.empty()) {
    return Status::InvalidArgument("registry: graph name must be non-empty");
  }
  if (graph == nullptr) {
    return Status::InvalidArgument("registry: graph must be non-null");
  }
  // Fingerprint and CSR conversion outside the lock: both scan every edge.
  const uint64_t fingerprint = FingerprintGraph(*graph);
  auto csr = std::make_shared<const CsrGraph>(CsrGraph::FromBipartite(*graph));

  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  entry.version += 1;
  entry.fingerprint = fingerprint;
  entry.graph = std::move(graph);
  entry.csr = std::move(csr);
  return GraphSnapshot{name, entry.version, entry.fingerprint, entry.graph,
                       entry.csr};
}

Result<GraphSnapshot> GraphRegistry::PublishVersion(
    const std::string& name, const GraphVersion& version) {
  if (name.empty()) {
    return Status::InvalidArgument("registry: graph name must be non-empty");
  }
  // Materialization and fingerprinting outside the lock, once per
  // publish: the adjacency form is rebuilt from the live edge set and the
  // CSR derived from it, except that a version with an empty delta-log
  // shares its frozen base CSR as is.
  auto graph = std::make_shared<const BipartiteGraph>(version.Materialize());
  const bool has_delta =
      !version.delta_adds().empty() || !version.delta_dead().empty();
  std::shared_ptr<const CsrGraph> csr =
      has_delta ? std::make_shared<const CsrGraph>(
                      CsrGraph::FromBipartite(*graph))
                : version.MaterializeCsr();
  const uint64_t fingerprint = version.ContentFingerprint();
  // The representation-independence contract this API exists for.
  ENSEMFDET_DCHECK(FingerprintGraph(*graph) == fingerprint)
      << "GraphVersion fingerprint diverged from the materialized graph";

  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  entry.version += 1;
  entry.fingerprint = fingerprint;
  entry.graph = std::move(graph);
  entry.csr = std::move(csr);
  return GraphSnapshot{name, entry.version, entry.fingerprint, entry.graph,
                       entry.csr};
}

Status GraphRegistry::SaveSnapshot(const std::string& name,
                                   const std::string& path) const {
  ENSEMFDET_ASSIGN_OR_RETURN(GraphSnapshot snapshot, Get(name));
  // WriteCsrGraphSnapshot stamps FingerprintGraph(csr) into the header,
  // which equals the snapshot's fingerprint by the registry invariant.
  return storage::WriteCsrGraphSnapshot(*snapshot.csr, path);
}

Result<GraphSnapshot> GraphRegistry::LoadSnapshot(const std::string& name,
                                                  const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("registry: graph name must be non-empty");
  }
  ENSEMFDET_ASSIGN_OR_RETURN(storage::MappedCsrGraph mapped,
                             storage::MappedCsrGraph::Open(path));
  // Never publish content that does not hash to the writer's claim.
  ENSEMFDET_RETURN_NOT_OK(mapped.VerifyFingerprint());
  // The CSR stays a zero-copy view (its backing handle keeps the mapping
  // alive); the adjacency form is materialized from it once for the
  // baseline detectors and evaluation paths.
  std::shared_ptr<const CsrGraph> csr = mapped.shared();
  auto graph =
      std::make_shared<const BipartiteGraph>(csr->ToBipartite());
  const uint64_t fingerprint = mapped.fingerprint();

  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  entry.version += 1;
  entry.fingerprint = fingerprint;
  entry.graph = std::move(graph);
  entry.csr = std::move(csr);
  return GraphSnapshot{name, entry.version, entry.fingerprint, entry.graph,
                       entry.csr};
}

Result<GraphSnapshot> GraphRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("registry: no graph named '" + name + "'");
  }
  const Entry& entry = it->second;
  return GraphSnapshot{name, entry.version, entry.fingerprint, entry.graph,
                       entry.csr};
}

Status GraphRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.erase(name) == 0) {
    return Status::NotFound("registry: no graph named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> GraphRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

int64_t GraphRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

}  // namespace ensemfdet
