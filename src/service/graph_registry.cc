#include "service/graph_registry.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace ensemfdet {

namespace {

Status CheckName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("registry: graph name must be non-empty");
  }
  return Status::OK();
}

}  // namespace

Result<GraphSnapshot> GraphRegistry::Publish(const std::string& name,
                                             const BipartiteGraph& graph) {
  ENSEMFDET_RETURN_NOT_OK(CheckName(name));
  // Fingerprint and CSR conversion outside the lock: both scan every edge.
  return Install(name, FingerprintGraph(graph),
                 std::make_shared<const CsrGraph>(
                     CsrGraph::FromBipartite(graph)));
}

Result<GraphSnapshot> GraphRegistry::PublishVersion(
    const std::string& name, const GraphVersion& version) {
  ENSEMFDET_RETURN_NOT_OK(CheckName(name));
  // Materialization and fingerprinting outside the lock, once per publish.
  std::shared_ptr<const CsrGraph> csr = version.MaterializeCsr();
  const uint64_t fingerprint = version.ContentFingerprint();
  // The representation-independence contract this API exists for.
  ENSEMFDET_DCHECK(FingerprintGraph(*csr) == fingerprint)
      << "GraphVersion fingerprint diverged from the materialized CSR";
  return Install(name, fingerprint, std::move(csr));
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
  ENSEMFDET_RETURN_NOT_OK(CheckName(name));
  ENSEMFDET_ASSIGN_OR_RETURN(storage::MappedCsrGraph mapped,
                             storage::MappedCsrGraph::Open(path));
  // Never publish content that does not hash to the writer's claim.
  ENSEMFDET_RETURN_NOT_OK(mapped.VerifyFingerprint());
  // The CSR stays a zero-copy view; its backing handle keeps the mapping
  // alive for as long as any snapshot holds it.
  return Install(name, mapped.fingerprint(), mapped.shared());
}

GraphSnapshot GraphRegistry::Install(const std::string& name,
                                     uint64_t fingerprint,
                                     std::shared_ptr<const CsrGraph> csr) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  entry.version += 1;
  entry.fingerprint = fingerprint;
  entry.csr = std::move(csr);
  return GraphSnapshot{name, entry.version, entry.fingerprint, entry.csr};
}

Result<GraphSnapshot> GraphRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("registry: no graph named '" + name + "'");
  }
  const Entry& entry = it->second;
  return GraphSnapshot{name, entry.version, entry.fingerprint, entry.csr};
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
