#include "ingest/graph_version.h"

#include <utility>

#include "graph/fingerprint.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace ensemfdet {

GraphVersion::GraphVersion() {
  // One shared empty rep for all default-constructed versions.
  static const std::shared_ptr<const Rep> kEmpty = [] {
    auto rep = std::make_shared<Rep>();
    rep->base = std::make_shared<const CsrGraph>();
    return rep;
  }();
  rep_ = kEmpty;
}

uint64_t GraphVersion::CollectLiveEdges(std::vector<Edge>* edges) const {
  const Rep& rep = *rep_;
  edges->clear();
  edges->reserve(static_cast<size_t>(num_edges()));
  ForEachEdge([edges](UserId u, MerchantId v) { edges->push_back({u, v}); });
  {
    std::lock_guard<std::mutex> lock(rep.memo_mu);
    if (rep.memo_fingerprint_set) return rep.memo_fingerprint;
  }
  // Hash outside the lock (a pure read of the collected edges) with the
  // one shared recipe; a racing caller computes the same value.
  const uint64_t fp =
      FingerprintEdges(rep.num_users, rep.num_merchants, *edges);
  std::lock_guard<std::mutex> lock(rep.memo_mu);
  rep.memo_fingerprint = fp;
  rep.memo_fingerprint_set = true;
  return fp;
}

uint64_t GraphVersion::ContentFingerprint() const {
  const Rep& rep = *rep_;
  {
    std::lock_guard<std::mutex> lock(rep.memo_mu);
    if (rep.memo_fingerprint_set) return rep.memo_fingerprint;
  }
  std::vector<Edge> edges;
  return CollectLiveEdges(&edges);
}

std::shared_ptr<const CsrGraph> GraphVersion::MaterializeCsr() const {
  const Rep& rep = *rep_;
  if (rep.adds.empty() && rep.dead.empty()) return rep.base;
  // The merge emits distinct canonical edges whose ids the store validated
  // at ingest: exactly FromCanonicalEdges' precondition.
  std::vector<Edge> edges;
  CollectLiveEdges(&edges);
  return std::make_shared<const CsrGraph>(
      CsrGraph::FromCanonicalEdges(rep.num_users, rep.num_merchants, edges));
}

Status GraphVersion::SaveSnapshot(const std::string& path) const {
  const Rep& rep = *rep_;
  storage::SnapshotWriter writer(storage::PayloadKind::kGraphVersion,
                                 rep.num_users, rep.num_merchants,
                                 num_edges(), ContentFingerprint());
  storage::AddCsrGraphSections(&writer, *rep.base);
  storage::VersionScalarsRecord scalars;
  scalars.epoch = rep.epoch;
  scalars.flags = rep.compacted ? storage::kVersionFlagCompacted : 0;
  writer.AddSection(storage::SectionId::kVersionScalars, &scalars,
                    sizeof(scalars));
  writer.AddSection(storage::SectionId::kDeltaAdds, rep.adds.data(),
                    rep.adds.size() * sizeof(Edge));
  writer.AddSection(storage::SectionId::kDeltaDead, rep.dead.data(),
                    rep.dead.size() * sizeof(EdgeId));
  writer.AddSection(storage::SectionId::kTouchedUsers,
                    rep.touched_users.data(),
                    rep.touched_users.size() * sizeof(UserId));
  writer.AddSection(storage::SectionId::kTouchedMerchants,
                    rep.touched_merchants.data(),
                    rep.touched_merchants.size() * sizeof(MerchantId));
  return writer.Write(path);
}

GraphVersion GraphVersion::FromSnapshotParts(
    uint64_t epoch, int64_t num_users, int64_t num_merchants,
    bool compacted, std::shared_ptr<const CsrGraph> base,
    std::vector<Edge> adds, std::vector<EdgeId> dead,
    std::vector<UserId> touched_users,
    std::vector<MerchantId> touched_merchants) {
  auto rep = std::make_shared<Rep>();
  rep->epoch = epoch;
  rep->num_users = num_users;
  rep->num_merchants = num_merchants;
  rep->compacted = compacted;
  rep->base = std::move(base);
  rep->adds = std::move(adds);
  rep->dead = std::move(dead);
  rep->touched_users = std::move(touched_users);
  rep->touched_merchants = std::move(touched_merchants);
  return GraphVersion(std::move(rep));
}

Result<GraphVersion> LoadGraphVersionSnapshot(const std::string& path) {
  ENSEMFDET_ASSIGN_OR_RETURN(storage::GraphVersionParts parts,
                             storage::ReadGraphVersionSnapshot(path));
  GraphVersion version = GraphVersion::FromSnapshotParts(
      parts.epoch, parts.num_users, parts.num_merchants, parts.compacted,
      std::make_shared<const CsrGraph>(std::move(parts.base)),
      std::move(parts.adds), std::move(parts.dead),
      std::move(parts.touched_users), std::move(parts.touched_merchants));
  // The reader proved the structural invariants; the fingerprint is the
  // end-to-end integrity gate over the live edge set.
  if (version.ContentFingerprint() != parts.content_fingerprint) {
    return Status::IOError(
        "corrupt snapshot: live-set fingerprint mismatch in " + path);
  }
  return version;
}

}  // namespace ensemfdet
