#include "graph/graph_io.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "graph/graph_builder.h"

namespace ensemfdet {

namespace {

// Parses one whitespace/tab separated field starting at *pos; advances *pos
// past the field. Returns false if no field is present.
bool NextField(std::string_view line, size_t* pos, std::string_view* field) {
  size_t i = *pos;
  while (i < line.size() && (line[i] == '\t' || line[i] == ' ')) ++i;
  if (i >= line.size()) return false;
  size_t start = i;
  while (i < line.size() && line[i] != '\t' && line[i] != ' ') ++i;
  *field = line.substr(start, i - start);
  *pos = i;
  return true;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  // std::from_chars for double is not universally available; use strtod on
  // a bounded copy.
  char buf[64];
  if (s.size() >= sizeof(buf)) return false;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + s.size();
}

// "path:line: message" — the prefix every per-line parse error carries.
Status LineError(const std::string& path, int64_t line_no,
                 const std::string& message) {
  return Status::IOError(path + ":" + std::to_string(line_no) + ": " +
                         message);
}

// Node ids are 32-bit, so a count may reach UINT32_MAX and an id stays
// below it.
constexpr uint64_t kMaxNodeCount = UINT32_MAX;

}  // namespace

Status SaveEdgeListTsv(const BipartiteGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << "# bipartite " << graph.num_users() << ' ' << graph.num_merchants()
      << '\n';
  char line[96];
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    if (graph.has_weights()) {
      std::snprintf(line, sizeof(line), "%u\t%u\t%.17g\n", edge.user,
                    edge.merchant, graph.edge_weight(e));
    } else {
      std::snprintf(line, sizeof(line), "%u\t%u\n", edge.user, edge.merchant);
    }
    out << line;
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<BipartiteGraph> LoadEdgeListTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);

  struct ParsedEdge {
    uint64_t user;
    uint64_t merchant;
    double weight;
  };
  std::vector<ParsedEdge> parsed;
  uint64_t declared_users = 0, declared_merchants = 0;
  bool has_header = false;
  uint64_t max_user = 0, max_merchant = 0;

  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string tag;
      if (hs >> tag && tag == "bipartite" &&
          (hs >> declared_users >> declared_merchants)) {
        if (declared_users > kMaxNodeCount ||
            declared_merchants > kMaxNodeCount) {
          return LineError(path, line_no,
                           "declared node count exceeds " +
                               std::to_string(kMaxNodeCount));
        }
        has_header = true;
      }
      continue;
    }
    size_t pos = 0;
    std::string_view f1, f2, f3;
    uint64_t user, merchant;
    double weight = 1.0;
    if (!NextField(line, &pos, &f1) || !NextField(line, &pos, &f2) ||
        !ParseU64(f1, &user) || !ParseU64(f2, &merchant)) {
      return LineError(path, line_no,
                       "expected `user<TAB>merchant[<TAB>weight]`");
    }
    if (user >= kMaxNodeCount) {
      return LineError(path, line_no,
                       "user id " + std::string(f1) + " out of range [0, " +
                           std::to_string(kMaxNodeCount) + ")");
    }
    if (merchant >= kMaxNodeCount) {
      return LineError(path, line_no,
                       "merchant id " + std::string(f2) + " out of range [0, " +
                           std::to_string(kMaxNodeCount) + ")");
    }
    if (NextField(line, &pos, &f3) && !ParseDouble(f3, &weight)) {
      return LineError(path, line_no, "bad weight field");
    }
    max_user = std::max(max_user, user);
    max_merchant = std::max(max_merchant, merchant);
    parsed.push_back({user, merchant, weight});
  }

  uint64_t num_users =
      has_header ? declared_users : (parsed.empty() ? 0 : max_user + 1);
  uint64_t num_merchants =
      has_header ? declared_merchants : (parsed.empty() ? 0 : max_merchant + 1);
  if (has_header && !parsed.empty() &&
      (max_user >= num_users || max_merchant >= num_merchants)) {
    return Status::IOError(path + ": edge ids exceed declared node counts");
  }

  GraphBuilder builder(static_cast<int64_t>(num_users),
                       static_cast<int64_t>(num_merchants));
  builder.Reserve(static_cast<int64_t>(parsed.size()));
  for (const ParsedEdge& pe : parsed) {
    builder.AddEdge(static_cast<UserId>(pe.user),
                    static_cast<MerchantId>(pe.merchant), pe.weight);
  }
  return builder.Build(DuplicatePolicy::kSumWeights);
}

}  // namespace ensemfdet
