// Command-line detector: run ENSEMFDET on a transaction edge list through
// the detection service layer.
//
//   $ ./build/detect_from_tsv graph.tsv [N] [S] [T]
//   $ ./build/detect_from_tsv            # self-demo on synthetic data
//
// Input format (graph/graph_io.h): one `user<TAB>merchant` pair per line,
// '#' comments allowed, optional `# bipartite <users> <merchants>` header.
// Output: one detected suspicious user id per line on stdout (pipe it into
// your case-review tooling); diagnostics go to stderr.
//
// This is the shape of the deployment the paper describes (§VI: "deployed
// in the risk control department of JD.com"): nightly graph dump in, PIN
// review queue out, with T controlling the queue size. The detection runs
// as a DetectionService job — the same path a long-lived server would use,
// where repeat queries over the unchanged nightly graph hit the
// ResultCache. For the full-featured tool (subcommands, baselines,
// evaluation, cache stats), see tools/ensemfdet_cli.cc.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/ensemfdet.h"

using namespace ensemfdet;

namespace {

// Writes a demo graph so the example is runnable with no arguments.
std::string WriteDemoGraph() {
  Dataset data = GenerateJdPreset(JdPreset::kDataset1, 0.005, 11)
                     .ValueOrDie();
  const std::string path = "/tmp/ensemfdet_demo_graph.tsv";
  ENSEMFDET_CHECK_OK(SaveEdgeListTsv(data.graph, path));
  std::fprintf(stderr,
               "[demo] no input given; wrote synthetic campaign graph to %s "
               "(%lld PINs, %lld edges)\n",
               path.c_str(), static_cast<long long>(data.graph.num_users()),
               static_cast<long long>(data.graph.num_edges()));
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : WriteDemoGraph();
  JobRequest request;
  request.graph_name = "nightly";
  request.ensemble.num_samples = argc > 2 ? std::atoi(argv[2]) : 40;
  request.ensemble.ratio = argc > 3 ? std::atof(argv[3]) : 0.1;
  const int32_t threshold =
      argc > 4 ? std::atoi(argv[4])
               : std::max(1, request.ensemble.num_samples / 10);

  auto graph_result = LoadEdgeListTsv(path);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }

  GraphRegistry registry;
  DetectionService service(&registry, &DefaultThreadPool());
  auto snapshot =
      registry.Publish("nightly", std::move(graph_result).value());
  if (!snapshot.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[load] %s: %lld users x %lld merchants, %lld edges\n",
               path.c_str(),
               static_cast<long long>(snapshot->csr->num_users()),
               static_cast<long long>(snapshot->csr->num_merchants()),
               static_cast<long long>(snapshot->csr->num_edges()));

  const int num_samples = request.ensemble.num_samples;
  const double ratio = request.ensemble.ratio;
  auto job = service.Detect(std::move(request));
  if (!job.ok()) {
    std::fprintf(stderr, "error: %s\n", job.status().ToString().c_str());
    return 1;
  }
  const JobResult& result = **job;
  auto suspicious = result.report->AcceptedUsers(threshold);
  std::fprintf(stderr,
               "[detect] N=%d S=%.3f T=%d -> %zu suspicious users in %s\n",
               num_samples, ratio, threshold, suspicious.size(),
               FormatDuration(result.seconds).c_str());

  for (UserId u : suspicious) std::printf("%u\n", u);
  return 0;
}
