// Umbrella header: the EnsemFDet library's public API in one include.
//
//   #include "core/ensemfdet.h"
//
//   using namespace ensemfdet;
//   Dataset data = GenerateJdPreset(JdPreset::kDataset1, 0.02, 7).ValueOrDie();
//   EnsemFDetConfig cfg;            // N = 80, S = 0.1, RES, auto-truncation
//   EnsemFDet detector(cfg);
//   auto report = detector.Run(data.graph, &DefaultThreadPool()).ValueOrDie();
//   auto suspicious = report.AcceptedUsers(/*threshold=*/8);
//
// Layering (see DESIGN.md): common → graph/linalg → sampling/detect/eval →
// ensemble/baselines/datagen → service. Including this header pulls in all
// of them; fine-grained includes remain available for users who want less.
#ifndef ENSEMFDET_CORE_ENSEMFDET_H_
#define ENSEMFDET_CORE_ENSEMFDET_H_

// Common runtime: Status/Result, RNG, thread pool, timing, table output.
#include "common/env.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_writer.h"
#include "common/thread_pool.h"
#include "common/timer.h"

// Bipartite graph substrate.
#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/subgraph.h"

// Structural sampling (RES / ONS / TNS) and its theory.
#include "sampling/sampler.h"
#include "sampling/sampling_theory.h"

// Detection core: density score φ, in-place CSR greedy peeling, FDET.
#include "detect/csr_peeler.h"
#include "detect/density.h"
#include "detect/fdet.h"

// The ENSEMFDET ensemble.
#include "ensemble/ensemfdet.h"
#include "ensemble/vote_table.h"

// Baselines.
#include "baselines/fbox.h"
#include "baselines/fraudar.h"
#include "baselines/hits.h"
#include "baselines/spoken.h"

// Evaluation.
#include "eval/curves.h"
#include "eval/labels.h"
#include "eval/metrics.h"
#include "eval/report_io.h"

// Synthetic data.
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "datagen/transaction_stream.h"

// Incremental ingest: delta-versioned dynamic graphs + dirty-scoped
// streaming re-detection.
#include "ingest/dynamic_graph_store.h"
#include "ingest/graph_version.h"
#include "ingest/ingest_batch.h"
#include "ingest/streaming_detector.h"

// Streaming detection.
#include "stream/windowed_detector.h"

// Service layer: graph registry, async detection jobs, result cache.
#include "service/detection_service.h"
#include "service/graph_registry.h"
#include "service/result_cache.h"

#endif  // ENSEMFDET_CORE_ENSEMFDET_H_
