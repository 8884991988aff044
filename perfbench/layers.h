// Per-layer attribution for the traced run: span self times from
// obs::trace_snapshot(), registry counter deltas, and the benchmark's own
// timings of calls into each module, folded into the per-layer metrics that
// BENCHMARK.json names.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

struct SpanTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< duration minus the part covered by child spans
  double max_ms = 0.0;
  long count = 0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> by_name;
  /// Time worker threads spent inside top-level spans, broker tasks
  /// (serve.*) excluded: synthesizer pool busy time.
  double worker_busy_ms = 0.0;
};

TraceSummary summarize_trace(const std::vector<syccl::obs::ThreadTrace>& threads);

/// Benchmark-side timings of the traced run, totals in ms.
struct LayerInputs {
  TraceSummary trace;
  /// Registry deltas over the traced loop and over the fixed unit of work.
  CounterSnapshot loop;
  CounterSnapshot unit;
  long requests = 0;  ///< timed requests in the traced loop
  /// Wall time of requests that ran a synthesizer pool, and its width.
  double synth_wall_ms = 0.0;
  int pool_threads = 0;
  double extract_groups_ms = 0.0;  ///< total over `requests`
  double validate_ms = 0.0;        ///< mean per validated schedule
  long resynth_reused = 0;
  long resynth_resolved = 0;
  /// serve_mix: miss wait total over `misses`, and the hit-path replay.
  double miss_wait_ms = 0.0;
  long misses = 0;
  long replayed = 0;
  double replay_handle_ms = 0.0;
  double replay_extract_ms = 0.0;
  double replay_canon_ms = 0.0;
  double replay_get_ms = 0.0;
  double replay_relabel_ms = 0.0;
  double replay_validate_ms = 0.0;
  double replay_resim_ms = 0.0;
  long puts = 0;
  double put_ms = 0.0;
  double overhead_ratio = 0.0;
};

/// The per-layer metrics, in the order BENCHMARK.json lists them. Times are
/// ms per timed request of the traced loop; counts are over the fixed unit
/// of work, so they repeat exactly for a seed.
LayerMetrics assemble_layers(const LayerInputs& in);

/// Writes the aggregated per-layer file: self time per span name, the
/// per-layer metrics and the unit's counters.
void write_layer_file(const std::string& path, const std::string& workload, std::uint64_t seed,
                      const LayerInputs& in, const LayerMetrics& layers);

}  // namespace perfbench
