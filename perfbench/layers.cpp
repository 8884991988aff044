#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

TraceSummary summarize_trace(const std::vector<syccl::obs::ThreadTrace>& threads) {
  TraceSummary out;
  for (const auto& thread : threads) {
    const bool worker = thread.name.rfind("syccl-worker-", 0) == 0;
    // Spans are stored in completion order; rebuild the tree in start order
    // (a parent opens before its children, and a zero-length parent still
    // sorts ahead because its depth is lower).
    std::vector<const syccl::obs::SpanRecord*> spans;
    spans.reserve(thread.spans.size());
    for (const auto& s : thread.spans) spans.push_back(&s);
    std::stable_sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->begin_us != b->begin_us ? a->begin_us < b->begin_us : a->depth < b->depth;
    });
    std::vector<double> child_us(spans.size(), 0.0);
    std::vector<std::size_t> open;  // indices into spans, innermost last
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()]->depth >= spans[i]->depth) open.pop_back();
      const double dur = spans[i]->end_us - spans[i]->begin_us;
      if (!open.empty()) child_us[open.back()] += dur;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur_ms = (spans[i]->end_us - spans[i]->begin_us) / 1e3;
      SpanTotals& t = out.by_name[spans[i]->name];
      t.total_ms += dur_ms;
      t.self_ms += dur_ms - child_us[i] / 1e3;
      t.max_ms = std::max(t.max_ms, dur_ms);
      ++t.count;
      if (worker && spans[i]->depth == 0 && std::strncmp(spans[i]->name, "serve.", 6) != 0) {
        out.worker_busy_ms += dur_ms;
      }
    }
  }
  return out;
}

namespace {

SpanTotals span(const LayerInputs& in, const char* name) {
  auto it = in.trace.by_name.find(name);
  return it == in.trace.by_name.end() ? SpanTotals{} : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

LayerMetrics assemble_layers(const LayerInputs& in) {
  const double per_req = in.requests > 0 ? 1.0 / static_cast<double>(in.requests) : 0.0;
  const double replayed = static_cast<double>(in.replayed);
  const auto& u = in.unit;
  const double sim_ms = span(in, "sim.run").total_ms;
  const double replay_steps = in.replay_extract_ms + in.replay_canon_ms + in.replay_get_ms +
                              in.replay_relabel_ms + in.replay_validate_ms + in.replay_resim_ms;
  const double cache_lookups = static_cast<double>(u.get("solve_cache.hits") +
                                                   u.get("solve_cache.misses"));
  const double per_replay = in.replayed > 0 ? 1.0 / replayed : 0.0;
  // Hit-path times come from the replay on serve_mix; on the synthesis
  // workloads the groups are timed before every request and validation is
  // the output check's own call.
  const double extract_ms =
      in.replayed > 0 ? in.replay_extract_ms * per_replay : in.extract_groups_ms * per_req;
  const double validate_ms =
      in.replayed > 0 ? in.replay_validate_ms * per_replay : in.validate_ms;
  return {
      {"topo.extract_groups_ms", extract_ms},
      {"sketch.search_ms", span(in, "sketch_search").self_ms * per_req},
      {"sketch.combine_ms", span(in, "combine").self_ms * per_req},
      {"sketch.combinations", static_cast<double>(u.get("synth.combinations"))},
      {"solver.solve_ms", span(in, "solve_sub_demand").total_ms * per_req},
      {"solver.max_solve_ms", span(in, "solve_sub_demand").max_ms},
      {"solver.calls", static_cast<double>(u.get("solver.solves"))},
      {"solver.subdemands", static_cast<double>(u.get("synth.subdemands"))},
      {"solver.milp_used", static_cast<double>(u.get("solver.milp_used"))},
      {"solver.milp_improved_ratio", ratio(static_cast<double>(u.get("solver.milp_improved")),
                                           static_cast<double>(u.get("solver.milp_used")))},
      {"solver.nodes_explored", static_cast<double>(u.get("solver.nodes_explored"))},
      {"solver.lp_iterations", static_cast<double>(u.get("solver.lp_iterations"))},
      {"solve_cache.hit_ratio", ratio(static_cast<double>(u.get("solve_cache.hits")),
                                      cache_lookups)},
      {"solve_cache.misses", static_cast<double>(u.get("solve_cache.misses"))},
      {"solve_cache.evictions", static_cast<double>(u.get("solve_cache.evictions"))},
      {"solve_cache.lookup_wait_ms", span(in, "solve_cache.lookup").self_ms * per_req},
      {"core.eval_ms",
       (span(in, "coarse_eval").total_ms + span(in, "fine_eval").total_ms) * per_req},
      {"core.unattributed_ms", span(in, "synthesize_pattern").self_ms * per_req},
      {"core.pool_busy_ratio",
       ratio(in.trace.worker_busy_ms, in.synth_wall_ms * static_cast<double>(in.pool_threads))},
      {"core.resynth_classes_reused", static_cast<double>(in.resynth_reused)},
      {"core.resynth_classes_resolved", static_cast<double>(in.resynth_resolved)},
      {"sim.run_ms", sim_ms * per_req},
      {"sim.runs", static_cast<double>(u.get("sim.runs"))},
      {"sim.events", static_cast<double>(u.get("sim.events"))},
      {"sim.events_per_s", ratio(static_cast<double>(in.loop.get("sim.events")), sim_ms / 1e3)},
      {"runtime.validate_ms", validate_ms},
      {"serve.canon_ms", in.replay_canon_ms * per_replay},
      {"serve.library_get_ms", in.replay_get_ms * per_replay},
      {"serve.relabel_ms", in.replay_relabel_ms * per_replay},
      {"serve.resim_ms", in.replay_resim_ms * per_replay},
      {"serve.library_put_ms", in.puts > 0 ? in.put_ms / static_cast<double>(in.puts) : 0.0},
      {"serve.miss_wait_ms",
       in.misses > 0 ? in.miss_wait_ms / static_cast<double>(in.misses) : 0.0},
      {"serve.hits", static_cast<double>(u.get("serve.hits"))},
      {"serve.misses", static_cast<double>(u.get("serve.misses"))},
      {"serve.joins", static_cast<double>(u.get("serve.joins"))},
      {"serve.verify_failures", static_cast<double>(u.get("serve.verify_failures"))},
      {"serve.hit_path_coverage", ratio(replay_steps, in.replay_handle_ms)},
      {"trace.overhead_ratio", in.overhead_ratio},
  };
}

void write_layer_file(const std::string& path, const std::string& workload, std::uint64_t seed,
                      const LayerInputs& in, const LayerMetrics& layers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"requests\": %ld,\n",
               workload.c_str(), static_cast<unsigned long long>(seed), in.requests);
  std::fprintf(f, "  \"spans_ms\": {");
  const char* sep = "\n";
  for (const auto& [name, t] : in.trace.by_name) {
    std::fprintf(f, "%s    \"%s\": {\"count\": %ld, \"total\": %.6f, \"self\": %.6f, \"max\": %.6f}",
                 sep, name.c_str(), t.count, t.total_ms, t.self_ms, t.max_ms);
    sep = ",\n";
  }
  std::fprintf(f, "\n  },\n  \"layers\": {");
  sep = "\n";
  for (const auto& [name, value] : layers) {
    std::fprintf(f, "%s    \"%s\": %.12g", sep, name.c_str(), value);
    sep = ",\n";
  }
  std::fprintf(f, "\n  },\n  \"unit_counters\": {");
  sep = "\n";
  for (const auto& [name, value] : in.unit.values) {
    std::fprintf(f, "%s    \"%s\": %lld", sep, name.c_str(), static_cast<long long>(value));
    sep = ",\n";
  }
  std::fprintf(f, "\n  }\n}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
