// synth_mix and paper512: cold synthesize() requests (plus resynthesize()
// after a link degradation on synth_mix) from one client thread, each
// Synthesizer running its default pool.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "core/resynthesize.h"
#include "core/synthesizer.h"
#include "layers.h"
#include "obs/scenario.h"
#include "topo/mutate.h"

namespace perfbench {

namespace {

namespace core = syccl::core;
namespace obs = syccl::obs;

const char* const kFabrics[] = {"dgx16", "a100x16", "a100x32", "h800x8"};
const char* const kColls[] = {"allreduce", "allgather", "reducescatter", "alltoall"};
const std::uint64_t kSizes[] = {64ull << 10, 16ull << 20, 256ull << 20};
constexpr int kNumColls = 4;
constexpr int kNumSizes = 3;
/// Either setup takes about a millisecond; the median of many is steadier.
constexpr int kSynthSetupReps = 31;
constexpr int kPaperSetupReps = 31;
/// A pass takes about 5 s on a 4-core machine. A run makes seconds / 5
/// passes: a fixed amount of work, whatever the speed of machine or program.
constexpr double kNominalPassSeconds = 5.0;

int num_passes(const Options& opts) {
  return std::max(1, static_cast<int>(std::lround(opts.seconds / kNominalPassSeconds)));
}

/// Resynthesis requests run at the middle size, so that every seed's mix
/// has the same sizes and bus bandwidth depends on the seed only through
/// which (symmetric) uplink degrades.
constexpr int kResynthSize = 1;

/// One fabric of synth_mix: its topology and, per collective, the seeded
/// degradation of its resynthesis request.
struct Fabric {
  std::string name;
  topo::Topology topo;
  std::vector<topo::MutationResult> degraded;  ///< per collective
  /// Groups of the degraded topologies, extracted on first check.
  std::vector<std::unique_ptr<topo::TopologyGroups>> degraded_groups;
};

/// Degrades one seeded NIC uplink (both directions) 4x: a flapping optic,
/// the common fault of a fleet.
topo::MutationResult degrade_one_uplink(const topo::Topology& t, Rng& rng) {
  std::vector<const topo::Link*> uplinks;
  for (const topo::Link& l : t.links()) {
    if (t.node(l.src).kind == topo::NodeKind::Nic && t.node(l.dst).kind == topo::NodeKind::Switch) {
      uplinks.push_back(&l);
    }
  }
  if (uplinks.empty()) throw std::runtime_error("fabric has no NIC uplinks to degrade");
  const topo::Link& l = *uplinks[rng.below(uplinks.size())];
  return topo::degrade_duplex(t, l.src, l.dst, 4.0, 4.0);
}

std::vector<Fabric> build_fabrics(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fabric> fabrics;
  for (const char* name : kFabrics) {
    Fabric f;
    f.name = name;
    f.topo = obs::build_scenario_topology(name);
    for (int c = 0; c < kNumColls; ++c) {
      f.degraded.push_back(degrade_one_uplink(f.topo, rng));
    }
    f.degraded_groups.resize(kNumColls);
    fabrics.push_back(std::move(f));
  }
  return fabrics;
}

/// What one pass (or the traced loop) measured.
struct LoopStats {
  Samples cold_ms;
  Samples cold_cpu_ms;
  Samples resynth_ms;
  double check_s = 0.0;
  double check_cpu_s = 0.0;
  double extract_ms = 0.0;
  long resynth_reused = 0;
  long resynth_resolved = 0;
  long requests = 0;
};

class SynthMix {
 public:
  SynthMix(const Options& opts, Checker& checker, std::vector<Fabric>& fabrics)
      : opts_(opts), checker_(checker), fabrics_(fabrics) {}

  /// Pass `index`: fabrics in seeded order; per fabric its twelve cold
  /// requests in seeded order, then one resynthesis per collective. The
  /// order depends only on the seed and `index`. Every pass starts from an
  /// empty solve cache, so each does the same work; within the pass the
  /// cache fills as in a long-lived process and resynthesis reads what the
  /// cold requests left. Stops early only at the request cap.
  void run_pass(int index, LoopStats& s, bool time_groups) {
    clear_solve_cache();
    Rng rng(opts_.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(index));
    std::vector<int> fabric_order = {0, 1, 2, 3};
    rng.shuffle(fabric_order);
    for (int fi : fabric_order) {
      Fabric& f = fabrics_[static_cast<std::size_t>(fi)];
      std::vector<int> cold(kNumColls * kNumSizes);
      for (int i = 0; i < kNumColls * kNumSizes; ++i) cold[static_cast<std::size_t>(i)] = i;
      rng.shuffle(cold);
      std::vector<core::SynthesisResult> previous(kNumColls * kNumSizes);
      std::vector<bool> have(kNumColls * kNumSizes, false);
      for (int r : cold) {
        if (capped()) return;
        have[static_cast<std::size_t>(r)] =
            run_cold(f, r / kNumSizes, r % kNumSizes, s, time_groups,
                     previous[static_cast<std::size_t>(r)]);
      }
      std::vector<int> resynth = {0, 1, 2, 3};
      rng.shuffle(resynth);
      for (int c : resynth) {
        if (capped()) return;
        const std::size_t r = static_cast<std::size_t>(c * kNumSizes + kResynthSize);
        run_resynth(f, c, s, time_groups, have[r] ? &previous[r] : nullptr);
      }
    }
  }

  bool capped() const { return opts_.max_requests > 0 && issued_ >= opts_.max_requests; }
  /// The request cap applies to each loop.
  void reset_cap() { issued_ = 0; }

 private:
  bool run_cold(Fabric& f, int c, int si, LoopStats& s, bool time_groups,
                core::SynthesisResult& out) {
    const coll::Collective coll =
        obs::build_scenario_collective(kColls[c], static_cast<int>(f.topo.num_gpus()), kSizes[si]);
    const std::string what = f.name + " " + kColls[c] + " " + std::to_string(kSizes[si]);
    ++issued_;
    ++s.requests;
    checker_.attempt();
    try {
      if (time_groups) {
        const double g0 = now_s();
        (void)topo::extract_groups(f.topo);
        s.extract_ms += (now_s() - g0) * 1e3;
      }
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      core::Synthesizer synthesizer(f.topo);
      out = synthesizer.synthesize(coll);
      s.cold_ms.add((now_s() - t0) * 1e3);
      s.cold_cpu_ms.add((process_cpu_s() - cpu0) * 1e3);
      const double c0 = now_s();
      const double check_cpu0 = process_cpu_s();
      const std::string err = checker_.check(out.schedule, coll, synthesizer.groups(), f.topo,
                                             what, out.predicted_time);
      s.check_cpu_s += process_cpu_s() - check_cpu0;
      s.check_s += now_s() - c0;
      if (!err.empty()) {
        checker_.fail(what + ": " + err);
        return false;
      }
      return true;
    } catch (const std::exception& e) {
      checker_.fail(what + ": " + e.what());
      return false;
    }
  }

  void run_resynth(Fabric& f, int c, LoopStats& s, bool time_groups,
                   const core::SynthesisResult* previous) {
    const int si = kResynthSize;
    const topo::MutationResult& mutation = f.degraded[static_cast<std::size_t>(c)];
    const coll::Collective coll =
        obs::build_scenario_collective(kColls[c], static_cast<int>(f.topo.num_gpus()), kSizes[si]);
    const std::string what =
        f.name + " " + kColls[c] + " " + std::to_string(kSizes[si]) + " resynth";
    ++issued_;
    ++s.requests;
    checker_.attempt();
    try {
      if (time_groups) {
        const double g0 = now_s();
        (void)topo::extract_groups(mutation.topo);
        s.extract_ms += (now_s() - g0) * 1e3;
      }
      const double t0 = now_s();
      const core::ResynthesisReport report =
          core::resynthesize(f.topo, mutation, coll, {}, previous);
      s.resynth_ms.add((now_s() - t0) * 1e3);
      s.resynth_reused += report.classes_reused;
      s.resynth_resolved += report.classes_resolved;
      const double c0 = now_s();
      const double check_cpu0 = process_cpu_s();
      auto& groups = f.degraded_groups[static_cast<std::size_t>(c)];
      if (!groups) groups = std::make_unique<topo::TopologyGroups>(topo::extract_groups(mutation.topo));
      const std::string err = checker_.check(report.result.schedule, coll, *groups, mutation.topo,
                                             what, report.result.predicted_time);
      s.check_cpu_s += process_cpu_s() - check_cpu0;
      s.check_s += now_s() - c0;
      if (!err.empty()) checker_.fail(what + ": " + err);
    } catch (const std::exception& e) {
      checker_.fail(what + ": " + e.what());
    }
  }

  const Options& opts_;
  Checker& checker_;
  std::vector<Fabric>& fabrics_;
  long issued_ = 0;
};

}  // namespace

WorkloadResult run_synth_mix(const Options& opts, Checker& checker) {
  WorkloadResult out;
  std::vector<Fabric> fabrics;
  median_setup(kSynthSetupReps, out, [&] { fabrics = build_fabrics(opts.seed); });

  SynthMix mix(opts, checker, fabrics);
  const CounterSnapshot before = CounterSnapshot::take();
  LoopStats first;
  const double loop_start = now_s();
  const double loop_cpu_start = process_cpu_s();
  mix.run_pass(0, first, false);
  out.unit_counts = CounterSnapshot::take().minus(before);

  if (!opts.trace) {
    LoopStats all = first;
    for (int pass = 1; pass < num_passes(opts) && !mix.capped(); ++pass) {
      mix.run_pass(pass, all, false);
    }
    const double loop_s = now_s() - loop_start - all.check_s;
    const double loop_cpu_s = process_cpu_s() - loop_cpu_start - all.check_cpu_s;
    out.primary_ms = all.cold_ms;
    out.primary_cpu_ms = all.cold_cpu_ms;
    out.secondary_ms = all.resynth_ms;
    out.primary_per_s = static_cast<double>(all.cold_ms.size()) / loop_s;
    out.primary_per_cpu_s = static_cast<double>(all.cold_ms.size()) / loop_cpu_s;
    return out;
  }

  // Traced run. The reference for the tracing overhead is pass 0 again,
  // untraced, once the process is warm; then the loop restarts with spans on.
  LoopStats reference;
  mix.reset_cap();
  mix.run_pass(0, reference, false);
  mix.reset_cap();
  syccl::obs::trace_clear();
  LayerInputs in;
  const CounterSnapshot loop_before = CounterSnapshot::take();
  syccl::obs::set_tracing(true);
  LoopStats traced;
  const double traced_start = now_s();
  const double traced_cpu_start = process_cpu_s();
  mix.run_pass(0, traced, true);
  const double traced_first_p50 = traced.cold_ms.p50();
  for (int pass = 1; pass < num_passes(opts) && !mix.capped(); ++pass) {
    mix.run_pass(pass, traced, true);
  }
  syccl::obs::set_tracing(false);
  in.loop = CounterSnapshot::take().minus(loop_before);
  in.trace = summarize_trace(syccl::obs::trace_snapshot());
  syccl::obs::trace_clear();
  in.unit = out.unit_counts;
  in.requests = traced.requests;
  in.synth_wall_ms = traced.cold_ms.sum() + traced.resynth_ms.sum();
  in.pool_threads = pool_threads();
  in.extract_groups_ms = traced.extract_ms;
  in.validate_ms = checker.validate_ms_mean();
  in.resynth_reused = first.resynth_reused;
  in.resynth_resolved = first.resynth_resolved;
  const double untraced_p50 = reference.cold_ms.p50();
  in.overhead_ratio = untraced_p50 > 0.0 ? traced_first_p50 / untraced_p50 : 0.0;
  out.primary_ms = traced.cold_ms;
  out.primary_cpu_ms = traced.cold_cpu_ms;
  out.secondary_ms = traced.resynth_ms;
  out.primary_per_s = static_cast<double>(traced.cold_ms.size()) /
                      (now_s() - traced_start - traced.check_s);
  out.primary_per_cpu_s = static_cast<double>(traced.cold_ms.size()) /
                          (process_cpu_s() - traced_cpu_start - traced.check_cpu_s);
  out.layers = assemble_layers(in);
  write_layer_file(layer_file(opts), opts.workload, opts.seed, in, out.layers);
  return out;
}

WorkloadResult run_paper512(const Options& opts, Checker& checker) {
  WorkloadResult out;
  topo::Topology topo;
  median_setup(kPaperSetupReps, out, [&] { topo = obs::build_scenario_topology("h800x64"); });
  const coll::Collective coll =
      obs::build_scenario_collective("allgather", static_cast<int>(topo.num_gpus()), 1ull << 20);
  clear_solve_cache();

  // One cold synthesis; returns its wall time in ms and sets `cpu_ms` to
  // its CPU time (every thread).
  const auto synthesize_once = [&](double* extract_ms, double& cpu_ms) {
    checker.attempt();
    try {
      if (extract_ms != nullptr) {
        const double g0 = now_s();
        (void)topo::extract_groups(topo);
        *extract_ms = (now_s() - g0) * 1e3;
      }
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      core::Synthesizer synthesizer(topo);
      const core::SynthesisResult r = synthesizer.synthesize(coll);
      const double ms = (now_s() - t0) * 1e3;
      cpu_ms = (process_cpu_s() - cpu0) * 1e3;
      const std::string err = checker.check(r.schedule, coll, synthesizer.groups(), topo,
                                            "h800x64 allgather 1MiB", r.predicted_time);
      if (!err.empty()) checker.fail("h800x64 allgather: " + err);
      return ms;
    } catch (const std::exception& e) {
      checker.fail(std::string("h800x64 allgather: ") + e.what());
      return 0.0;
    }
  };

  const CounterSnapshot before = CounterSnapshot::take();
  double untraced_cpu_ms = 0.0;
  const double untraced_ms = synthesize_once(nullptr, untraced_cpu_ms);
  out.unit_counts = CounterSnapshot::take().minus(before);
  if (!opts.trace) {
    out.primary_ms.add(untraced_ms);
    out.primary_cpu_ms.add(untraced_cpu_ms);
    out.primary_per_s = untraced_ms > 0.0 ? 1e3 / untraced_ms : 0.0;
    out.primary_per_cpu_s = untraced_cpu_ms > 0.0 ? 1e3 / untraced_cpu_ms : 0.0;
    return out;
  }

  clear_solve_cache();
  syccl::obs::trace_clear();
  LayerInputs in;
  const CounterSnapshot loop_before = CounterSnapshot::take();
  syccl::obs::set_tracing(true);
  double traced_cpu_ms = 0.0;
  const double traced_ms = synthesize_once(&in.extract_groups_ms, traced_cpu_ms);
  syccl::obs::set_tracing(false);
  in.loop = CounterSnapshot::take().minus(loop_before);
  in.trace = summarize_trace(syccl::obs::trace_snapshot());
  syccl::obs::trace_clear();
  in.unit = out.unit_counts;
  in.requests = 1;
  in.synth_wall_ms = traced_ms;
  in.pool_threads = pool_threads();
  in.validate_ms = checker.validate_ms_mean();
  in.overhead_ratio = untraced_ms > 0.0 ? traced_ms / untraced_ms : 0.0;
  out.primary_ms.add(traced_ms);
  out.primary_cpu_ms.add(traced_cpu_ms);
  out.primary_per_s = traced_ms > 0.0 ? 1e3 / traced_ms : 0.0;
  out.primary_per_cpu_s = traced_cpu_ms > 0.0 ? 1e3 / traced_cpu_ms : 0.0;
  out.layers = assemble_layers(in);
  write_layer_file(layer_file(opts), opts.workload, opts.seed, in, out.layers);
  return out;
}

}  // namespace perfbench
