// Shared pieces of the end-to-end benchmark: options, latency samples, the
// output checker every returned schedule goes through, and the per-workload
// result that main.cpp prints.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "coll/collective.h"
#include "sim/schedule.h"
#include "topo/groups.h"
#include "topo/topology.h"

namespace perfbench {

namespace coll = syccl::coll;
namespace sim = syccl::sim;
namespace topo = syccl::topo;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Caps the timed requests of synth_mix/serve_mix (0 = no cap); the smoke
  /// test uses it to keep runs short.
  long max_requests = 0;
  /// Scratch space for the serve library and the traced run's layer file.
  std::string work_dir = ".bench_build/perfbench-work";
};

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds used so far by `clock`: CLOCK_PROCESS_CPUTIME_ID (every
/// thread of the process) or CLOCK_THREAD_CPUTIME_ID (the calling thread).
inline double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double process_cpu_s() { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return cpu_s(CLOCK_THREAD_CPUTIME_ID); }

/// Seeded choices. mt19937_64 output is fixed by the standard; the helpers
/// avoid std distributions, whose algorithms vary between libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::uint64_t below(std::uint64_t n) { return gen_() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::mt19937_64 gen_;
};

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t n = 0;
};

struct Samples {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  void append(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  std::size_t size() const { return values.size(); }
  double sum() const;
  double p50() const;
  /// Nearest-rank 95th percentile: the value at or below which 95% of the
  /// samples lie; the only sample when there is one.
  double p95() const;
  /// Sample n-11 of the sorted values (exactly ten beyond it); the maximum
  /// when there are fewer than eleven samples.
  Tail tail() const;
};

/// Known defects of the program at the commit this benchmark was written
/// for. A failure that matches one is counted under its name and printed
/// on a DEFECT line instead of failing the run; perfbench/README.md
/// describes each. Any other failure fails the run.
enum class Defect {
  /// The synthesizer reports an AllReduce as the sum of its RS and AG phase
  /// times, and Simulator::time_collective (the broker's timer) counts only
  /// the reduce-scatter half, so neither is the re-simulated completion.
  AllReduceTime,
  /// baselines::flow_lower_bound's path floor charges every physical hop
  /// α + β·bytes; the simulator pipelines blocks and prices an op at its
  /// dimension port, so correct schedules can finish below it.
  FlowPathFloor,
  /// serve::apply_rank_map does not relabel reduce pieces correctly: a
  /// ReduceScatter or AllReduce on a rank-permuted topology fails the
  /// broker's own validation or simulation, or predicts another time than
  /// its unpermuted twin.
  PermutedReduce,
};

/// Checks every schedule the program returns and counts requests. Each
/// failure (throw, rejection or failed check) marks one attempted request
/// as failed, unless it is a known Defect. Thread-safe.
class Checker {
 public:
  /// Validates `schedule` against `coll`, re-simulates it (the collective's
  /// completion must equal `reported` to 1e-9 relative), and on fabrics of
  /// at most 64 ranks checks `reported` against the floors of
  /// baselines::flow_lower_bound on `topo` (cached under `bound_key`). Folds
  /// the bus bandwidth of the re-simulated makespan into the geometric mean.
  /// Returns the failure, or an empty string.
  std::string check(const sim::Schedule& schedule, const coll::Collective& coll,
                    const topo::TopologyGroups& groups, const topo::Topology& topo,
                    const std::string& bound_key, double reported);

  void attempt() { attempted_.fetch_add(1); }
  /// Counts one failed request and keeps the first few messages.
  void fail(const std::string& what);
  /// Counts one occurrence of a known defect.
  void defect(Defect d);

  long attempted() const { return attempted_.load(); }
  long failed() const { return failed_.load(); }
  double busbw_gmean() const;
  std::vector<std::string> failures() const;
  /// Occurrences per known defect, by name.
  std::map<std::string, long> defects() const;
  /// Mean wall time of runtime::validate_schedule over checked schedules.
  double validate_ms_mean() const;

 private:
  std::atomic<long> attempted_{0};
  std::atomic<long> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
  std::map<Defect, long> defects_;
  double log_busbw_sum_ = 0.0;
  long busbw_n_ = 0;
  double validate_s_ = 0.0;
  long validate_n_ = 0;
  /// Load and path floor per bound key.
  std::map<std::string, std::pair<double, double>> bounds_;
};

/// Registry counter values; deltas give the work done between two takes.
struct CounterSnapshot {
  std::map<std::string, std::int64_t> values;
  static CounterSnapshot take();
  std::int64_t get(const std::string& name) const;
  /// Per-counter difference `*this - before`.
  CounterSnapshot minus(const CounterSnapshot& before) const;
};

/// Per-layer numbers of the traced run, in BENCHMARK.json order.
using LayerMetrics = std::vector<std::pair<std::string, double>>;

struct WorkloadResult {
  /// Median CPU time (every thread) and wall time of the set-up.
  double setup_s = 0.0;
  double setup_wall_s = 0.0;
  /// Wall latency of the workload's main request class, ms: cold
  /// synthesize() on synth_mix and paper512, library hits on serve_mix.
  Samples primary_ms;
  /// CPU time of the same requests, ms: every thread of the process on
  /// synth_mix and paper512 (one request runs at a time, on the synthesizer
  /// pool), the client thread on serve_mix (a hit runs on its caller).
  Samples primary_cpu_ms;
  /// Requests per second of client time, check time excluded: cold
  /// syntheses on synth_mix and paper512, all requests on serve_mix.
  double primary_per_s = 0.0;
  /// The same requests per CPU-second of the whole process over the loop,
  /// check CPU excluded: what a core of the service gets done.
  double primary_per_cpu_s = 0.0;
  /// resynthesize() on synth_mix, misses on serve_mix; empty on paper512.
  Samples secondary_ms;
  /// serve_mix only: hits over requests.
  double hit_ratio = 0.0;
  /// Registry deltas over a fixed unit of work (synth_mix's first pass,
  /// paper512's synthesis, serve_mix's first round): a same-seed repeat
  /// must reproduce the deterministic ones exactly.
  CounterSnapshot unit_counts;
  LayerMetrics layers;  ///< traced run only
};

/// Runs `setup` `reps` times, each from scratch; sets the medians of its
/// process CPU time and wall time.
template <typename F>
void median_setup(int reps, WorkloadResult& out, F&& setup) {
  Samples cpu;
  Samples wall;
  for (int i = 0; i < reps; ++i) {
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    setup();
    wall.add(now_s() - t0);
    cpu.add(process_cpu_s() - c0);
  }
  out.setup_s = cpu.p50();
  out.setup_wall_s = wall.p50();
}

/// Workers of a default (num_threads = 0) util::ThreadPool.
int pool_threads();

/// Empties the process-wide solve cache so a loop starts cold.
void clear_solve_cache();

/// Path of the traced run's aggregated per-layer file (creates work_dir).
std::string layer_file(const Options& opts);

WorkloadResult run_synth_mix(const Options& opts, Checker& checker);
WorkloadResult run_paper512(const Options& opts, Checker& checker);
WorkloadResult run_serve_mix(const Options& opts, Checker& checker);

}  // namespace perfbench
