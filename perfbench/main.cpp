// End-to-end benchmark of synthesis and serving. One workload per process:
//
//   perfbench --workload synth_mix|paper512|serve_mix --seed N --seconds S
//             --trace 0|1 [--max-requests N] [--work-dir DIR]
//
// Prints the workload's metrics by name with units, its deterministic work
// counters, and as the last line one JSON object. With --trace 0 the JSON
// carries the end-to-end metrics; with --trace 1 the per-layer metrics of a
// traced run. Exits 1 if any request failed or any returned schedule failed
// a check, 2 on bad arguments. perfbench/README.md documents the metrics.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"
#include "util/cli.h"

namespace {

using namespace perfbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload synth_mix|paper512|serve_mix "
               "--seed N --seconds S --trace 0|1 [--max-requests N] [--work-dir DIR]\n",
               msg);
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note = {}) {
  std::printf("metric %-24s %.6g %s%s\n", name.c_str(), value, unit, note.c_str());
}

std::string tail_note(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "  (p%.1f of n=%zu)", t.percentile, t.n);
  return buf;
}

/// The workload's metrics under their workload-specific names
/// (perfbench/README.md maps them to the bounded JSON names).
void print_named(const Options& opts, const WorkloadResult& r, const Checker& checker,
                 double error_rate, double rss) {
  print_metric("setup_s", r.setup_s, "s", "  (CPU)");
  print_metric("setup_wall_s", r.setup_wall_s, "s");
  if (opts.workload == "serve_mix") {
    print_metric("serve_hit_ms.p50", r.primary_ms.p50(), "ms");
    print_metric("serve_hit_ms.tail", r.primary_ms.tail().value, "ms", tail_note(r.primary_ms.tail()));
    print_metric("serve_hit_cpu_ms.p50", r.primary_cpu_ms.p50(), "ms");
    print_metric("serve_hit_cpu_ms.p95", r.primary_cpu_ms.p95(), "ms",
                 "  (n=" + std::to_string(r.primary_cpu_ms.size()) + ")");
    print_metric("serve_hit_cpu_ms.tail", r.primary_cpu_ms.tail().value, "ms",
                 tail_note(r.primary_cpu_ms.tail()));
    print_metric("serve_miss_ms.p50", r.secondary_ms.p50(), "ms",
                 "  (n=" + std::to_string(r.secondary_ms.size()) + ")");
    print_metric("serve_rps", r.primary_per_s, "1/s");
    print_metric("serve_per_cpu_s", r.primary_per_cpu_s, "1/s");
    print_metric("hit_ratio", r.hit_ratio, "ratio");
  } else {
    const Tail tail = r.primary_ms.tail();
    const Tail cpu_tail = r.primary_cpu_ms.tail();
    print_metric("synth_s.p50", r.primary_ms.p50() / 1e3, "s",
                 "  (n=" + std::to_string(r.primary_ms.size()) + ")");
    print_metric("synth_s.tail", tail.value / 1e3, "s", tail_note(tail));
    print_metric("synth_cpu_s.p50", r.primary_cpu_ms.p50() / 1e3, "s");
    print_metric("synth_cpu_s.p95", r.primary_cpu_ms.p95() / 1e3, "s");
    print_metric("synth_cpu_s.tail", cpu_tail.value / 1e3, "s", tail_note(cpu_tail));
    print_metric("synth_per_s", r.primary_per_s, "1/s");
    print_metric("synth_per_cpu_s", r.primary_per_cpu_s, "1/s");
    if (opts.workload == "synth_mix") {
      print_metric("resynth_s.p50", r.secondary_ms.p50() / 1e3, "s",
                   "  (n=" + std::to_string(r.secondary_ms.size()) + ")");
    }
  }
  print_metric("busbw_gmean_GBps", checker.busbw_gmean(), "GB/s");
  print_metric("error_rate", error_rate, "ratio",
               "  (" + std::to_string(checker.failed()) + " of " +
                   std::to_string(checker.attempted()) + ")");
  print_metric("peak_rss_mb", rss, "MB");
}

/// The deterministic work counters, over the workload's fixed unit of work.
void print_counters(const WorkloadResult& r) {
  const std::pair<const char*, const char*> names[] = {
      {"solver.calls", "solver.solves"},
      {"synth.subdemands", "synth.subdemands"},
      {"synth.combinations", "synth.combinations"},
      {"sim.events", "sim.events"},
      {"solve_cache.misses", "solve_cache.misses"},
      {"solver.nodes_explored", "solver.nodes_explored"},
      {"solver.lp_iterations", "solver.lp_iterations"},
  };
  for (const auto& [shown, registry] : names) {
    std::printf("counter %-24s %lld\n", shown, static_cast<long long>(r.unit_counts.get(registry)));
  }
}

const char* layer_unit(const std::string& name) {
  auto ends_with = [&](const char* s) {
    const std::string suffix = s;
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_ratio") || ends_with("_coverage")) return "ratio";
  return "count";
}

void print_json(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      const auto v = syccl::util::cli::parse_u64(value);
      if (!v) return usage("bad --seed");
      opts.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = syccl::util::cli::parse_int(value, 1, 3600);
      if (!v) return usage("bad --seconds");
      opts.seconds = *v;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (arg == "--max-requests") {
      const auto v = syccl::util::cli::parse_int(value, 1, 1000000);
      if (!v) return usage("bad --max-requests");
      opts.max_requests = *v;
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  WorkloadResult (*run)(const Options&, Checker&) = nullptr;
  if (opts.workload == "synth_mix") run = run_synth_mix;
  if (opts.workload == "paper512") run = run_paper512;
  if (opts.workload == "serve_mix") run = run_serve_mix;
  if (run == nullptr) return usage("unknown --workload");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  std::fflush(stdout);
  Checker checker;
  WorkloadResult r;
  try {
    r = run(opts, checker);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  const double rss = peak_rss_mb();
  const long attempted = checker.attempted();
  const long failed = checker.failed();
  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  for (const std::string& f : checker.failures()) std::printf("FAILED %s\n", f.c_str());
  print_named(opts, r, checker, error_rate, rss);
  for (const auto& [name, n] : checker.defects()) {
    std::printf("DEFECT %-23s %ld  (known defect, see perfbench/README.md; not a failure)\n",
                name.c_str(), n);
  }
  print_counters(r);

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = {
        {"setup_s", r.setup_s, "s"},
        {"request_cpu_ms.p50", r.primary_cpu_ms.p50(), "ms"},
        {"request_cpu_ms.p95", r.primary_cpu_ms.p95(), "ms"},
        {"requests_per_cpu_s", r.primary_per_cpu_s, "1/s"},
        {"busbw_gmean_GBps", checker.busbw_gmean(), "GB/s"},
    };
  } else {
    for (const auto& [name, value] : r.layers) metrics.push_back({name, value, layer_unit(name)});
  }
  const bool correct = failed == 0 && attempted > 0 && !r.primary_ms.values.empty();
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
