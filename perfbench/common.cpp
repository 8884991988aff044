#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "baselines/flow_bound.h"
#include "bench.h"
#include "coll/busbw.h"
#include "obs/metrics.h"
#include "runtime/validate.h"
#include "sim/simulator.h"
#include "solver/solve_cache.h"

namespace perfbench {

double Samples::sum() const {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double Samples::p50() const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::p95() const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

Tail Samples::tail() const {
  Tail t;
  t.n = values.size();
  if (values.empty()) return t;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  if (t.n < 11) {
    t.value = v.back();
    return t;
  }
  t.value = v[t.n - 11];
  t.percentile = 100.0 * static_cast<double>(t.n - 10) / static_cast<double>(t.n);
  return t;
}

std::string Checker::check(const sim::Schedule& schedule, const coll::Collective& coll,
                           const topo::TopologyGroups& groups, const topo::Topology& topo,
                           const std::string& bound_key, double reported) {
  const double t0 = now_s();
  const syccl::runtime::ValidationReport report =
      syccl::runtime::validate_schedule(schedule, coll, groups);
  const double validate_s = now_s() - t0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    validate_s_ += validate_s;
    ++validate_n_;
  }
  if (!report.ok) {
    return "validation: " + (report.errors.empty() ? std::string("?") : report.errors.front());
  }
  // Same simulator options as the default SynthesisConfig and BrokerConfig.
  const sim::Simulator simulator(groups);
  const double makespan = simulator.run(schedule).makespan;
  if (coll.kind() == coll::CollKind::AllReduce) {
    if (!(std::abs(makespan - reported) <= 1e-9 * reported)) defect(Defect::AllReduceTime);
  } else {
    const double resim = simulator.time_collective(schedule, coll);
    if (!(std::abs(resim - reported) <= 1e-9 * reported)) {
      return "re-simulated " + std::to_string(resim) + " s != reported " +
             std::to_string(reported) + " s";
    }
  }
  if (coll.num_ranks() <= 64) {
    std::pair<double, double> floors{0.0, 0.0};  // load floor, path floor
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = bounds_.find(bound_key);
      if (it != bounds_.end()) floors = it->second;
    }
    if (floors.first == 0.0) {
      // The two combinatorial floors of flow_lower_bound, without its LP
      // (max_lp_cols = 0): the LP takes minutes per problem on a100x16.
      const syccl::baselines::FlowBoundResult b =
          syccl::baselines::flow_lower_bound(coll, topo, {0, 0});
      floors = {b.load_bound, b.path_bound};
      std::lock_guard<std::mutex> lock(mutex_);
      bounds_[bound_key] = floors;
    }
    if (reported < floors.first * (1.0 - 1e-9)) {
      return "predicted " + std::to_string(reported) + " s beats the flow load floor " +
             std::to_string(floors.first) + " s";
    }
    if (reported < floors.second * (1.0 - 1e-9)) defect(Defect::FlowPathFloor);
  }
  // Bus bandwidth of the re-simulated completion, which the AllReduce
  // defect does not skew.
  const double bw = syccl::coll::busbw_GBps(coll, makespan);
  if (!(bw > 0.0) || !std::isfinite(bw)) return "non-positive bus bandwidth";
  std::lock_guard<std::mutex> lock(mutex_);
  log_busbw_sum_ += std::log(bw);
  ++busbw_n_;

  return {};
}

void Checker::fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (messages_.size() < 8) messages_.push_back(what);
}

double Checker::busbw_gmean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busbw_n_ == 0 ? 0.0 : std::exp(log_busbw_sum_ / static_cast<double>(busbw_n_));
}

std::vector<std::string> Checker::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

void Checker::defect(Defect d) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++defects_[d];
}

std::map<std::string, long> Checker::defects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, long> out;
  for (const auto& [d, n] : defects_) {
    switch (d) {
      case Defect::AllReduceTime:
        out["allreduce_time"] = n;
        break;
      case Defect::FlowPathFloor:
        out["flow_path_floor"] = n;
        break;
      case Defect::PermutedReduce:
        out["permuted_reduce"] = n;
        break;
    }
  }
  return out;
}

double Checker::validate_ms_mean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return validate_n_ == 0 ? 0.0 : 1e3 * validate_s_ / static_cast<double>(validate_n_);
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot s;
  for (const auto& [name, value] : syccl::obs::MetricsRegistry::instance().snapshot().counters) {
    s.values[name] = value;
  }
  return s;
}

std::int64_t CounterSnapshot::get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& before) const {
  CounterSnapshot d;
  for (const auto& [name, value] : values) d.values[name] = value - before.get(name);
  return d;
}

int pool_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 4 : static_cast<int>(n);
}

void clear_solve_cache() { syccl::solver::SubScheduleCache::instance().clear(); }

std::string layer_file(const Options& opts) {
  std::filesystem::create_directories(opts.work_dir);
  return opts.work_dir + "/layers-" + opts.workload + "-seed" + std::to_string(opts.seed) +
         ".json";
}

}  // namespace perfbench
