// Microbenchmarks (google-benchmark): throughput of the substrates under the
// synthesizer — simulator, group extraction, sketch search, replication and
// combination, greedy and MILP sub-demand solvers, LP simplex, schedule
// merging.
#include <benchmark/benchmark.h>

#include "coll/collective.h"
#include "core/merge.h"
#include "core/subdemand.h"
#include "core/synthesizer.h"
#include "lp/simplex.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sketch/alltoall.h"
#include "sketch/replicate.h"
#include "sketch/search.h"
#include "solver/greedy.h"
#include "solver/milp_scheduler.h"
#include "solver/solve_cache.h"
#include "solver/tau.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace {

using namespace syccl;

sim::Schedule make_ring_schedule(const coll::Collective& ag) {
  const int n = ag.num_ranks();
  sim::Schedule s;
  s.pieces = sim::pieces_for(ag);
  for (int step = 0; step < n - 1; ++step) {
    for (int r = 0; r < n; ++r) {
      const int piece = ((r - step) % n + n) % n;
      s.add_op(piece, r, (r + 1) % n);
    }
  }
  return s;
}

void BM_SimulatorRingAllGather(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  const auto topo = topo::build_h800_cluster(servers);
  const auto groups = topo::extract_groups(topo);
  const auto ag = coll::make_allgather(servers * 8, 1ull << 30);
  const auto sched = make_ring_schedule(ag);
  const sim::Simulator sim(groups);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(sched).makespan);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sched.ops.size()));
}
BENCHMARK(BM_SimulatorRingAllGather)->Arg(2)->Arg(8)->Arg(16);

void BM_GroupExtraction(benchmark::State& state) {
  const auto topo = topo::build_h800_cluster(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::extract_groups(topo).num_dims());
  }
}
BENCHMARK(BM_GroupExtraction)->Arg(2)->Arg(8)->Arg(16);

void BM_SketchSearch(benchmark::State& state) {
  const auto topo = topo::build_h800_cluster(static_cast<int>(state.range(0)));
  const auto groups = topo::extract_groups(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sketch::search_sketches(groups, 0, sketch::RootedPattern::Broadcast).size());
  }
}
BENCHMARK(BM_SketchSearch)->Arg(2)->Arg(8)->Arg(32);

void BM_AllToAllReplication(benchmark::State& state) {
  const auto topo = topo::build_h800_cluster(static_cast<int>(state.range(0)));
  const auto groups = topo::extract_groups(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sketch::generate_alltoall_combinations(groups, sketch::RootedPattern::Broadcast)
            .size());
  }
}
BENCHMARK(BM_AllToAllReplication)->Arg(2)->Arg(8);

/// All-to-all sub-demand over `gt`: piece r starts on member r and every
/// other member needs it.
solver::SubDemand allgather_sub_demand(const topo::GroupTopology& gt, double piece_bytes) {
  const int n = gt.size();
  solver::SubDemand demand;
  demand.group = &gt;
  demand.piece_bytes = piece_bytes;
  for (int r = 0; r < n; ++r) {
    solver::DemandPiece p;
    p.id = r;
    p.srcs = {r};
    for (int d = 0; d < n; ++d) {
      if (d != r) p.dsts.push_back(d);
    }
    demand.pieces.push_back(std::move(p));
  }
  return demand;
}

void BM_GreedySubDemand(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto topo = topo::build_single_server(n);
  const auto groups = topo::extract_groups(topo);
  const auto& gt = groups.dims[0].groups[0];
  const solver::SubDemand demand = allgather_sub_demand(gt, 1 << 20);
  const auto ep = solver::derive_epoch_params(gt, demand.piece_bytes, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::solve_greedy(demand, ep).num_epochs);
  }
}
BENCHMARK(BM_GreedySubDemand)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_GreedySubDemandPaper512(benchmark::State& state) {
  // The shape of the largest greedy solves of a 512-GPU AllGather 1 MiB:
  // h800x64's single 512-member spine group, 512 pieces, each needed by all
  // 511 other members. Args: piece bytes, E × 100. 2 KiB at E = 1 is the
  // coarse pass's shape; 308 B at E = 0.5 gives O = 3 and thousands of
  // epochs, like the fine pass's longest solves.
  const auto topo = topo::build_h800_cluster(64);
  const auto groups = topo::extract_groups(topo);
  const auto& gt = groups.dims.back().groups[0];
  const solver::SubDemand demand = allgather_sub_demand(gt, static_cast<double>(state.range(0)));
  const auto ep = solver::derive_epoch_params(gt, demand.piece_bytes,
                                              static_cast<double>(state.range(1)) / 100.0);
  int epochs = 0;
  for (auto _ : state) {
    epochs = solver::solve_greedy(demand, ep).num_epochs;
    benchmark::DoNotOptimize(epochs);
  }
  state.counters["epochs"] = epochs;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(gt.size()) * (gt.size() - 1));
}
BENCHMARK(BM_GreedySubDemandPaper512)->Args({2048, 100})->Args({308, 50})->Unit(benchmark::kMillisecond);

/// One coarse candidate of the 512-GPU AllGather 1 MiB on h800x64: the
/// first sketch combination's demand plan and its greedy E₁ solutions. Built
/// once per process (several seconds) and shared by every benchmark run.
struct Paper512Candidate {
  topo::Topology topo = topo::build_h800_cluster(64);
  topo::TopologyGroups groups = topo::extract_groups(topo);
  core::DemandPlan plan;
  std::vector<solver::SubSchedule> solved;

  Paper512Candidate() {
    const auto combos =
        sketch::generate_alltoall_combinations(groups, sketch::RootedPattern::Broadcast);
    plan = core::build_demand_plan(combos.front(), coll::make_allgather(512, 1 << 20), groups);
    solver::MilpSchedulerOptions opts;
    opts.E = core::SynthesisConfig{}.E1;
    opts.greedy_only = true;
    for (const auto& md : plan.demands) {
      solved.push_back(solver::SubScheduleCache::instance().get_or_solve(md.demand, opts));
    }
  }
};

void BM_MergeSchedulePaper512(benchmark::State& state) {
  static const Paper512Candidate cand;
  std::size_t ops = 0;
  for (auto _ : state) {
    ops = core::merge_schedule(cand.plan, cand.solved, cand.groups, "paper512").ops.size();
    benchmark::DoNotOptimize(ops);
  }
  state.counters["ops"] = static_cast<double>(ops);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_MergeSchedulePaper512)->Unit(benchmark::kMillisecond);

/// The sketch front end of the 512-GPU AllGather on h800x64: the selected
/// Broadcast prototypes balanced across groups at rank 0, and their
/// families replicated onto every root. Built once per process.
struct Paper512Families {
  topo::Topology topo = topo::build_h800_cluster(64);
  topo::TopologyGroups groups = topo::extract_groups(topo);
  std::vector<sketch::SketchCombination> balanced;
  std::vector<sketch::SketchCombination> all_roots;

  Paper512Families() {
    const sketch::AllToAllConfig config;
    const auto sketches =
        sketch::search_sketches(groups, 0, sketch::RootedPattern::Broadcast, config.search);
    for (const auto& proto : sketch::select_prototypes(sketches, groups, config.max_prototypes)) {
      sketch::SketchCombination combo = sketch::balance_across_groups(proto, groups);
      all_roots.push_back(sketch::replicate_for_all_roots(combo, groups));
      balanced.push_back(std::move(combo));
    }
  }
};

void BM_ReplicateForAllRootsPaper512(benchmark::State& state) {
  static const Paper512Families fam;
  std::size_t sketches = 0;
  for (auto _ : state) {
    sketches = 0;
    for (const auto& combo : fam.balanced) {
      sketches += sketch::replicate_for_all_roots(combo, fam.groups).sketches.size();
    }
    benchmark::DoNotOptimize(sketches);
  }
  state.counters["sketches"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(sketches),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplicateForAllRootsPaper512)->Unit(benchmark::kMillisecond);

void BM_GenerateCombinationsPaper512(benchmark::State& state) {
  static const Paper512Families fam;
  std::size_t sketches = 0;
  for (auto _ : state) {
    sketches = 0;
    for (const auto& combo : sketch::generate_combinations(fam.all_roots, fam.groups)) {
      sketches += combo.sketches.size();
    }
    benchmark::DoNotOptimize(sketches);
  }
  state.counters["sketches"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(sketches),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GenerateCombinationsPaper512)->Unit(benchmark::kMillisecond);

void BM_MilpSubDemandBroadcast(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto topo = topo::build_single_server(n);
  const auto groups = topo::extract_groups(topo);
  const auto& gt = groups.dims[0].groups[0];
  solver::SubDemand demand;
  demand.group = &gt;
  demand.piece_bytes = 1 << 16;
  solver::DemandPiece p;
  p.id = 0;
  p.srcs = {0};
  for (int d = 1; d < n; ++d) p.dsts.push_back(d);
  demand.pieces.push_back(std::move(p));
  solver::MilpSchedulerOptions opts;
  opts.time_limit_s = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::solve_sub_demand(demand, opts).num_epochs);
  }
}
BENCHMARK(BM_MilpSubDemandBroadcast)->Arg(4)->Arg(6)->Arg(8);

void BM_MilpEncode(benchmark::State& state) {
  // The encode step in isolation (variable tables + constraint emission);
  // the satellite target of the flat-key Encoding rewrite.
  const int n = static_cast<int>(state.range(0));
  const auto topo = topo::build_single_server(n);
  const auto groups = topo::extract_groups(topo);
  const auto& gt = groups.dims[0].groups[0];
  solver::SubDemand demand;
  demand.group = &gt;
  demand.piece_bytes = 1 << 16;
  solver::DemandPiece p;
  p.id = 0;
  p.srcs = {0};
  for (int d = 1; d < n; ++d) p.dsts.push_back(d);
  demand.pieces.push_back(std::move(p));
  const auto ep = solver::derive_epoch_params(gt, demand.piece_bytes, 1.0);
  const int horizon = solver::solve_greedy(demand, ep).num_epochs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::encode_sub_demand_binaries(demand, 1.0, horizon));
  }
}
BENCHMARK(BM_MilpEncode)->Arg(4)->Arg(8)->Arg(16);

core::SynthesisConfig synth_bench_config(bool use_cache) {
  core::SynthesisConfig cfg;
  cfg.sketch.search.max_sketches = 32;
  cfg.sketch.max_prototypes = 4;
  cfg.sketch.combine.max_outputs = 10;
  cfg.coarse_solver.time_limit_s = 0.1;
  cfg.fine_solver.time_limit_s = 0.2;
  cfg.use_solve_cache = use_cache;
  return cfg;
}

void BM_SynthesizeAllGatherColdCache(benchmark::State& state) {
  // End-to-end Synthesizer::synthesize with the solve cache cleared every
  // iteration — the cost of a first-ever synthesis.
  const auto topo = topo::build_h800_cluster(2);
  const auto coll = coll::make_allgather(16, 16 << 20);
  for (auto _ : state) {
    solver::SubScheduleCache::instance().clear();
    core::Synthesizer synth(topo, synth_bench_config(true));
    benchmark::DoNotOptimize(synth.synthesize(coll).predicted_time);
  }
}
BENCHMARK(BM_SynthesizeAllGatherColdCache)->Unit(benchmark::kMillisecond);

void BM_SynthesizeAllGatherWarmCache(benchmark::State& state) {
  // Same synthesis with a warm process-wide cache — the steady-state cost
  // inside a size sweep or repeated schedule-library misses.
  const auto topo = topo::build_h800_cluster(2);
  const auto coll = coll::make_allgather(16, 16 << 20);
  solver::SubScheduleCache::instance().clear();
  {
    core::Synthesizer warmup(topo, synth_bench_config(true));
    warmup.synthesize(coll);
  }
  for (auto _ : state) {
    core::Synthesizer synth(topo, synth_bench_config(true));
    benchmark::DoNotOptimize(synth.synthesize(coll).predicted_time);
  }
}
BENCHMARK(BM_SynthesizeAllGatherWarmCache)->Unit(benchmark::kMillisecond);

void BM_SimplexLp(benchmark::State& state) {
  // A transportation LP scaled by the argument.
  const int m = static_cast<int>(state.range(0));
  lp::Problem p;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(m),
                                  std::vector<int>(static_cast<std::size_t>(m)));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          p.add_var(0, lp::kInf, 1.0 + ((i * 7 + j * 3) % 5));
    }
  }
  for (int i = 0; i < m; ++i) {
    lp::Constraint supply, demand;
    for (int j = 0; j < m; ++j) {
      supply.terms.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
      demand.terms.push_back({x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)], 1.0});
    }
    supply.rel = lp::Relation::LessEq;
    supply.rhs = 10.0 + i;
    demand.rel = lp::Relation::GreaterEq;
    demand.rhs = 5.0 + i % 3;
    p.add_constraint(supply);
    p.add_constraint(demand);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p).objective);
  }
}
BENCHMARK(BM_SimplexLp)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
