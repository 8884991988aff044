// Differential test of the sub-schedule merge against a verbatim copy of its
// original forward implementation (a stable sort of per-op records on
// (stage, epoch, demand index, op index), then an estimated-start reorder
// over a map keyed by (piece, rank) that re-derives every op's group and
// local indices). The production merge buckets ops by a counting sort,
// captures α/β when it emits each op and propagates over a dense
// piece × rank table (DESIGN.md §4k); it must emit exactly the same schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/collective.h"
#include "core/merge.h"
#include "core/subdemand.h"
#include "sketch/alltoall.h"
#include "solver/greedy.h"
#include "solver/tau.h"
#include "topo/builders.h"
#include "topo/mutate.h"

namespace syccl::core {
namespace {

// ---- Original forward merge, kept verbatim as the reference. ----

void seed_reorder_by_estimated_start(sim::Schedule& s, const topo::TopologyGroups& groups) {
  std::map<std::pair<int, int>, double> avail;
  for (std::size_t pi = 0; pi < s.pieces.size(); ++pi) {
    const sim::Piece& p = s.pieces[pi];
    if (p.reduce) {
      for (int c : p.contributors) avail[{static_cast<int>(pi), c}] = 0.0;
    } else if (p.origin >= 0) {
      avail[{static_cast<int>(pi), p.origin}] = 0.0;
    }
  }
  std::vector<double> key(s.ops.size(), 0.0);
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const sim::TransferOp& op = s.ops[i];
    const int dim = op.dim >= 0 ? op.dim : groups.best_common_dim(op.src, op.dst);
    if (dim < 0) continue;  // leave key 0; the simulator will reject later
    const auto& gt =
        groups.group(dim, groups.group_of[static_cast<std::size_t>(dim)]
                                         [static_cast<std::size_t>(op.src)]);
    const int ls = gt.local_of(op.src);
    const int ld = gt.local_of(op.dst);
    const auto it = avail.find({op.piece, op.src});
    const double t0 = it != avail.end() ? it->second : 0.0;
    const double arrival = t0 + gt.pair_alpha(ls, ld) +
                           gt.pair_beta(ls, ld) * s.pieces[static_cast<std::size_t>(op.piece)].bytes;
    key[i] = t0;
    auto [dit, inserted] = avail.try_emplace({op.piece, op.dst}, arrival);
    if (!inserted) {
      if (s.pieces[static_cast<std::size_t>(op.piece)].reduce) {
        dit->second = std::max(dit->second, arrival);
      } else {
        dit->second = std::min(dit->second, arrival);
      }
    }
  }
  std::vector<std::size_t> idx(s.ops.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (s.ops[a].phase != s.ops[b].phase) return s.ops[a].phase < s.ops[b].phase;
    return key[a] < key[b];
  });
  std::vector<sim::TransferOp> reordered;
  reordered.reserve(s.ops.size());
  for (std::size_t i : idx) reordered.push_back(s.ops[i]);
  s.ops = std::move(reordered);
}

sim::Schedule seed_merge_schedule(const DemandPlan& plan,
                                  const std::vector<solver::SubSchedule>& solved,
                                  const topo::TopologyGroups& groups, std::string name) {
  if (solved.size() != plan.demands.size()) {
    throw std::invalid_argument("solved sub-schedule count mismatch");
  }

  struct GlobalOp {
    int stage;
    int epoch;
    int demand_index;
    int order;  // original op index, for stable tie-break
    sim::TransferOp op;
  };
  std::vector<GlobalOp> ops;

  for (std::size_t di = 0; di < plan.demands.size(); ++di) {
    const MergedSubDemand& md = plan.demands[di];
    const topo::GroupTopology& gt = groups.group(md.dim, md.group);
    const solver::SubSchedule& ss = solved[di];
    for (std::size_t oi = 0; oi < ss.ops.size(); ++oi) {
      const solver::SubOp& so = ss.ops[oi];
      if (so.piece < 0 || static_cast<std::size_t>(so.piece) >= md.global_piece.size()) {
        throw std::invalid_argument("sub-op references unknown demand piece");
      }
      sim::TransferOp top;
      top.piece = md.global_piece[static_cast<std::size_t>(so.piece)];
      top.src = gt.ranks[static_cast<std::size_t>(so.src)];
      top.dst = gt.ranks[static_cast<std::size_t>(so.dst)];
      top.dim = md.dim;
      top.phase = 0;
      ops.push_back(GlobalOp{md.stage, so.start_epoch, static_cast<int>(di),
                             static_cast<int>(oi), top});
    }
  }

  std::stable_sort(ops.begin(), ops.end(), [&](const GlobalOp& a, const GlobalOp& b) {
    if (a.stage != b.stage) return a.stage < b.stage;
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    if (a.demand_index != b.demand_index) return a.demand_index < b.demand_index;
    return a.order < b.order;
  });

  sim::Schedule out;
  out.name = std::move(name);
  out.pieces = plan.pieces;
  for (const auto& g : ops) out.ops.push_back(g.op);
  seed_reorder_by_estimated_start(out, groups);
  return out;
}

// ---- Helpers. ----

void expect_same_schedule(const sim::Schedule& got, const sim::Schedule& want) {
  ASSERT_EQ(got.name, want.name);
  ASSERT_EQ(got.pieces.size(), want.pieces.size());
  for (std::size_t i = 0; i < want.pieces.size(); ++i) {
    const sim::Piece& a = got.pieces[i];
    const sim::Piece& b = want.pieces[i];
    ASSERT_TRUE(a.chunk == b.chunk && a.bytes == b.bytes && a.origin == b.origin &&
                a.reduce == b.reduce && a.contributors == b.contributors)
        << "piece " << i;
  }
  ASSERT_EQ(got.ops.size(), want.ops.size());
  for (std::size_t i = 0; i < want.ops.size(); ++i) {
    const sim::TransferOp& a = got.ops[i];
    const sim::TransferOp& b = want.ops[i];
    ASSERT_TRUE(a.piece == b.piece && a.src == b.src && a.dst == b.dst && a.dim == b.dim &&
                a.phase == b.phase)
        << "op " << i;
  }
}

std::vector<solver::SubSchedule> greedy_solutions(const DemandPlan& plan, double E) {
  std::vector<solver::SubSchedule> solved;
  solved.reserve(plan.demands.size());
  for (const auto& md : plan.demands) {
    const auto ep = solver::derive_epoch_params(*md.demand.group, md.demand.piece_bytes, E);
    solved.push_back(solver::solve_greedy(md.demand, ep));
  }
  return solved;
}

topo::Topology degraded_dgx16() {
  const topo::Topology base = topo::build_h800_cluster(2);
  const topo::Link& l = base.links().front();
  return topo::degrade_duplex(base, l.src, l.dst, 8.0, 8.0).topo;
}

/// One direction only: the member's up port slows, its down port does not,
/// so pair α/β depend on which end sends.
topo::Topology uplink_degraded_dgx16() {
  const topo::Topology base = topo::build_h800_cluster(2);
  const topo::Link& l = base.links().front();
  return topo::degrade_link(base, l.src, l.dst, 8.0, 4.0).topo;
}

struct Fabric {
  std::string name;
  topo::Topology topo;
};

std::vector<Fabric> fabrics() {
  std::vector<Fabric> out;
  out.push_back({"dgx16", topo::build_h800_cluster(2)});
  out.push_back({"a100x16", topo::build_a100_testbed(16)});
  out.push_back({"h800x8", topo::build_h800_cluster(8)});
  out.push_back({"dgx16@degraded", degraded_dgx16()});
  out.push_back({"dgx16@uplink", uplink_degraded_dgx16()});
  return out;
}

/// Combinations that stay cheap to solve: the first two (single-family)
/// candidates and the last two (integrated across families, when any).
std::vector<sketch::SketchCombination> some_combos(
    const std::vector<sketch::SketchCombination>& combos) {
  if (combos.size() <= 4) return combos;
  return {combos[0], combos[1], combos[combos.size() - 2], combos.back()};
}

// ---- Tests. ----

TEST(MergeDifferential, MatchesSeedMergeOnRealPlans) {
  int plans = 0, multi_sketch = 0;
  for (const Fabric& f : fabrics()) {
    const topo::TopologyGroups groups = topo::extract_groups(f.topo);
    const int n = static_cast<int>(f.topo.num_gpus());
    struct Case {
      const char* what;
      std::vector<sketch::SketchCombination> combos;
      coll::Collective coll;
    };
    std::vector<Case> cases;
    cases.push_back({"allgather",
                     sketch::generate_alltoall_combinations(groups,
                                                            sketch::RootedPattern::Broadcast),
                     coll::make_allgather(n, 1 << 20)});
    cases.push_back({"broadcast",
                     sketch::generate_rooted_combinations(groups, 0,
                                                          sketch::RootedPattern::Broadcast),
                     coll::make_broadcast(n, 1 << 20, 0)});
    cases.push_back({"scatter",
                     sketch::generate_rooted_combinations(groups, 0,
                                                          sketch::RootedPattern::Scatter),
                     coll::make_scatter(n, 1 << 20, 0)});
    if (n <= 16) {
      cases.push_back({"alltoall",
                       sketch::generate_alltoall_combinations(groups,
                                                              sketch::RootedPattern::Scatter),
                       coll::make_alltoall(n, 1 << 20)});
    }
    for (const Case& c : cases) {
      ASSERT_FALSE(c.combos.empty()) << f.name << " " << c.what;
      for (const auto& combo : some_combos(c.combos)) {
        const DemandPlan plan = build_demand_plan(combo, c.coll, groups);
        // Integrated combinations split each chunk across sketch families.
        multi_sketch += std::any_of(combo.sketches.begin(), combo.sketches.end(),
                                    [](const auto& ws) { return ws.fraction < 1.0 - 1e-9; })
                            ? 1
                            : 0;
        for (const double E : {0.5, 1.0, 3.0}) {
          SCOPED_TRACE(f.name + " " + c.what + " " + combo.describe() +
                       " E=" + std::to_string(E));
          const auto solved = greedy_solutions(plan, E);
          expect_same_schedule(merge_schedule(plan, solved, groups, "m"),
                               seed_merge_schedule(plan, solved, groups, "m"));
          ++plans;
        }
      }
    }
  }
  EXPECT_GT(plans, 100);
  EXPECT_GT(multi_sketch, 4);
}

TEST(MergeDifferential, MatchesSeedMergeOnShuffledSubSchedules) {
  constexpr int kCases = 120;
  std::vector<Fabric> fabs;
  fabs.push_back({"dgx16", topo::build_h800_cluster(2)});
  fabs.push_back({"a100x16", topo::build_a100_testbed(16)});
  fabs.push_back({"dgx16@uplink", uplink_degraded_dgx16()});
  std::vector<topo::TopologyGroups> groups_of;
  // combos[fabric][pattern]: 0 = Broadcast (AllGather), 1 = Scatter (AllToAll).
  std::vector<sketch::SketchCombination> combos[3][2];
  for (std::size_t f = 0; f < fabs.size(); ++f) {
    groups_of.push_back(topo::extract_groups(fabs[f].topo));
    combos[f][0] =
        sketch::generate_alltoall_combinations(groups_of[f], sketch::RootedPattern::Broadcast);
    combos[f][1] =
        sketch::generate_alltoall_combinations(groups_of[f], sketch::RootedPattern::Scatter);
  }
  int cross_demand_ties = 0, reduce_cases = 0, extra_op_cases = 0;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    std::mt19937 rng(static_cast<unsigned>(c) * 2654435761u + 5u);
    const std::size_t f = static_cast<std::size_t>(c) % fabs.size();
    const topo::TopologyGroups& groups = groups_of[f];
    const bool a2a = c % 4 == 1;
    const auto& candidates = combos[f][a2a ? 1 : 0];
    const auto& combo = candidates[rng() % candidates.size()];
    const coll::Collective coll =
        a2a ? coll::make_alltoall(16, 1 << 16) : coll::make_allgather(16, 1 << 16);
    DemandPlan plan = build_demand_plan(combo, coll, groups);
    std::vector<solver::SubSchedule> solved = greedy_solutions(plan, c % 5 == 0 ? 0.5 : 3.0);

    // Extra random sends: pieces delivered twice (availability then merges
    // by min or max) and sent back to their origin.
    if (rng() % 2 == 0) {
      ++extra_op_cases;
      for (int k = 0; k < 40; ++k) {
        const std::size_t di = rng() % plan.demands.size();
        const MergedSubDemand& md = plan.demands[di];
        const int members = md.demand.group->size();
        const int src = static_cast<int>(rng() % static_cast<unsigned>(members));
        const int dst = (src + 1 + static_cast<int>(rng() % static_cast<unsigned>(members - 1))) %
                        members;
        const int piece = static_cast<int>(rng() % md.global_piece.size());
        solved[di].ops.push_back(solver::SubOp{piece, src, dst, static_cast<int>(rng() % 8)});
      }
    }
    // Squeeze epochs into a few values so ops of many demands share a
    // (stage, epoch) bucket, shift them off zero (sometimes below it), and
    // shuffle every sub-schedule's op order.
    const int epochs = 1 + static_cast<int>(rng() % 4);
    const int shift = static_cast<int>(rng() % 7) - 2;
    for (auto& ss : solved) {
      for (auto& op : ss.ops) op.start_epoch = static_cast<int>(rng() % epochs) + shift;
      std::shuffle(ss.ops.begin(), ss.ops.end(), rng);
    }
    // Relabel stages out of order, so demand order no longer follows stage.
    if (rng() % 2 == 0) {
      for (auto& md : plan.demands) md.stage = static_cast<int>(rng() % 3);
    }
    // Turn some pieces into reduce pieces: availability then merges by max
    // and is seeded on every contributor.
    if (rng() % 3 == 0) {
      ++reduce_cases;
      for (auto& p : plan.pieces) {
        if (rng() % 2 != 0) continue;
        p.reduce = true;
        p.origin = -1;
        p.contributors.clear();
        for (int r = 0; r < 16; ++r) {
          if (rng() % 3 == 0) p.contributors.push_back(r);
        }
      }
    }
    // Buckets holding ops of several demands exercise the demand-index
    // tie-break.
    std::map<std::pair<int, int>, std::set<std::size_t>> demands_in_bucket;
    for (std::size_t di = 0; di < plan.demands.size(); ++di) {
      for (const auto& op : solved[di].ops) {
        demands_in_bucket[{plan.demands[di].stage, op.start_epoch}].insert(di);
      }
    }
    for (const auto& [bucket, ds] : demands_in_bucket) cross_demand_ties += ds.size() > 1 ? 1 : 0;

    expect_same_schedule(merge_schedule(plan, solved, groups, "shuffled"),
                         seed_merge_schedule(plan, solved, groups, "shuffled"));
  }
  EXPECT_GT(cross_demand_ties, kCases);
  EXPECT_GT(reduce_cases, 20);
  EXPECT_GT(extra_op_cases, 20);
}

TEST(MergeDifferential, RejectsUnknownPieceLikeSeed) {
  const topo::Topology t = topo::build_h800_cluster(2);
  const topo::TopologyGroups groups = topo::extract_groups(t);
  const auto combos =
      sketch::generate_alltoall_combinations(groups, sketch::RootedPattern::Broadcast);
  const DemandPlan plan = build_demand_plan(combos.front(), coll::make_allgather(16, 1 << 20),
                                            groups);
  std::vector<solver::SubSchedule> solved = greedy_solutions(plan, 3.0);
  solved.back().ops.push_back(solver::SubOp{
      static_cast<int>(plan.demands.back().global_piece.size()), 0, 1, 0});
  EXPECT_THROW(seed_merge_schedule(plan, solved, groups, "x"), std::invalid_argument);
  EXPECT_THROW(merge_schedule(plan, solved, groups, "x"), std::invalid_argument);
}

// The merge emits α/β from the demand's own local indices, which equals the
// old per-op re-derivation (group_of + two local_of binary searches) only if
// every group lists its ranks strictly ascending and group_of points back at
// the group.
void expect_groups_ascending(const std::string& name, const topo::Topology& t) {
  SCOPED_TRACE(name);
  const topo::TopologyGroups groups = topo::extract_groups(t);
  ASSERT_GT(groups.num_dims(), 0);
  for (int d = 0; d < groups.num_dims(); ++d) {
    const auto& dim = groups.dims[static_cast<std::size_t>(d)];
    for (std::size_t g = 0; g < dim.groups.size(); ++g) {
      const topo::GroupTopology& gt = dim.groups[g];
      for (std::size_t i = 0; i < gt.ranks.size(); ++i) {
        if (i > 0) {
          ASSERT_LT(gt.ranks[i - 1], gt.ranks[i]) << "dim " << d << " group " << g;
        }
        ASSERT_EQ(gt.local_of(gt.ranks[i]), static_cast<int>(i));
        ASSERT_EQ(groups.group_of[static_cast<std::size_t>(d)]
                                 [static_cast<std::size_t>(gt.ranks[i])],
                  static_cast<int>(g));
      }
    }
  }
}

TEST(MergeDifferential, GroupRanksStrictlyIncreasingOnEveryFabric) {
  std::vector<Fabric> all;
  all.push_back({"single_server8", topo::build_single_server(8)});
  all.push_back({"multi_rail", topo::build_multi_rail({})});
  all.push_back({"clos", topo::build_clos({})});
  all.push_back({"a100x16", topo::build_a100_testbed(16)});
  all.push_back({"a100x32", topo::build_a100_testbed(32)});
  all.push_back({"h800x1", topo::build_h800_cluster(1)});
  all.push_back({"dgx16", topo::build_h800_cluster(2)});
  all.push_back({"h800x8", topo::build_h800_cluster(8)});
  all.push_back({"micro", topo::build_microbench_cluster()});
  all.push_back({"fig19", topo::build_fig19_topology()});
  all.push_back({"fig20", topo::build_fig20_topology()});
  all.push_back({"flat8", topo::build_flat_switch(8)});
  const std::size_t builders = all.size();
  for (std::size_t b = 0; b < builders; ++b) {
    // Copies: push_back below may reallocate `all`.
    const topo::Topology base = all[b].topo;
    const std::string name = all[b].name;
    // Degrade the first, a middle and the last duplex link.
    for (const std::size_t li : {std::size_t{0}, base.num_links() / 2, base.num_links() - 1}) {
      const topo::Link& l = base.links()[li];
      all.push_back({name + "@degrade" + std::to_string(li),
                     topo::degrade_duplex(base, l.src, l.dst, 4.0, 8.0).topo});
    }
    // Fail the first NIC whose loss keeps the fabric connected.
    for (const topo::Node& node : base.nodes()) {
      if (node.kind != topo::NodeKind::Nic) continue;
      try {
        all.push_back({name + "@failnic", topo::fail_nic(base, node.id).topo});
        break;
      } catch (const std::exception&) {
      }
    }
  }
  EXPECT_GT(all.size(), 4 * builders);
  for (const Fabric& f : all) expect_groups_ascending(f.name, f.topo);
}

}  // namespace
}  // namespace syccl::core
