// Equality test of cross-dimension combination generation against a verbatim
// copy of its original, copying implementation: generate_combinations copied
// every subset's member combinations and allocate_across_dims recomputed
// their workloads for every subset. The production code computes each
// balanced combination's capacity-dimension workload once and passes subsets
// by pointer (DESIGN.md §4l), and emits each distinct combination once
// (DESIGN.md §4m): the original emitted a subset whose allocation dropped a
// member below min_fraction as a second copy of a smaller subset's
// combination. The production output must be the original's, in the same
// order and with bit-identical fractions, with every later bit-identical
// copy removed; the max_outputs cap still cuts at the same subset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "lp/simplex.h"
#include "sketch/alltoall.h"
#include "sketch/combine.h"
#include "sketch/replicate.h"
#include "sketch/search.h"
#include "topo/builders.h"
#include "topo/groups.h"

#include "sketch_equality.h"

namespace syccl::sketch {
namespace {

// ---- Original combination generation, kept verbatim as the reference. ----

std::optional<std::pair<std::vector<double>, double>> seed_solve_allocation(
    const std::vector<std::vector<double>>& W, const std::vector<double>& u) {
  const int k = static_cast<int>(W.size());
  const int nd = static_cast<int>(u.size());

  lp::Problem p;
  std::vector<int> t_vars;
  for (int i = 0; i < k; ++i) t_vars.push_back(p.add_var(0.0, 1.0, 0.0));
  // Deviation variables per dimension: e_d ≥ |Σ_i t_i (W_id − u_d W_i·)|.
  std::vector<int> e_vars;
  for (int d = 0; d < nd; ++d) e_vars.push_back(p.add_var(0.0, lp::kInf, 1.0));

  lp::Constraint norm;
  for (int i = 0; i < k; ++i) norm.terms.push_back({t_vars[static_cast<std::size_t>(i)], 1.0});
  norm.rel = lp::Relation::Eq;
  norm.rhs = 1.0;
  p.add_constraint(norm);

  for (int d = 0; d < nd; ++d) {
    lp::Constraint up, down;
    for (int i = 0; i < k; ++i) {
      double wi_total = 0.0;
      for (double w : W[static_cast<std::size_t>(i)]) wi_total += w;
      const double coef = W[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] -
                          u[static_cast<std::size_t>(d)] * wi_total;
      up.terms.push_back({t_vars[static_cast<std::size_t>(i)], coef});
      down.terms.push_back({t_vars[static_cast<std::size_t>(i)], -coef});
    }
    up.terms.push_back({e_vars[static_cast<std::size_t>(d)], -1.0});
    down.terms.push_back({e_vars[static_cast<std::size_t>(d)], -1.0});
    up.rel = down.rel = lp::Relation::LessEq;
    up.rhs = down.rhs = 0.0;
    p.add_constraint(up);
    p.add_constraint(down);
  }

  const lp::Solution sol = lp::solve(p);
  if (sol.status != lp::Status::Optimal) return std::nullopt;

  std::vector<double> t(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) t[static_cast<std::size_t>(i)] = sol.x[static_cast<std::size_t>(i)];

  // Worst relative share error given the solution.
  double total = 0.0;
  std::vector<double> share(static_cast<std::size_t>(nd), 0.0);
  for (int i = 0; i < k; ++i) {
    for (int d = 0; d < nd; ++d) {
      share[static_cast<std::size_t>(d)] +=
          t[static_cast<std::size_t>(i)] * W[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
    }
  }
  for (double s : share) total += s;
  double worst = 0.0;
  if (total > 0) {
    for (int d = 0; d < nd; ++d) {
      worst = std::max(worst,
                       std::fabs(share[static_cast<std::size_t>(d)] / total -
                                 u[static_cast<std::size_t>(d)]));
    }
  }
  return std::make_pair(std::move(t), worst);
}

std::optional<SketchCombination> seed_allocate_across_dims(
    const std::vector<SketchCombination>& candidates, const topo::TopologyGroups& groups,
    const CombineConfig& config) {
  if (candidates.empty()) return std::nullopt;

  // Aggregate workloads and shares by capacity dimension: tiers that ride
  // on another tier's physical ports (e.g. the spine over the rail NICs)
  // compete for the same capacity.
  const int nd = groups.num_dims();
  std::vector<std::vector<double>> W;
  for (const auto& c : candidates) {
    const auto raw = c.dim_workload(groups);
    std::vector<double> agg(static_cast<std::size_t>(nd), 0.0);
    for (int d = 0; d < nd; ++d) {
      agg[static_cast<std::size_t>(groups.dims[static_cast<std::size_t>(d)].capacity_dim)] +=
          raw[static_cast<std::size_t>(d)];
    }
    W.push_back(std::move(agg));
  }
  std::vector<double> u(static_cast<std::size_t>(nd), 0.0);
  for (int d = 0; d < nd; ++d) {
    u[static_cast<std::size_t>(groups.dims[static_cast<std::size_t>(d)].capacity_dim)] +=
        groups.dims[static_cast<std::size_t>(d)].bandwidth_share;
  }

  // Restrict the share targets to dimensions any candidate actually uses;
  // unused dimensions cannot be saturated by these sketches at all.
  double used_share = 0.0;
  std::vector<bool> used(u.size(), false);
  for (std::size_t d = 0; d < u.size(); ++d) {
    for (const auto& w : W) {
      if (w[d] > 1e-12) used[d] = true;
    }
    if (used[d]) used_share += u[d];
  }
  if (used_share <= 0) return std::nullopt;
  for (std::size_t d = 0; d < u.size(); ++d) u[d] = used[d] ? u[d] / used_share : 0.0;

  const auto alloc = seed_solve_allocation(W, u);
  if (!alloc.has_value()) return std::nullopt;
  const auto& [t, err] = *alloc;
  if (err > config.max_share_error) return std::nullopt;

  SketchCombination out;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (t[i] < config.min_fraction) continue;
    for (const auto& ws : candidates[i].sketches) {
      out.sketches.push_back(WeightedSketch{ws.sketch, ws.fraction * t[i]});
    }
  }
  if (out.sketches.empty()) return std::nullopt;
  return out;
}

std::vector<SketchCombination> seed_generate_combinations(
    const std::vector<SketchCombination>& balanced, const topo::TopologyGroups& groups,
    const CombineConfig& config) {
  std::vector<SketchCombination> out;

  // Small-size candidates: each balanced combination on its own (§4.2: "for
  // small chunk sizes, a single sketch suffices").
  for (const auto& c : balanced) {
    out.push_back(c);
    if (static_cast<int>(out.size()) >= config.max_outputs) return out;
  }

  // Large-size candidates: integrate subsets (size 2..|D|) across dimensions.
  const int nd = groups.num_dims();
  const int n = static_cast<int>(balanced.size());
  for (int mask = 1; mask < (1 << std::min(n, 16)); ++mask) {
    const int bits = __builtin_popcount(static_cast<unsigned>(mask));
    if (bits < 2 || bits > nd) continue;
    std::vector<SketchCombination> subset;
    for (int i = 0; i < std::min(n, 16); ++i) {
      if (mask & (1 << i)) subset.push_back(balanced[static_cast<std::size_t>(i)]);
    }
    const auto merged = seed_allocate_across_dims(subset, groups, config);
    if (merged.has_value()) {
      out.push_back(*merged);
      if (static_cast<int>(out.size()) >= config.max_outputs) break;
    }
  }
  return out;
}

// ---- Helpers. ----

void expect_same_combinations(const std::vector<SketchCombination>& got,
                              const std::vector<SketchCombination>& want,
                              const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t c = 0; c < want.size(); ++c) {
    expect_same_combination(got[c], want[c], where + " combination " + std::to_string(c));
  }
}

/// `all` with every combination that is bit-identical to an earlier one
/// removed, order kept.
std::vector<SketchCombination> without_later_copies(const std::vector<SketchCombination>& all) {
  std::vector<SketchCombination> out;
  for (const auto& c : all) {
    const bool copy = std::any_of(out.begin(), out.end(), [&](const SketchCombination& kept) {
      return identical_combinations(kept, c);
    });
    if (!copy) out.push_back(c);
  }
  return out;
}

/// The balanced all-root families the synthesizer integrates for an
/// all-to-all collective of `pattern`: search at rank 0, select prototypes,
/// balance and replicate each onto every root.
std::vector<SketchCombination> all_root_families(const topo::TopologyGroups& groups,
                                                 RootedPattern pattern) {
  const AllToAllConfig config;
  const auto sketches = search_sketches(groups, 0, pattern, config.search);
  std::vector<SketchCombination> balanced;
  for (const auto& proto : select_prototypes(sketches, groups, config.max_prototypes)) {
    try {
      balanced.push_back(replicate_for_all_roots(balance_across_groups(proto, groups), groups));
    } catch (const std::runtime_error&) {
    }
  }
  return balanced;
}

/// `copies`: how many of the original's combinations repeat an earlier one.
/// `integrates`: whether any subset of the families integrates across
/// dimensions on this fabric (on dgx16 and a100x16 no AllToAll subset does).
void check(const std::string& name, const topo::Topology& topo, RootedPattern pattern,
           int copies, bool integrates = true) {
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  const auto balanced = all_root_families(groups, pattern);
  ASSERT_GE(balanced.size(), 2u) << name;
  const CombineConfig config;
  const auto seed = seed_generate_combinations(balanced, groups, config);
  int duplicates = -1;
  const auto got = generate_combinations(balanced, groups, config, &duplicates);
  EXPECT_EQ(seed.size() > balanced.size(), integrates) << name;
  const auto want = without_later_copies(seed);
  expect_same_combinations(got, want, name);
  EXPECT_EQ(seed.size() - want.size(), static_cast<std::size_t>(copies)) << name;
  EXPECT_EQ(duplicates, copies) << name;

  // A tight output cap cuts both at the same subset: copies count against it.
  CombineConfig capped = config;
  capped.max_outputs = static_cast<int>(balanced.size()) + 1;
  expect_same_combinations(
      generate_combinations(balanced, groups, capped),
      without_later_copies(seed_generate_combinations(balanced, groups, capped)), name + " capped");
  // So does a cap right after the original's first copy (the original's
  // capped output is a prefix of its uncapped one).
  for (std::size_t c = 1; c < seed.size(); ++c) {
    const std::vector<SketchCombination> prefix(
        seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(c) + 1);
    const auto kept = without_later_copies(prefix);
    if (kept.size() < prefix.size()) {
      capped.max_outputs = static_cast<int>(prefix.size());
      expect_same_combinations(generate_combinations(balanced, groups, capped), kept,
                               name + " capped after first copy");
      break;
    }
  }

  // The public single-subset entry point agrees too.
  const std::vector<SketchCombination> pair{balanced[0], balanced[1]};
  const auto got_pair = allocate_across_dims(pair, groups, config);
  const auto want_pair = seed_allocate_across_dims(pair, groups, config);
  ASSERT_EQ(got_pair.has_value(), want_pair.has_value()) << name;
  if (got_pair.has_value()) {
    expect_same_combinations({*got_pair}, {*want_pair}, name + " pair");
  }
}

// ---- Tests. ----

TEST(CombineEquality, Dgx16AllGather) {
  check("dgx16 allgather", topo::build_h800_cluster(2), RootedPattern::Broadcast, 9);
}

TEST(CombineEquality, Dgx16AllToAll) {
  check("dgx16 alltoall", topo::build_h800_cluster(2), RootedPattern::Scatter, 0, false);
}

TEST(CombineEquality, A100x16AllGather) {
  check("a100x16 allgather", topo::build_a100_testbed(16), RootedPattern::Broadcast, 5);
}

TEST(CombineEquality, A100x16AllToAll) {
  check("a100x16 alltoall", topo::build_a100_testbed(16), RootedPattern::Scatter, 0, false);
}

TEST(CombineEquality, H800x8AllGather) {
  check("h800x8 allgather", topo::build_h800_cluster(8), RootedPattern::Broadcast, 10);
}

TEST(CombineEquality, H800x8AllToAll) {
  check("h800x8 alltoall", topo::build_h800_cluster(8), RootedPattern::Scatter, 4);
}

TEST(CombineEquality, H800x64AllGather) {
  check("h800x64 allgather", topo::build_h800_cluster(64), RootedPattern::Broadcast, 10);
}

TEST(CombineEquality, H800x64AllToAll) {
  check("h800x64 alltoall", topo::build_h800_cluster(64), RootedPattern::Scatter, 4);
}

/// No two combinations generate_combinations emits are bit-identical.
void expect_distinct(const std::string& name, const topo::Topology& topo,
                     RootedPattern pattern) {
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  const auto combos = generate_combinations(all_root_families(groups, pattern), groups);
  ASSERT_FALSE(combos.empty()) << name;
  for (std::size_t a = 0; a < combos.size(); ++a) {
    for (std::size_t b = a + 1; b < combos.size(); ++b) {
      EXPECT_FALSE(identical_combinations(combos[a], combos[b]))
          << name << ": combinations " << a << " and " << b << " are identical";
    }
  }
}

TEST(CombineDistinct, Dgx16) {
  expect_distinct("dgx16 allgather", topo::build_h800_cluster(2), RootedPattern::Broadcast);
  expect_distinct("dgx16 alltoall", topo::build_h800_cluster(2), RootedPattern::Scatter);
}

TEST(CombineDistinct, A100x16) {
  expect_distinct("a100x16 allgather", topo::build_a100_testbed(16), RootedPattern::Broadcast);
  expect_distinct("a100x16 alltoall", topo::build_a100_testbed(16), RootedPattern::Scatter);
}

TEST(CombineDistinct, A100x32) {
  expect_distinct("a100x32 allgather", topo::build_a100_testbed(32), RootedPattern::Broadcast);
  expect_distinct("a100x32 alltoall", topo::build_a100_testbed(32), RootedPattern::Scatter);
}

TEST(CombineDistinct, H800x8) {
  expect_distinct("h800x8 allgather", topo::build_h800_cluster(8), RootedPattern::Broadcast);
  expect_distinct("h800x8 alltoall", topo::build_h800_cluster(8), RootedPattern::Scatter);
}

TEST(CombineDistinct, H800x64) {
  expect_distinct("h800x64 allgather", topo::build_h800_cluster(64), RootedPattern::Broadcast);
  expect_distinct("h800x64 alltoall", topo::build_h800_cluster(64), RootedPattern::Scatter);
}

}  // namespace
}  // namespace syccl::sketch
