// Differential test of all-root sketch replication against verbatim copies of
// its original implementation: rotate_sketch rebuilt the hierarchical digit
// coordinates (nested-level detection, std::map digit tables and a
// std::map<std::vector<int>, int> rank lookup) for every (sketch, root) pair,
// and replicate_for_all_roots accumulated a WorkloadState eagerly. The
// production code builds the coordinates once per call as a mixed-radix
// index → rank table, rotates through one rank permutation per root and
// builds the workload state only when a rotation first fails (DESIGN.md §4l).
// Both must emit exactly the same replicas.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sketch/alltoall.h"
#include "sketch/replicate.h"
#include "sketch/search.h"
#include "topo/builders.h"
#include "topo/groups.h"
#include "topo/mutate.h"

#include "sketch_equality.h"

namespace syccl::sketch {
namespace {

// ---- Original rotation and all-root replication, kept verbatim as the
// reference. ----

std::optional<Sketch> seed_rotate_sketch(const Sketch& sketch, const topo::TopologyGroups& groups,
                                         int new_root) {
  const int num_ranks = static_cast<int>(groups.group_of.front().size());

  // Build hierarchical coordinates: digit 0 is the position inside the
  // dim-0 group; every higher dimension that *nests* the previous level
  // (Clos pods contain whole servers) adds a digit. Dimensions that cross
  // servers (rails) are implied by digit 0 and add nothing. Rotating each
  // digit independently is an automorphism of the whole tier structure.
  const auto& servers = groups.dims.front().groups;
  const int per_server = servers.front().size();
  for (const auto& sv : servers) {
    if (sv.size() != per_server) return std::nullopt;  // irregular topology
  }

  struct Level {
    int dim;
    int fanout;  // children per unit at this level
  };

  // Detect nested dimensions and their fanouts by replaying the hierarchy:
  // `cur[r]` is rank r's unit id at the current level (starts at its dim-0
  // group). A dimension d nests when every unit lies inside one dim-d group.
  std::vector<Level> levels;
  {
    std::vector<int> cur(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      cur[static_cast<std::size_t>(r)] = groups.group_of[0][static_cast<std::size_t>(r)];
    }
    int num_units = static_cast<int>(servers.size());
    for (int d = 1; d < groups.num_dims(); ++d) {
      const auto& gd = groups.group_of[static_cast<std::size_t>(d)];
      std::vector<int> unit_group(static_cast<std::size_t>(num_units), -2);
      bool nested = true;
      for (int r = 0; r < num_ranks && nested; ++r) {
        int& ug = unit_group[static_cast<std::size_t>(cur[static_cast<std::size_t>(r)])];
        const int g = gd[static_cast<std::size_t>(r)];
        if (ug == -2) {
          ug = g;
        } else if (ug != g) {
          nested = false;
        }
      }
      if (!nested) continue;
      std::map<int, std::vector<int>> members;  // dim-d group -> unit ids
      for (int u = 0; u < num_units; ++u) {
        members[unit_group[static_cast<std::size_t>(u)]].push_back(u);
      }
      const int fanout = static_cast<int>(members.begin()->second.size());
      for (const auto& [g, us] : members) {
        (void)g;
        if (static_cast<int>(us.size()) != fanout) return std::nullopt;
      }
      // Renumber units to dim-d groups.
      std::map<int, int> group_id;
      for (const auto& [g, us] : members) {
        (void)us;
        group_id.emplace(g, static_cast<int>(group_id.size()));
      }
      for (int r = 0; r < num_ranks; ++r) {
        cur[static_cast<std::size_t>(r)] = group_id.at(gd[static_cast<std::size_t>(r)]);
      }
      num_units = static_cast<int>(group_id.size());
      if (fanout > 1) levels.push_back(Level{d, fanout});
    }
  }

  // Compute full digit vectors directly per rank.
  std::vector<std::vector<int>> digits(static_cast<std::size_t>(num_ranks));
  {
    std::vector<int> u2(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      const int s0 = groups.group_of[0][static_cast<std::size_t>(r)];
      digits[static_cast<std::size_t>(r)].push_back(
          servers[static_cast<std::size_t>(s0)].local_of(r));
      u2[static_cast<std::size_t>(r)] = s0;
    }
    // Recompute level digits rank-wise by replaying the nesting.
    std::vector<int> cur = u2;
    int n_units = static_cast<int>(servers.size());
    std::size_t level_idx = 0;
    for (int d = 1; d < groups.num_dims() && level_idx < levels.size(); ++d) {
      if (levels[level_idx].dim != d) continue;
      const auto& gd = groups.group_of[static_cast<std::size_t>(d)];
      std::map<int, std::map<int, int>> digit_of;  // dim-d group -> unit -> digit
      std::map<int, int> group_id;
      for (int r = 0; r < num_ranks; ++r) {
        const int g = gd[static_cast<std::size_t>(r)];
        auto& m = digit_of[g];
        m.emplace(cur[static_cast<std::size_t>(r)], static_cast<int>(m.size()));
      }
      int next = 0;
      for (auto& [g, m] : digit_of) {
        (void)m;
        group_id.emplace(g, next++);
      }
      for (int r = 0; r < num_ranks; ++r) {
        const int g = gd[static_cast<std::size_t>(r)];
        digits[static_cast<std::size_t>(r)].push_back(
            digit_of[g][cur[static_cast<std::size_t>(r)]]);
        cur[static_cast<std::size_t>(r)] = group_id[g];
      }
      n_units = next;
      (void)n_units;
      ++level_idx;
    }
  }
  std::vector<int> sizes;
  sizes.push_back(per_server);
  for (const auto& l : levels) sizes.push_back(l.fanout);

  std::map<std::vector<int>, int> rank_of;
  for (int r = 0; r < num_ranks; ++r) rank_of[digits[static_cast<std::size_t>(r)]] = r;

  const auto& c0 = digits[static_cast<std::size_t>(sketch.root)];
  const auto& c1 = digits[static_cast<std::size_t>(new_root)];
  std::vector<int> delta(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    delta[i] = ((c1[i] - c0[i]) % sizes[i] + sizes[i]) % sizes[i];
  }
  auto F = [&](int rank) {
    std::vector<int> c = digits[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < sizes.size(); ++i) c[i] = (c[i] + delta[i]) % sizes[i];
    return rank_of.at(c);
  };

  Sketch out;
  out.root = new_root;
  out.pattern = sketch.pattern;
  out.parent.assign(static_cast<std::size_t>(num_ranks), -1);
  for (const Stage& st : sketch.stages) {
    Stage mapped;
    for (const SubDemandSpec& r : st.demands) {
      SubDemandSpec m;
      m.dim = r.dim;
      for (int x : r.srcs) m.srcs.push_back(F(x));
      for (int x : r.dsts) m.dsts.push_back(F(x));
      const auto& gd = groups.group_of[static_cast<std::size_t>(r.dim)];
      m.group = gd[static_cast<std::size_t>(m.srcs.front())];
      if (m.group < 0) return std::nullopt;  // rotated onto an uncovered rank
      for (int x : m.srcs) {
        if (gd[static_cast<std::size_t>(x)] != m.group) return std::nullopt;
      }
      for (int x : m.dsts) {
        if (gd[static_cast<std::size_t>(x)] != m.group) return std::nullopt;
      }
      mapped.demands.push_back(std::move(m));
    }
    out.stages.push_back(std::move(mapped));
  }
  for (int v = 0; v < num_ranks; ++v) {
    const int p = sketch.parent.empty() ? -1 : sketch.parent[static_cast<std::size_t>(v)];
    if (p >= 0) out.parent[static_cast<std::size_t>(F(v))] = F(p);
  }
  try {
    out.validate(groups);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return out;
}

SketchCombination seed_replicate_for_all_roots(const SketchCombination& proto,
                                               const topo::TopologyGroups& groups) {
  if (proto.sketches.empty()) throw std::invalid_argument("empty prototype combination");
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  const int r0 = proto.sketches.front().sketch.root;

  SketchCombination out = proto;
  WorkloadState acc(groups);
  for (const auto& ws : proto.sketches) acc.add_sketch(ws.sketch, groups);

  for (int r = 0; r < num_ranks; ++r) {
    if (r == r0) continue;
    for (const auto& ws : proto.sketches) {
      // The exact automorphism first (uniform by construction); load-steered
      // replication handles irregular topologies; canonical mapping is the
      // last resort.
      auto rep = seed_rotate_sketch(ws.sketch, groups, r);
      if (!rep.has_value()) rep = replicate_sketch(ws.sketch, groups, acc, r);
      if (!rep.has_value()) rep = replicate_sketch(ws.sketch, groups, acc, r, false);
      if (!rep.has_value()) {
        throw std::runtime_error("all-to-all replication failed for a root");
      }
      acc.add_sketch(*rep, groups);
      out.sketches.push_back(WeightedSketch{std::move(*rep), ws.fraction});
    }
  }
  return out;
}

// ---- Helpers. ----

/// Replays the reference replication order and reports whether a rotation
/// failed after at least one had succeeded: the case where the production
/// code builds its workload state lazily from the replicas emitted so far.
bool falls_back_after_rotations(const SketchCombination& proto,
                                const topo::TopologyGroups& groups) {
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  const int r0 = proto.sketches.front().sketch.root;
  bool rotated = false;
  for (int r = 0; r < num_ranks; ++r) {
    if (r == r0) continue;
    for (const auto& ws : proto.sketches) {
      if (seed_rotate_sketch(ws.sketch, groups, r).has_value()) {
        rotated = true;
      } else {
        return rotated;
      }
    }
  }
  return false;
}

struct Fabric {
  std::string name;
  topo::Topology topo;
};

/// `base`, the same fabric with its first duplex link degraded, and with its
/// first NIC failed whose loss keeps the fabric connected.
std::vector<Fabric> with_mutations(const std::string& name, const topo::Topology& base) {
  std::vector<Fabric> out;
  out.push_back({name, base});
  const topo::Link& l = base.links().front();
  out.push_back({name + "@degrade", topo::degrade_duplex(base, l.src, l.dst, 4.0, 8.0).topo});
  for (const topo::Node& node : base.nodes()) {
    if (node.kind != topo::NodeKind::Nic) continue;
    try {
      out.push_back({name + "@failnic", topo::fail_nic(base, node.id).topo});
      break;
    } catch (const std::exception&) {
    }
  }
  return out;
}

struct Coverage {
  int compared = 0;         ///< (prototype, root) pairs compared via rotate_sketch
  int rotated = 0;          ///< of which the rotation existed
  int families = 0;         ///< balanced families replicated onto every root
  int failed_families = 0;  ///< of which replication threw (identically)
};

const std::vector<RootedPattern> kBothPatterns{RootedPattern::Broadcast, RootedPattern::Scatter};

/// Compares replicate_for_all_roots of every search prototype's balanced
/// family (every root, every family member) and rotate_sketch of every
/// prototype onto every `root_stride`-th root against the reference.
Coverage check_fabric(const Fabric& f, const std::vector<RootedPattern>& patterns,
                      int root_stride) {
  Coverage cov;
  const topo::TopologyGroups groups = topo::extract_groups(f.topo);
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  for (const RootedPattern pattern : patterns) {
    const std::string where =
        f.name + (pattern == RootedPattern::Broadcast ? " broadcast" : " scatter");
    std::vector<Sketch> sketches;
    try {
      sketches = search_sketches(groups, 0, pattern);
    } catch (const std::runtime_error&) {
      continue;  // no sketch reaches every rank on this fabric
    }
    const std::vector<Sketch> prototypes = select_prototypes(sketches, groups, 6);
    for (std::size_t p = 0; p < prototypes.size(); ++p) {
      for (int r = 0; r < num_ranks; r += root_stride) {
        const auto got = rotate_sketch(prototypes[p], groups, r);
        const auto want = seed_rotate_sketch(prototypes[p], groups, r);
        const std::string at =
            where + " prototype " + std::to_string(p) + " root " + std::to_string(r);
        EXPECT_EQ(got.has_value(), want.has_value()) << at;
        if (got.has_value() && want.has_value()) expect_same_sketch(*got, *want, at);
        ++cov.compared;
        if (want.has_value()) ++cov.rotated;
      }
      const SketchCombination family = balance_across_groups(prototypes[p], groups);
      const std::string at = where + " family " + std::to_string(p);
      std::optional<SketchCombination> want;
      try {
        want = seed_replicate_for_all_roots(family, groups);
      } catch (const std::runtime_error&) {
      }
      ++cov.families;
      if (!want.has_value()) {
        ++cov.failed_families;
        EXPECT_THROW(replicate_for_all_roots(family, groups), std::runtime_error) << at;
        continue;
      }
      expect_same_combination(replicate_for_all_roots(family, groups), *want, at);
    }
  }
  return cov;
}

Coverage check_all(const std::vector<Fabric>& fabrics,
                   const std::vector<RootedPattern>& patterns = kBothPatterns,
                   int root_stride = 1) {
  Coverage total;
  for (const Fabric& f : fabrics) {
    const Coverage c = check_fabric(f, patterns, root_stride);
    total.compared += c.compared;
    total.rotated += c.rotated;
    total.families += c.families;
    total.failed_families += c.failed_families;
  }
  return total;
}

// ---- Tests: one per fabric family (base plus its mutations). ----

/// Checks `base` and its mutations. On the intact fabric the digit map is a
/// bijection, so every prototype (each covers every rank) rotates onto every
/// root and every family replicates.
void check_variants(const std::string& name, const topo::Topology& base,
                    const std::vector<RootedPattern>& mutated_patterns = kBothPatterns,
                    int root_stride = 1) {
  const std::vector<Fabric> variants = with_mutations(name, base);
  ASSERT_EQ(variants.size(), 3u) << name;
  const Coverage intact = check_all({variants[0]}, kBothPatterns, root_stride);
  EXPECT_GT(intact.compared, 0) << name;
  EXPECT_EQ(intact.rotated, intact.compared) << name;
  EXPECT_EQ(intact.failed_families, 0) << name;
  check_all({variants.begin() + 1, variants.end()}, mutated_patterns, root_stride);
}

TEST(ReplicateDifferential, Dgx16) { check_variants("dgx16", topo::build_h800_cluster(2)); }

TEST(ReplicateDifferential, A100x16NicShared) {
  check_variants("a100x16", topo::build_a100_testbed(16));
}

TEST(ReplicateDifferential, A100x32) { check_variants("a100x32", topo::build_a100_testbed(32)); }

TEST(ReplicateDifferential, H800x8) { check_variants("h800x8", topo::build_h800_cluster(8)); }

TEST(ReplicateDifferential, Clos) { check_variants("clos", topo::build_clos({})); }

// h800x64 (512 ranks). The reference rebuilds its coordinates on every
// call, so the direct rotate_sketch comparison samples every 37th root;
// replicate_for_all_roots still covers every root. A Scatter search at this
// size costs seconds, so the mutated variants check Broadcast (the pattern
// of the paper's AllGather point) only.
TEST(ReplicateDifferential, H800x64) {
  check_variants("h800x64", topo::build_h800_cluster(64), {RootedPattern::Broadcast}, 37);
}

// The load-steered fallback after rotations succeeded: the production code
// builds its workload state only then, by replaying the prototypes and the
// replicas emitted so far. One server whose last NIC failed: rank 7 drops
// out of the NIC tier, so a sketch that crosses that tier from rank 1 to
// rank 2 rotates onto roots 1–4 and 7 but not onto 5 and 6.
TEST(ReplicateDifferential, LazyWorkloadStateAfterSuccessfulRotations) {
  const topo::Topology base = topo::build_h800_cluster(1);
  const topo::Node* last_nic = nullptr;
  for (const topo::Node& node : base.nodes()) {
    if (node.kind == topo::NodeKind::Nic) last_nic = &node;
  }
  ASSERT_NE(last_nic, nullptr);
  const topo::Topology t = topo::fail_nic(base, last_nic->id).topo;
  const topo::TopologyGroups groups = topo::extract_groups(t);
  ASSERT_EQ(groups.group_of.front().size(), 8u);
  ASSERT_EQ(groups.dims.front().groups.size(), 1u);
  // The NIC tier: one group holding ranks 0..6, rank 7 uncovered.
  int nic = -1;
  for (int d = 1; d < groups.num_dims() && nic < 0; ++d) {
    const auto& gd = groups.group_of[static_cast<std::size_t>(d)];
    if (groups.dims[static_cast<std::size_t>(d)].groups.size() == 1 && gd[7] < 0) nic = d;
  }
  ASSERT_GE(nic, 1);

  for (const RootedPattern pattern : {RootedPattern::Broadcast, RootedPattern::Scatter}) {
    // Crosses the NIC tier once: 0 -> 1 on NVLink, 1 -> 2 on the NIC tier,
    // then NVLink from {0, 1, 2} to the rest.
    Sketch crossing;
    crossing.root = 0;
    crossing.pattern = pattern;
    crossing.parent.assign(8, -1);
    crossing.stages.push_back(Stage{{SubDemandSpec{0, 0, {0}, {1}}}});
    crossing.stages.push_back(Stage{{SubDemandSpec{nic, 0, {1}, {2}}}});
    crossing.stages.push_back(Stage{{SubDemandSpec{0, 0, {0, 1, 2}, {3, 4, 5, 6, 7}}}});
    crossing.parent[1] = 0;
    crossing.parent[2] = 1;
    for (int v = 3; v < 8; ++v) crossing.parent[static_cast<std::size_t>(v)] = (v - 3) % 3;
    // NVLink only: rotates onto every root.
    Sketch direct;
    direct.root = 0;
    direct.pattern = pattern;
    direct.parent.assign(8, 0);
    direct.parent[0] = -1;
    direct.stages.push_back(Stage{{SubDemandSpec{0, 0, {0}, {1, 2, 3, 4, 5, 6, 7}}}});
    ASSERT_NO_THROW(crossing.validate(groups));
    ASSERT_NO_THROW(direct.validate(groups));

    SketchCombination proto;
    proto.sketches = {WeightedSketch{crossing, 0.75}, WeightedSketch{direct, 0.25}};
    ASSERT_TRUE(falls_back_after_rotations(proto, groups));
    for (int r = 1; r < 8; ++r) {
      EXPECT_EQ(seed_rotate_sketch(crossing, groups, r).has_value(), r != 5 && r != 6) << r;
    }
    expect_same_combination(replicate_for_all_roots(proto, groups),
                            seed_replicate_for_all_roots(proto, groups), "lazy fallback");
  }
}

}  // namespace
}  // namespace syccl::sketch
