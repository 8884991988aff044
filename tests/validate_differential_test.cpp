// Differential test of Sketch::validate against a verbatim copy of its
// original implementation, which tracked holders and destinations in three
// std::set<int>s. The production validator keeps one byte of marks per rank
// (DESIGN.md §4l); over seeded mutants of real sketches both must give the
// same verdict with the same message. The original read parent[root]
// without range-checking the root; the production validator rejects such a
// sketch with std::invalid_argument instead. One rule was added to both
// after the copy was taken, marked below: a Scatter destination's relay
// parent must be a source of its sub-demand.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sketch/alltoall.h"
#include "sketch/replicate.h"
#include "sketch/search.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::sketch {
namespace {

// ---- Original validator, kept verbatim (as a free function) as the
// reference. ----

void seed_validate(const Sketch& sketch, const topo::TopologyGroups& groups) {
  const int root = sketch.root;
  const auto& stages = sketch.stages;
  const auto& parent = sketch.parent;
  const int num_ranks =
      groups.group_of.empty() ? 0 : static_cast<int>(groups.group_of.front().size());
  std::set<int> holders{root};
  std::set<int> ever_dst;
  for (const Stage& st : stages) {
    std::set<int> new_holders;
    for (const SubDemandSpec& r : st.demands) {
      if (r.dim < 0 || r.dim >= groups.num_dims()) throw std::invalid_argument("bad dimension");
      const auto& gd = groups.group_of[static_cast<std::size_t>(r.dim)];
      if (r.srcs.empty() || r.dsts.empty()) {
        throw std::invalid_argument("sub-demand with empty sources or destinations");
      }
      for (int s : r.srcs) {
        if (s < 0 || s >= num_ranks) throw std::invalid_argument("src rank out of range");
        if (gd[static_cast<std::size_t>(s)] != r.group) {
          throw std::invalid_argument("src outside its group");
        }
        if (holders.count(s) == 0) {
          throw std::invalid_argument("source does not hold the chunk yet");
        }
      }
      for (int v : r.dsts) {
        if (v < 0 || v >= num_ranks) throw std::invalid_argument("dst rank out of range");
        if (gd[static_cast<std::size_t>(v)] != r.group) {
          throw std::invalid_argument("dst outside its group");
        }
        if (v == root || ever_dst.count(v) != 0 || new_holders.count(v) != 0) {
          throw std::invalid_argument("rank is a destination more than once");
        }
        ever_dst.insert(v);
        new_holders.insert(v);
        // Added rule, not in the original.
        if (sketch.pattern == RootedPattern::Scatter &&
            static_cast<int>(parent.size()) == num_ranks &&
            std::find(r.srcs.begin(), r.srcs.end(), parent[static_cast<std::size_t>(v)]) ==
                r.srcs.end()) {
          throw std::invalid_argument("scatter destination's parent is not a source");
        }
      }
    }
    holders.insert(new_holders.begin(), new_holders.end());
  }
  // Relay tree consistency.
  if (!parent.empty()) {
    if (static_cast<int>(parent.size()) != num_ranks) {
      throw std::invalid_argument("parent vector size mismatch");
    }
    if (parent[static_cast<std::size_t>(root)] != -1) {
      throw std::invalid_argument("root must not have a parent");
    }
    for (int v : ever_dst) {
      if (parent[static_cast<std::size_t>(v)] < 0) {
        throw std::invalid_argument("destination without a parent in the relay tree");
      }
    }
  }
}

// ---- Helpers. ----

/// nullopt when `check` accepts, otherwise the std::invalid_argument message.
template <typename Check>
std::optional<std::string> verdict(Check&& check) {
  try {
    check();
  } catch (const std::invalid_argument& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

struct Pool {
  topo::Topology topo;
  topo::TopologyGroups groups;
  std::vector<Sketch> sketches;
};

/// Searched sketches at two roots, Broadcast and Scatter, plus every
/// replica of each prototype's balanced family.
Pool make_pool(topo::Topology topo) {
  Pool p{std::move(topo), {}, {}};
  p.groups = topo::extract_groups(p.topo);
  const int num_ranks = static_cast<int>(p.groups.group_of.front().size());
  for (const RootedPattern pattern : {RootedPattern::Broadcast, RootedPattern::Scatter}) {
    for (const int root : {0, num_ranks / 2 + 1}) {
      const auto found = search_sketches(p.groups, root, pattern);
      p.sketches.insert(p.sketches.end(), found.begin(), found.end());
      for (const Sketch& proto : select_prototypes(found, p.groups, 2)) {
        for (const auto& ws : balance_across_groups(proto, p.groups).sketches) {
          p.sketches.push_back(ws.sketch);
        }
      }
    }
  }
  return p;
}

enum Mutation {
  kDuplicateDst,
  kSourceNotHolding,
  kSrcOutsideGroup,
  kDstOutsideGroup,
  kOutOfRangeRank,
  kEmptyList,
  kMissingParent,
  kRootWithParent,
  kParentSizeMismatch,
  kParentNotSource,
  kNumMutations
};

/// A uniformly chosen (stage, demand) of `s`.
SubDemandSpec& pick_demand(Sketch& s, std::mt19937& rng, int* stage_out = nullptr) {
  std::vector<std::pair<int, int>> all;
  for (std::size_t k = 0; k < s.stages.size(); ++k) {
    for (std::size_t i = 0; i < s.stages[k].demands.size(); ++i) {
      all.push_back({static_cast<int>(k), static_cast<int>(i)});
    }
  }
  const auto [k, i] = all[std::uniform_int_distribution<std::size_t>(0, all.size() - 1)(rng)];
  if (stage_out != nullptr) *stage_out = k;
  return s.stages[static_cast<std::size_t>(k)].demands[static_cast<std::size_t>(i)];
}

/// A uniformly chosen element of `v`, or nullptr when `v` is empty (an
/// earlier stacked mutation may have emptied it).
template <typename T>
T* pick(std::vector<T>& v, std::mt19937& rng) {
  if (v.empty()) return nullptr;
  return &v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(rng)];
}

/// Assigns `value` to a uniformly chosen element of `v`, if any.
void overwrite_one(std::vector<int>& v, int value, std::mt19937& rng) {
  if (int* x = pick(v, rng)) *x = value;
}

/// A rank of dimension `dim` outside group `group` (or -1 if none).
int rank_outside(const topo::TopologyGroups& groups, int dim, int group, std::mt19937& rng) {
  std::vector<int> out;
  const auto& gd = groups.group_of[static_cast<std::size_t>(dim)];
  for (std::size_t r = 0; r < gd.size(); ++r) {
    if (gd[r] != group) out.push_back(static_cast<int>(r));
  }
  return out.empty() ? -1 : *pick(out, rng);
}

void mutate(Sketch& s, Mutation m, const topo::TopologyGroups& groups, std::mt19937& rng) {
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  switch (m) {
    case kDuplicateDst: {
      // Some covered rank (or the root) becomes a destination again.
      std::vector<int> covered = s.covered_ranks();
      pick_demand(s, rng).dsts.push_back(*pick(covered, rng));
      break;
    }
    case kSourceNotHolding: {
      // A source replaced by a destination of the same or a later stage.
      int k = 0;
      SubDemandSpec& r = pick_demand(s, rng, &k);
      std::vector<int> later;
      for (std::size_t j = static_cast<std::size_t>(k); j < s.stages.size(); ++j) {
        for (const auto& d : s.stages[j].demands) {
          later.insert(later.end(), d.dsts.begin(), d.dsts.end());
        }
      }
      if (const int* u = pick(later, rng)) overwrite_one(r.srcs, *u, rng);
      break;
    }
    case kSrcOutsideGroup: {
      SubDemandSpec& r = pick_demand(s, rng);
      const int u = rank_outside(groups, r.dim, r.group, rng);
      if (u >= 0) overwrite_one(r.srcs, u, rng);
      break;
    }
    case kDstOutsideGroup: {
      SubDemandSpec& r = pick_demand(s, rng);
      const int u = rank_outside(groups, r.dim, r.group, rng);
      if (u >= 0) overwrite_one(r.dsts, u, rng);
      break;
    }
    case kOutOfRangeRank: {
      SubDemandSpec& r = pick_demand(s, rng);
      const int bad = std::vector<int>{-1, num_ranks, num_ranks + 7}[rng() % 3];
      overwrite_one(rng() % 2 == 0 ? r.srcs : r.dsts, bad, rng);
      break;
    }
    case kEmptyList: {
      SubDemandSpec& r = pick_demand(s, rng);
      (rng() % 2 == 0 ? r.srcs : r.dsts).clear();
      break;
    }
    case kMissingParent: {
      std::vector<int> dsts;
      for (const auto& st : s.stages) {
        for (const auto& d : st.demands) dsts.insert(dsts.end(), d.dsts.begin(), d.dsts.end());
      }
      const int* v = pick(dsts, rng);
      if (v != nullptr && *v >= 0 && static_cast<std::size_t>(*v) < s.parent.size()) {
        s.parent[static_cast<std::size_t>(*v)] = -1;
      }
      break;
    }
    case kRootWithParent:
      if (static_cast<std::size_t>(s.root) < s.parent.size()) {
        s.parent[static_cast<std::size_t>(s.root)] =
            std::uniform_int_distribution<int>(0, num_ranks - 1)(rng);
      }
      break;
    case kParentSizeMismatch:
      s.parent.resize(s.parent.size() + (rng() % 2 == 0 ? 1 : static_cast<std::size_t>(-1)), -1);
      break;
    case kParentNotSource: {
      // As a Scatter sketch, a destination's relay parent moves to a rank
      // that is not a source of its sub-demand.
      s.pattern = RootedPattern::Scatter;
      SubDemandSpec& r = pick_demand(s, rng);
      std::vector<int> others;
      for (int u = 0; u < num_ranks; ++u) {
        if (std::find(r.srcs.begin(), r.srcs.end(), u) == r.srcs.end()) others.push_back(u);
      }
      const int* v = pick(r.dsts, rng);
      const int* u = pick(others, rng);
      if (v != nullptr && u != nullptr && *v >= 0 &&
          static_cast<std::size_t>(*v) < s.parent.size()) {
        s.parent[static_cast<std::size_t>(*v)] = *u;
      }
      break;
    }
    case kNumMutations:
      break;
  }
}

// ---- Tests. ----

TEST(ValidateDifferential, SeededMutantsGiveSameVerdictAndMessage) {
  std::vector<Pool> pools;
  pools.push_back(make_pool(topo::build_h800_cluster(2)));
  pools.push_back(make_pool(topo::build_a100_testbed(16)));
  pools.push_back(make_pool(topo::build_h800_cluster(8)));

  // Every unmutated sketch passes both validators.
  for (const Pool& p : pools) {
    for (const Sketch& s : p.sketches) {
      ASSERT_EQ(verdict([&] { s.validate(p.groups); }), std::nullopt) << s.describe();
      ASSERT_EQ(verdict([&] { seed_validate(s, p.groups); }), std::nullopt) << s.describe();
    }
  }

  constexpr int kMutants = 720;
  std::set<std::string> messages;
  std::vector<int> rejected(kNumMutations, 0);
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::mt19937 rng(static_cast<unsigned>(1000 + i));
    const Pool& p = pools[static_cast<std::size_t>(i) % pools.size()];
    Sketch s =
        p.sketches[std::uniform_int_distribution<std::size_t>(0, p.sketches.size() - 1)(rng)];
    const auto m = static_cast<Mutation>(i % kNumMutations);
    mutate(s, m, p.groups, rng);
    // Every third mutant stacks a second, random mutation on the first.
    if (i % 3 == 0) {
      mutate(s, static_cast<Mutation>(rng() % kNumMutations), p.groups, rng);
    }
    const auto got = verdict([&] { s.validate(p.groups); });
    const auto want = verdict([&] { seed_validate(s, p.groups); });
    ASSERT_EQ(got, want) << "mutant " << i << " (mutation " << m << "): " << s.describe();
    if (want.has_value()) {
      messages.insert(*want);
      ++rejected[static_cast<std::size_t>(m)];
    } else {
      ++accepted;
    }
  }
  // Every mutation kind produced rejections, and every check fired.
  for (int m = 0; m < kNumMutations; ++m) {
    EXPECT_GT(rejected[static_cast<std::size_t>(m)], 20) << m;
  }
  for (const char* msg : {"sub-demand with empty sources or destinations", "src rank out of range",
                          "src outside its group", "source does not hold the chunk yet",
                          "dst rank out of range", "dst outside its group",
                          "rank is a destination more than once", "parent vector size mismatch",
                          "root must not have a parent",
                          "destination without a parent in the relay tree",
                          "scatter destination's parent is not a source"}) {
    EXPECT_EQ(messages.count(msg), 1u) << msg;
  }
  EXPECT_LT(accepted, kMutants / 10);
}

TEST(ValidateDifferential, RootOutOfRangeWithRelayTreeThrows) {
  const topo::TopologyGroups groups = topo::extract_groups(topo::build_h800_cluster(2));
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  for (const int root : {-1, num_ranks, num_ranks + 100}) {
    Sketch s;
    s.root = root;
    s.parent.assign(static_cast<std::size_t>(num_ranks), -1);
    EXPECT_EQ(verdict([&] { s.validate(groups); }), std::string("root rank out of range"))
        << root;
  }
}

}  // namespace
}  // namespace syccl::sketch
