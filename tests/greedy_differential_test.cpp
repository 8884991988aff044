// Differential test of the greedy list scheduler against a verbatim copy of
// its original implementation (a map-keyed port table and a full re-scan of
// every holder for every destination, repeated until an epoch adds no send).
// The production scheduler replaced that loop with dense port slots, one
// pass per epoch and a per-piece cursor over arrival-sorted holders
// (DESIGN.md §4j); it must make exactly the same decisions, op for op.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "solver/epoch_model.h"
#include "solver/greedy.h"
#include "solver/tau.h"
#include "topo/groups.h"

namespace syccl::solver {
namespace {

// ---- Original greedy scheduler, kept verbatim as the reference. ----

struct SeedPieceState {
  std::vector<int> holders;       ///< locals holding the piece (usable now)
  std::vector<int> arriving_at;   ///< arrival epoch per local (-1 = never)
  std::vector<bool> needed;       ///< still-unserved destinations
  int remaining = 0;
};

SubSchedule seed_solve_greedy(const SubDemand& demand, const EpochParams& params) {
  demand.validate();
  const topo::GroupTopology& g = *demand.group;
  const int n = g.size();
  const int np = static_cast<int>(demand.pieces.size());

  std::vector<SeedPieceState> state(static_cast<std::size_t>(np));
  int total_remaining = 0;
  for (int p = 0; p < np; ++p) {
    SeedPieceState& ps = state[static_cast<std::size_t>(p)];
    ps.arriving_at.assign(static_cast<std::size_t>(n), -1);
    ps.needed.assign(static_cast<std::size_t>(n), false);
    const DemandPiece& dp = demand.pieces[static_cast<std::size_t>(p)];
    for (int src : dp.srcs) ps.arriving_at[static_cast<std::size_t>(src)] = 0;
    for (int d : dp.dsts) {
      if (!ps.needed[static_cast<std::size_t>(d)]) {
        ps.needed[static_cast<std::size_t>(d)] = true;
        ++ps.remaining;
        ++total_remaining;
      }
    }
  }

  // Port usage per (port, direction) per epoch, grown on demand.
  std::map<std::pair<int, int>, std::vector<int>> usage;
  auto port_free = [&](int port, int dir, int t, int occupancy, int capacity) {
    auto& u = usage[{port, dir}];
    if (static_cast<int>(u.size()) < t + occupancy) u.resize(static_cast<std::size_t>(t + occupancy), 0);
    for (int o = 0; o < occupancy; ++o) {
      if (u[static_cast<std::size_t>(t + o)] >= capacity) return false;
    }
    return true;
  };
  auto port_take = [&](int port, int dir, int t, int occupancy) {
    auto& u = usage[{port, dir}];
    for (int o = 0; o < occupancy; ++o) ++u[static_cast<std::size_t>(t + o)];
  };

  SubSchedule out;
  out.params = params;

  const long safety_epochs =
      static_cast<long>(np) * n * std::max(params.occupancy, params.lat_epochs) + n + 16;

  int completion = 0;
  for (int t = 0; total_remaining > 0; ++t) {
    if (t > safety_epochs) {
      throw std::logic_error("greedy scheduler failed to converge (demand unreachable?)");
    }
    // Candidate sends this epoch: (piece, src holder, unserved dst). Order by
    // criticality: pieces with the most unserved destinations first, then
    // destinations that are sources of nothing — plain index order suffices
    // for uniform groups, so we sort pieces by remaining demand only.
    std::vector<int> piece_order(static_cast<std::size_t>(np));
    for (int p = 0; p < np; ++p) piece_order[static_cast<std::size_t>(p)] = p;
    std::stable_sort(piece_order.begin(), piece_order.end(), [&](int a, int b) {
      return state[static_cast<std::size_t>(a)].remaining > state[static_cast<std::size_t>(b)].remaining;
    });

    bool progress = true;
    while (progress) {
      progress = false;
      for (int p : piece_order) {
        SeedPieceState& ps = state[static_cast<std::size_t>(p)];
        if (ps.remaining == 0) continue;
        for (int d = 0; d < n && ps.remaining > 0; ++d) {
          if (!ps.needed[static_cast<std::size_t>(d)]) continue;
          const int down_port = g.down[static_cast<std::size_t>(d)].port_id;
          if (!port_free(down_port, 1, t, params.occupancy, params.capacity)) continue;
          // Pick a holder with free up-port; prefer the one that received
          // the piece earliest (balances relay load deterministically).
          int best_src = -1;
          for (int s = 0; s < n; ++s) {
            const int arr = ps.arriving_at[static_cast<std::size_t>(s)];
            if (arr < 0 || arr > t || s == d) continue;
            if (!port_free(g.up[static_cast<std::size_t>(s)].port_id, 0, t, params.occupancy,
                           params.capacity)) {
              continue;
            }
            if (best_src < 0 ||
                arr < ps.arriving_at[static_cast<std::size_t>(best_src)]) {
              best_src = s;
            }
          }
          if (best_src < 0) continue;
          port_take(g.up[static_cast<std::size_t>(best_src)].port_id, 0, t, params.occupancy);
          port_take(down_port, 1, t, params.occupancy);
          out.ops.push_back(SubOp{p, best_src, d, t});
          ps.needed[static_cast<std::size_t>(d)] = false;
          --ps.remaining;
          --total_remaining;
          const int arrival = t + params.lat_epochs;
          ps.arriving_at[static_cast<std::size_t>(d)] = arrival;
          completion = std::max(completion, arrival);
          progress = true;
        }
      }
    }
  }

  out.num_epochs = completion;
  check_sub_schedule(demand, out);
  return out;
}

// ---- Random demands. ----

struct Coverage {
  int shared_ports = 0, degraded = 0, multi_src = 0, duplicate_dst = 0;
  int capacity_gt1 = 0, occupancy_gt1 = 0, latency_gt1 = 0, large_groups = 0;
};

/// Star group of `n` members. With `shared`, consecutive member pairs share
/// one up port and one down port (2 GPUs per NIC); `degraded` members get a
/// 4x slower uplink or downlink.
topo::GroupTopology random_group(std::mt19937& rng, int n, bool shared, int degraded,
                                 double alpha) {
  topo::GroupTopology g;
  g.dim = 0;
  g.group_index = 0;
  for (int i = 0; i < n; ++i) {
    const int port = shared ? i / 2 : i;
    g.ranks.push_back(i);
    g.up.push_back(topo::GroupPort{alpha, 1e-9, port});
    g.down.push_back(topo::GroupPort{alpha, 1e-9, 10000 + port});
    g.up_hops.emplace_back();
    g.down_hops.emplace_back();
  }
  for (int k = 0; k < degraded; ++k) {
    const auto m = static_cast<std::size_t>(std::uniform_int_distribution<int>(0, n - 1)(rng));
    (rng() % 2 == 0 ? g.up[m] : g.down[m]).beta *= 4.0;
  }
  return g;
}

/// Random pieces over `g`: 1-3 sources, a random destination subset listed
/// in random order, sometimes with repeated destinations.
SubDemand random_demand(std::mt19937& rng, const topo::GroupTopology& g, int num_pieces,
                        double bytes, Coverage& cov) {
  const int n = g.size();
  SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  std::vector<int> members(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = i;
  for (int p = 0; p < num_pieces; ++p) {
    std::shuffle(members.begin(), members.end(), rng);
    const int num_srcs = std::min(n - 1, 1 + static_cast<int>(rng() % 3));
    const int num_dsts = 1 + static_cast<int>(rng() % static_cast<unsigned>(n - num_srcs));
    DemandPiece piece;
    piece.id = p;
    piece.srcs.assign(members.begin(), members.begin() + num_srcs);
    piece.dsts.assign(members.begin() + num_srcs, members.begin() + num_srcs + num_dsts);
    if (rng() % 4 == 0) {
      piece.dsts.push_back(piece.dsts[rng() % piece.dsts.size()]);
      ++cov.duplicate_dst;
    }
    if (num_srcs > 1) ++cov.multi_src;
    d.pieces.push_back(std::move(piece));
  }
  return d;
}

TEST(GreedyDifferential, MatchesSeedGreedyOpForOp) {
  constexpr int kCases = 240;
  const double kE[] = {0.25, 0.5, 1.0, 3.0};
  const double kAlpha[] = {0.0, 1e-6, 2e-5};
  Coverage cov;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    std::mt19937 rng(static_cast<unsigned>(c) * 2654435761u + 17u);
    // Every eighth case is a large group with few pieces; the rest stay
    // small so the reference's O(n^2) holder scans keep the test fast.
    const int n = c % 8 == 0 ? std::uniform_int_distribution<int>(33, 64)(rng)
                             : std::uniform_int_distribution<int>(2, 24)(rng);
    const bool shared = rng() % 3 == 0;
    const int degraded = rng() % 3 == 0 ? 1 + static_cast<int>(rng() % 2) : 0;
    const double alpha = kAlpha[rng() % 3];
    const topo::GroupTopology g = random_group(rng, n, shared, degraded, alpha);
    const int max_pieces = n > 32 ? 16 : 2 * n;
    const int num_pieces = std::uniform_int_distribution<int>(1, max_pieces)(rng);
    const double bytes = c % 2 == 0 ? 1e3 : 1e6;
    const SubDemand demand = random_demand(rng, g, num_pieces, bytes, cov);
    const EpochParams ep = derive_epoch_params(g, bytes, kE[c % 4]);

    const SubSchedule want = seed_solve_greedy(demand, ep);
    const SubSchedule got = solve_greedy(demand, ep);
    ASSERT_EQ(got.num_epochs, want.num_epochs);
    ASSERT_EQ(got.ops.size(), want.ops.size());
    for (std::size_t i = 0; i < want.ops.size(); ++i) {
      SCOPED_TRACE("op " + std::to_string(i));
      EXPECT_EQ(got.ops[i].piece, want.ops[i].piece);
      EXPECT_EQ(got.ops[i].src, want.ops[i].src);
      EXPECT_EQ(got.ops[i].dst, want.ops[i].dst);
      ASSERT_EQ(got.ops[i].start_epoch, want.ops[i].start_epoch);
    }

    cov.shared_ports += shared ? 1 : 0;
    cov.degraded += degraded > 0 ? 1 : 0;
    cov.capacity_gt1 += ep.capacity > 1 ? 1 : 0;
    cov.occupancy_gt1 += ep.occupancy > 1 ? 1 : 0;
    cov.latency_gt1 += ep.lat_epochs > 1 ? 1 : 0;
    cov.large_groups += n > 32 ? 1 : 0;
  }
  // The generator must actually reach every regime the rewrite relies on.
  EXPECT_GT(cov.shared_ports, 20);
  EXPECT_GT(cov.degraded, 20);
  EXPECT_GT(cov.multi_src, 20);
  EXPECT_GT(cov.duplicate_dst, 20);
  EXPECT_GT(cov.capacity_gt1, 20);
  EXPECT_GT(cov.occupancy_gt1, 20);
  EXPECT_GT(cov.latency_gt1, 20);
  EXPECT_GT(cov.large_groups, 20);
}

// All-to-all demands where every member is a source: the densest holder sets
// and the most contention for shared ports.
TEST(GreedyDifferential, MatchesSeedGreedyOnAllGather) {
  for (const int n : {2, 3, 8, 16, 31}) {
    for (const bool shared : {false, true}) {
      for (const double E : {0.25, 0.5, 1.0, 3.0}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " shared=" + std::to_string(shared) +
                     " E=" + std::to_string(E));
        std::mt19937 rng(static_cast<unsigned>(n));
        const topo::GroupTopology g = random_group(rng, n, shared, n % 2, 1e-6);
        SubDemand demand;
        demand.group = &g;
        demand.piece_bytes = 1e5;
        for (int r = 0; r < n; ++r) {
          DemandPiece p;
          p.id = r;
          p.srcs = {r};
          for (int i = 0; i < n; ++i) {
            if (i != r) p.dsts.push_back(i);
          }
          demand.pieces.push_back(std::move(p));
        }
        const EpochParams ep = derive_epoch_params(g, demand.piece_bytes, E);
        const SubSchedule want = seed_solve_greedy(demand, ep);
        const SubSchedule got = solve_greedy(demand, ep);
        ASSERT_EQ(got.num_epochs, want.num_epochs);
        ASSERT_EQ(got.ops.size(), want.ops.size());
        for (std::size_t i = 0; i < want.ops.size(); ++i) {
          ASSERT_TRUE(got.ops[i].piece == want.ops[i].piece && got.ops[i].src == want.ops[i].src &&
                      got.ops[i].dst == want.ops[i].dst &&
                      got.ops[i].start_epoch == want.ops[i].start_epoch)
              << "op " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace syccl::solver
