// Tests for the epoch model, τ derivation, greedy scheduler and MILP
// scheduler on hand-checkable sub-demands.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "solver/epoch_model.h"
#include "solver/greedy.h"
#include "solver/milp_scheduler.h"
#include "solver/tau.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::solver {
namespace {

struct GroupFixture {
  topo::Topology topo;
  topo::TopologyGroups groups;
  explicit GroupFixture(int n, topo::LinkParams lp = {1e-6, 1e9})
      : topo(topo::build_single_server(n, lp)), groups(topo::extract_groups(topo)) {}
  const topo::GroupTopology& group() const { return groups.dims[0].groups[0]; }
};

SubDemand broadcast_demand(const topo::GroupTopology& g, double bytes) {
  SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  DemandPiece p;
  p.id = 0;
  p.srcs = {0};
  for (int i = 1; i < g.size(); ++i) p.dsts.push_back(i);
  d.pieces.push_back(std::move(p));
  return d;
}

SubDemand allgather_demand(const topo::GroupTopology& g, double bytes) {
  SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  for (int r = 0; r < g.size(); ++r) {
    DemandPiece p;
    p.id = r;
    p.srcs = {r};
    for (int i = 0; i < g.size(); ++i) {
      if (i != r) p.dsts.push_back(i);
    }
    d.pieces.push_back(std::move(p));
  }
  return d;
}

TEST(Tau, LargeEGivesLargeTau) {
  const double alpha = 1e-6, beta = 1e-9, bytes = 1e6;  // βs = 1 ms >> α
  const EpochParams coarse = derive_epoch_params(alpha, beta, bytes, 3.0);
  const EpochParams fine = derive_epoch_params(alpha, beta, bytes, 0.5);
  EXPECT_GT(coarse.tau, fine.tau);
  EXPECT_EQ(coarse.capacity, 3);
  EXPECT_EQ(coarse.occupancy, 1);
  EXPECT_EQ(fine.capacity, 1);
  EXPECT_EQ(fine.occupancy, 2);
  // τ is a multiple (or unit fraction) of βs — bandwidth constraint.
  EXPECT_NEAR(coarse.tau, 3.0 * beta * bytes, 1e-12);
  EXPECT_NEAR(fine.tau, 0.5 * beta * bytes, 1e-12);
}

TEST(Tau, LatencyEpochsCoverAlphaPlusBetaS) {
  const EpochParams p = derive_epoch_params(5e-6, 1e-9, 1000.0, 1.0);
  // α + βs = 6 µs, τ = r·βs (r integer): L·τ ≥ α+βs.
  EXPECT_GE(p.lat_epochs * p.tau, 5e-6 + 1e-6 - 1e-12);
}

TEST(Tau, RejectsBadInput) {
  EXPECT_THROW(derive_epoch_params(-1.0, 1e-9, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(derive_epoch_params(0.0, 0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(derive_epoch_params(0.0, 1e-9, 1.0, 0.0), std::invalid_argument);
}

TEST(EpochModel, IsomorphismKeyIgnoresPieceOrder) {
  GroupFixture f(4);
  SubDemand a = allgather_demand(f.group(), 100.0);
  SubDemand b = a;
  std::swap(b.pieces[0], b.pieces[3]);
  EXPECT_EQ(a.canonical().key, b.canonical().key);
  SubDemand c = broadcast_demand(f.group(), 100.0);
  EXPECT_NE(a.canonical().key, c.canonical().key);
}

/// Hand-built star group of `n` members (down ports distinct). Member
/// `degraded` gets a 4x slower uplink; with `shared`, member pairs share an
/// uplink port (2 GPUs per NIC).
topo::GroupTopology star_group(int n, int degraded, bool shared) {
  topo::GroupTopology g;
  g.dim = 0;
  g.group_index = 0;
  for (int i = 0; i < n; ++i) {
    g.ranks.push_back(i);
    g.up.push_back(topo::GroupPort{1e-6, i == degraded ? 4e-9 : 1e-9, shared ? i / 2 : i});
    g.down.push_back(topo::GroupPort{1e-6, 1e-9, 100 + i});
    g.up_hops.emplace_back();
    g.down_hops.emplace_back();
  }
  return g;
}

// The solve-cache key bytes are a persistent contract (cached schedules are
// looked up by them): pin them exactly for a merged demand with several
// sources, unsorted and repeated destinations and permuted piece ids.
TEST(EpochModel, CanonicalKeyGolden) {
  auto merged = [](const topo::GroupTopology& g) {
    SubDemand d;
    d.group = &g;
    d.piece_bytes = 4096.0;
    d.pieces.push_back({1, {3, 0}, {5, 1, 2}});
    d.pieces.push_back({0, {1}, {0, 4, 2, 3, 5}});
    d.pieces.push_back({2, {4, 5}, {2, 0, 2}});
    return d;
  };
  const std::string port = "1000000/1000000000000/1000000/1000000000000/";
  const topo::GroupTopology uniform = star_group(6, -1, false);
  EXPECT_EQ(merged(uniform).canonical().key,
            "n=6;" + port + "u0/d0|" + port + "u1/d1|" + port + "u2/d2|" + port + "u3/d3|" +
                port + "u4/d4|" + port + "u5/d5|" +
                "#s=0x1p+12#0,3,:1,2,5,;1,:0,2,3,4,5,;4,5,:0,2,2,;");

  // Member 4's uplink is degraded and members share uplinks pairwise: the
  // slow member moves to canonical position 5.
  const topo::GroupTopology degraded = star_group(6, 4, true);
  const CanonicalDemand c = merged(degraded).canonical();
  EXPECT_EQ(c.key, "n=6;" + port + "u0/d0|" + port + "u0/d1|" + port + "u1/d2|" + port +
                       "u1/d3|" + port + "u2/d4|" +
                       "1000000/4000000000000/1000000/1000000000000/u2/d5|" +
                       "#s=0x1p+12#0,3,:1,2,4,;1,:0,2,3,4,5,;4,5,:0,2,2,;");
  EXPECT_EQ(c.member_perm, (std::vector<int>{0, 1, 2, 3, 5, 4}));
  EXPECT_EQ(c.piece_perm, (std::vector<int>{1, 0, 2}));
}

TEST(EpochModel, ValidateRejectsBadDemands) {
  GroupFixture f(4);
  SubDemand d = broadcast_demand(f.group(), 100.0);
  d.pieces[0].dsts.push_back(99);
  EXPECT_THROW(d.validate(), std::invalid_argument);
  SubDemand e = broadcast_demand(f.group(), 0.0);
  EXPECT_THROW(e.validate(), std::invalid_argument);
}

TEST(EpochModel, CheckerCatchesViolations) {
  GroupFixture f(4);
  const SubDemand d = broadcast_demand(f.group(), 1000.0);
  const EpochParams ep = derive_epoch_params(f.group(), 1000.0, 1.0);

  SubSchedule missing;
  missing.params = ep;
  missing.ops.push_back(SubOp{0, 0, 1, 0});
  missing.num_epochs = ep.lat_epochs;
  EXPECT_THROW(check_sub_schedule(d, missing), std::logic_error);  // 2,3 unserved

  SubSchedule early;
  early.params = ep;
  early.ops.push_back(SubOp{0, 1, 2, 0});  // 1 does not have the piece yet
  EXPECT_THROW(check_sub_schedule(d, early), std::logic_error);

  SubSchedule over;
  over.params = ep;
  // Capacity of a port is ep.capacity; saturate it with duplicates.
  for (int k = 0; k < ep.capacity + 1; ++k) over.ops.push_back(SubOp{0, 0, 1, 0});
  EXPECT_THROW(check_sub_schedule(d, over), std::logic_error);

  // With O = 2 a send holds its ports for two epochs: the root may start
  // sends at epochs 0, 2, 4 but not at 0 and 1.
  const EpochParams wide = derive_epoch_params(f.group(), 1000.0, 0.5);
  ASSERT_EQ(wide.occupancy, 2);
  ASSERT_EQ(wide.capacity, 1);
  SubSchedule spaced;
  spaced.params = wide;
  spaced.ops = {SubOp{0, 0, 1, 0}, SubOp{0, 0, 2, 2}, SubOp{0, 0, 3, 4}};
  spaced.num_epochs = 4 + wide.lat_epochs;
  EXPECT_NO_THROW(check_sub_schedule(d, spaced));
  SubSchedule overlapping = spaced;
  overlapping.ops[1].start_epoch = 1;
  try {
    check_sub_schedule(d, overlapping);
    ADD_FAILURE() << "overlapping occupancy accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("(up) over capacity at epoch 1"), std::string::npos)
        << e.what();
  }

  // A schedule that claims to finish before its last arrival.
  SubSchedule short_claim = spaced;
  short_claim.num_epochs = spaced.num_epochs - 1;
  try {
    check_sub_schedule(d, short_claim);
    ADD_FAILURE() << "short epoch claim accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("claims"), std::string::npos) << e.what();
  }
}

TEST(Greedy, BroadcastStreamsInAlphaDominatedRegime) {
  // α ≫ βs: the port is only busy βs per send, so streaming direct sends
  // from the root (one per epoch) beats a binomial tree — last arrival at
  // (n−2) + L epochs instead of ⌈log₂n⌉·L.
  GroupFixture f(8, {1e-6, 1e9});
  SubDemand d = broadcast_demand(f.group(), 100.0);  // βs = 0.1 µs << α
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_EQ(s.ops.size(), 7u);  // tree: n-1 sends
  EXPECT_EQ(s.num_epochs, (8 - 2) + ep.lat_epochs);
}

TEST(Greedy, BroadcastRelaysInBandwidthDominatedRegime) {
  // βs ≫ α with occupancy 2: relaying through early receivers beats pure
  // streaming. Greedy must at least stay within the streaming bound; the
  // MILP (next suite) is allowed to relay below it.
  GroupFixture f(4, {1e-6, 1e9});
  SubDemand d = broadcast_demand(f.group(), 1e6);  // βs = 1 ms >> α
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 0.5);
  ASSERT_EQ(ep.occupancy, 2);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_LE(s.num_epochs, (4 - 2) * ep.occupancy + ep.lat_epochs);
}

TEST(Greedy, AllGatherUsesAllPorts) {
  GroupFixture f(4);
  SubDemand d = allgather_demand(f.group(), 1e6);  // bandwidth regime
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_EQ(s.ops.size(), 12u);  // n(n-1) sends minimum
  // Bandwidth-optimal: each GPU sends 3 pieces on its port with capacity 1
  // per epoch ⇒ ≥ 3 epochs + latency; greedy should land near that.
  EXPECT_LE(s.num_epochs, 3 + ep.lat_epochs + 1);
}

TEST(Greedy, ScatterSerializesOnRootPort) {
  GroupFixture f(5);
  SubDemand d;
  d.group = &f.group();
  d.piece_bytes = 1e6;
  for (int i = 1; i < 5; ++i) {
    DemandPiece p;
    p.id = i - 1;
    p.srcs = {0};
    p.dsts = {i};
    d.pieces.push_back(p);
  }
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_EQ(s.ops.size(), 4u);
  // Root's up-port is the bottleneck: 4 sends with capacity C.
  const int expected = (4 + ep.capacity - 1) / ep.capacity - 1 + ep.lat_epochs;
  EXPECT_GE(s.num_epochs, expected);
}

TEST(Greedy, RespectsCapacityGreaterThanOne) {
  GroupFixture f(5, {1e-9, 1e9});  // negligible α
  SubDemand d = broadcast_demand(f.group(), 1000.0);
  EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 2.0);
  ASSERT_EQ(ep.capacity, 2);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  // Root can send 2 per epoch: epoch 0 → 2 dsts; epoch 1 ≥ covers rest.
  EXPECT_LE(s.num_epochs, 2 * ep.lat_epochs);
}

TEST(MilpScheduler, MatchesGreedyOnBroadcast) {
  GroupFixture f(4);
  SubDemand d = broadcast_demand(f.group(), 100.0);
  SolveStats stats;
  const SubSchedule s = solve_sub_demand(d, {}, &stats);
  check_sub_schedule(d, s);
  // α-dominated streaming optimum: last send leaves the root at epoch n−2
  // and arrives L epochs later.
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  EXPECT_EQ(s.num_epochs, (4 - 2) + ep.lat_epochs);
}

TEST(MilpScheduler, ImprovesSuboptimalGreedyOrMatches) {
  // AllGather on 4: greedy is already near-optimal; the MILP must never be
  // worse and must validate.
  GroupFixture f(4);
  SubDemand d = allgather_demand(f.group(), 1e5);
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule greedy = solve_greedy(d, ep);
  MilpSchedulerOptions opts;
  opts.time_limit_s = 3.0;
  SolveStats stats;
  const SubSchedule milp = solve_sub_demand(d, opts, &stats);
  check_sub_schedule(d, milp);
  EXPECT_LE(milp.num_epochs, greedy.num_epochs);
}

TEST(MilpScheduler, GreedyOnlyFlagSkipsMilp) {
  GroupFixture f(6);
  SubDemand d = broadcast_demand(f.group(), 1000.0);
  MilpSchedulerOptions opts;
  opts.greedy_only = true;
  SolveStats stats;
  const SubSchedule s = solve_sub_demand(d, opts, &stats);
  check_sub_schedule(d, s);
  EXPECT_FALSE(stats.used_milp);
}

TEST(MilpScheduler, SizeGateFallsBackToGreedy) {
  GroupFixture f(8);
  SubDemand d = allgather_demand(f.group(), 1e6);
  MilpSchedulerOptions opts;
  opts.max_binaries = 10;  // force the gate
  SolveStats stats;
  const SubSchedule s = solve_sub_demand(d, opts, &stats);
  check_sub_schedule(d, s);
  EXPECT_FALSE(stats.used_milp);
}

TEST(EpochModel, RemapSubSchedule) {
  GroupFixture f(4);
  SubDemand d = broadcast_demand(f.group(), 1000.0);
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  const std::vector<int> rot = {1, 2, 3, 0};
  const SubSchedule r = remap_sub_schedule(s, rot);
  ASSERT_EQ(r.ops.size(), s.ops.size());
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    EXPECT_EQ(r.ops[i].src, rot[static_cast<std::size_t>(s.ops[i].src)]);
    EXPECT_EQ(r.ops[i].dst, rot[static_cast<std::size_t>(s.ops[i].dst)]);
  }
  EXPECT_THROW(remap_sub_schedule(s, {0, 1}), std::invalid_argument);
}

// Parameterized sweep: greedy feasibility across sizes, E values and group
// widths — property: check_sub_schedule never throws and epochs are bounded
// by the trivial sequential schedule.
struct SweepParam {
  int n;
  double bytes;
  double E;
};

// Prints the fields rather than the raw bytes, padding included, so that the
// discovered test names are the same in every build.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "n" << p.n << "_bytes" << p.bytes << "_E" << p.E;
}

class GreedySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GreedySweep, BroadcastAndAllGatherFeasible) {
  const auto [n, bytes, E] = GetParam();
  GroupFixture f(n);
  for (const bool ag : {false, true}) {
    SubDemand d = ag ? allgather_demand(f.group(), bytes) : broadcast_demand(f.group(), bytes);
    const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, E);
    const SubSchedule s = solve_greedy(d, ep);
    ASSERT_NO_THROW(check_sub_schedule(d, s));
    // Trivial upper bound: all sends sequential on one port.
    const long sends = static_cast<long>(s.ops.size());
    EXPECT_LE(s.num_epochs, sends * std::max(ep.occupancy, ep.lat_epochs) + ep.lat_epochs);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GreedySweep,
                         ::testing::Values(SweepParam{2, 1e3, 1.0}, SweepParam{3, 1e6, 0.5},
                                           SweepParam{4, 1e4, 2.0}, SweepParam{5, 1e7, 3.0},
                                           SweepParam{8, 1e3, 0.5}, SweepParam{8, 1e8, 3.0},
                                           SweepParam{16, 1e6, 1.0}));

}  // namespace
}  // namespace syccl::solver
