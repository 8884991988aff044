// Automatic dimension/group extraction (paper §3.1, Table 2).
//
// SyCCL organises GPUs into *dimensions* — one per type of inter-GPU
// connection — and within each dimension into *groups* of directly connected
// GPUs. We recover this structure from the raw graph:
//
//   1. Every switch gets a *tier* = its minimum hop distance from any GPU
//      (NVSwitch = 1, rail/ToR leaf = 2, spine = 3, core = 4, ...).
//   2. A switch's *span* is the set of GPUs that reach it by a monotonically
//      up-going path (strictly increasing distance-from-GPU).
//   3. Switches at the same tier with identical spans collapse into one
//      group (e.g. eight spine switches above the same leaves are one
//      logical group with 8× fabric capacity).
//   4. Tiers, sorted ascending, become dimensions 0, 1, 2, ...
//
// For each group we also precompute the *star abstraction* used by the
// sub-demand solver and the simulator: every member GPU has an uplink and a
// downlink to the group's (virtual, non-blocking) switch, each with an
// aggregate α/β and a *port id* identifying the physical serialisation
// resource (GPUs sharing a NIC share a port — the A100 testbed has 2 GPUs
// per 200G NIC).
#pragma once

#include <string>
#include <vector>

#include "topo/topology.h"

namespace syccl::topo {

/// One direction of a GPU's attachment to a group's virtual switch.
struct GroupPort {
  double alpha = 0.0;  ///< summed latency of the physical path, seconds
  double beta = 0.0;   ///< bottleneck reciprocal bandwidth, s/byte
  /// Identifier of the physical serialisation resource (bottleneck link id).
  /// Transfers sharing a port id in the same direction serialise.
  int port_id = -1;
};

/// One physical link on a path, used by the simulator for per-link
/// contention (fabric uplinks are shared by many GPUs).
struct PathHop {
  int link_id = -1;
  double alpha = 0.0;
  double beta = 0.0;
};

/// The star abstraction of one (dimension, group): member GPUs around a
/// non-blocking virtual switch.
struct GroupTopology {
  int dim = -1;
  int group_index = -1;
  std::vector<int> ranks;       ///< global GPU ranks, ascending
  std::vector<GroupPort> up;    ///< indexed like `ranks`
  std::vector<GroupPort> down;  ///< indexed like `ranks`
  /// Full physical paths member → switch and switch → member (for the
  /// simulator's per-link contention model).
  std::vector<std::vector<PathHop>> up_hops;
  std::vector<std::vector<PathHop>> down_hops;

  int size() const { return static_cast<int>(ranks.size()); }

  /// Local index of a global rank, or -1.
  int local_of(int rank) const;

  /// Effective α for a transfer between local members i → j.
  double pair_alpha(int i, int j) const { return up[static_cast<std::size_t>(i)].alpha + down[static_cast<std::size_t>(j)].alpha; }
  /// Effective bottleneck β for a transfer between local members i → j.
  double pair_beta(int i, int j) const;

  /// Canonical labelling of the group's members under positional isomorphism.
  /// `perm[i]` is the canonical position of local member i; `signature`
  /// encodes, per canonical position, the quantised port parameters plus the
  /// up/down port-sharing blocks (renumbered along the canonical order).
  ///
  /// Equal signatures ⇒ mapping canonical position k of one group onto
  /// canonical position k of the other is a positional isomorphism: the
  /// encoding pins down everything the sub-demand solver and checker consume
  /// (per-member α/β and which members serialise on a shared port). The
  /// converse may not hold when colour refinement leaves symmetric ties —
  /// two isomorphic groups can then canonicalise differently and merely miss
  /// a dedup opportunity, which is safe.
  ///
  /// This per-group form is the repo's group-isomorphism test: sketch
  /// pruning #2 groups by signature and it keys the sub-demand solve cache
  /// (its bytes are pinned by EpochModel.CanonicalKeyGolden). Its index
  /// tie-breaks depend on the caller's labelling, so whole-topology keys
  /// use the label-invariant serve/canonical form instead.
  struct CanonicalForm {
    std::string signature;
    std::vector<int> perm;  ///< local member index -> canonical position
  };

  /// The canonical form, computed on demand. `freeze_canonical()` caches it
  /// (extract_groups freezes every group so hot paths never recompute);
  /// hand-built groups that skip freezing just pay the recomputation.
  CanonicalForm canonical_form() const;
  void freeze_canonical();

  /// Canonical structural signature (`canonical_form().signature`); equal
  /// signatures ⇒ the groups are positionally isomorphic under their
  /// canonical orders. Replaces the historical sorted-multiset encoding,
  /// which was position-blind: a group with rank 0's link degraded and a
  /// group with rank 3's link degraded shared a signature, so cached
  /// sub-schedules could be served with the slow link in the wrong place.
  std::string signature() const;

  /// Cached canonical form (empty signature = not yet computed). Treat as
  /// private; use canonical_form().
  CanonicalForm canon_;
};

/// One dimension: a tier of isomorphic (or categorised) groups.
struct DimensionInfo {
  int tier = 0;                       ///< hop distance of the backing switches
  std::string link_kind;              ///< kind of the bottleneck links
  std::vector<GroupTopology> groups;
  /// Aggregate capacity share of this dimension (distinct up-port count at
  /// the dimension's modal port bandwidth — robust to a minority of degraded
  /// links), normalised across dimensions by extract_groups: used as u_d in
  /// §4.2.
  double bandwidth_share = 0.0;
  /// The dimension whose physical ports this one consumes. A spine tier
  /// whose bottleneck is the rail NICs has capacity_dim = the rail
  /// dimension; dimensions with their own ports point at themselves. The
  /// §4.2 chunk allocator aggregates workloads by capacity_dim.
  int capacity_dim = -1;
};

/// The full dimension/group decomposition of a topology.
struct TopologyGroups {
  std::vector<DimensionInfo> dims;
  /// group_of[d][rank] = group index of `rank` in dimension d, or -1 if the
  /// rank is not covered by dimension d.
  std::vector<std::vector<int>> group_of;

  int num_dims() const { return static_cast<int>(dims.size()); }

  /// Smallest (fastest) dimension whose group contains both ranks, or -1.
  int best_common_dim(int rank_a, int rank_b) const;

  const GroupTopology& group(int dim, int g) const {
    return dims.at(static_cast<std::size_t>(dim)).groups.at(static_cast<std::size_t>(g));
  }
};

/// Extracts dimensions and groups from a topology. Throws if the topology has
/// no GPUs or a GPU is unreachable from the switch fabric.
TopologyGroups extract_groups(const Topology& topo);

}  // namespace syccl::topo
