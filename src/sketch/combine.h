// Cross-dimension chunk allocation (paper §4.2 step 2).
//
// Given up to |D| candidate combinations with different per-dimension
// workload profiles, find fractions t_i ≥ 0 (Σt_i = 1) such that the
// weighted workload share of every dimension matches its bandwidth share
// u_d — i.e., every dimension's links are saturated simultaneously. Solved
// exactly as a small LP; candidates without a non-negative solution are
// rejected (paper: "the candidate is deemed invalid").
#pragma once

#include <optional>
#include <vector>

#include "sketch/sketch.h"

namespace syccl::sketch {

struct CombineConfig {
  /// Accept allocations whose worst per-dimension share deviation is below
  /// this (exact solutions preferred; small slack tolerates rounding).
  double max_share_error = 0.05;
  /// Cap on the number of accepted combinations: balanced families on their
  /// own plus subsets with a valid allocation, copies of an earlier
  /// combination included. The cap thus stops the enumeration at the same
  /// subset whether or not copies are emitted; generate_combinations emits
  /// each distinct combination once, so it may return fewer.
  int max_outputs = 24;
  /// Drop combination members whose allocated fraction falls below this.
  double min_fraction = 1e-6;
};

/// Allocates chunk fractions across `candidates` to match the dimension
/// bandwidth shares. Returns the merged combination (each member sketch's
/// fraction scaled by its combination's t_i), or nullopt if invalid.
std::optional<SketchCombination> allocate_across_dims(
    const std::vector<SketchCombination>& candidates, const topo::TopologyGroups& groups,
    const CombineConfig& config = {});

/// Generates the full set of sketch combinations for a rooted collective
/// (§4.2): every input combination alone (small-size candidates, t=1), plus
/// every ≤|D|-subset integrated by allocate_across_dims (large-size
/// candidates). Each distinct combination is emitted once, at its first
/// occurrence: two are the same when they keep the same balanced families
/// with bit-identical fractions (a family alone has fraction 1). When
/// `duplicates` is given it receives the number of accepted subsets dropped
/// as copies.
std::vector<SketchCombination> generate_combinations(
    const std::vector<SketchCombination>& balanced, const topo::TopologyGroups& groups,
    const CombineConfig& config = {}, int* duplicates = nullptr);

}  // namespace syccl::sketch
