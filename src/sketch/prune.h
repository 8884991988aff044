// Pruning strategies for sketch exploration (paper §4.1).
//
//   #1 — isomorphism dedup: sketches related by a topology automorphism
//        synthesise equally fast schedules; keep one per canonical key.
//   #2 — consistency: across isomorphic groups of one dimension at one
//        stage, the destination/source ratio must be uniform (groups not
//        communicating, and the final stage, are excluded).
//   #3 — relay limit: bound root-path hops (Scatter relays add redundant
//        chunk loads); in practice X = |D| − 1 so each dimension is crossed
//        at most once.
//
// All three are exposed separately so the Fig. 17 ablations can toggle them.
#pragma once

#include <vector>

#include "sketch/sketch.h"

namespace syccl::sketch {

/// Removes isomorphic duplicates (pruning #1), keeping first occurrences.
std::vector<Sketch> dedup_isomorphic(std::vector<Sketch> sketches,
                                     const topo::TopologyGroups& groups);

/// Pruning #2 check for one stage: for every dimension and isomorphism class
/// of groups (equal GroupTopology::signature()), all *communicating* groups
/// must show the same |dsts|/|srcs| ratio. `is_final_stage` exempts the
/// stage entirely (paper rule).
bool stage_is_consistent(const Stage& stage, const topo::TopologyGroups& groups,
                         bool is_final_stage);

/// Pruning #3 helper: longest root-path (in stages-hops) of the sketch.
int max_relay_hops(const Sketch& sketch);

}  // namespace syccl::sketch
