// Sub-schedule merging (paper §5.2).
//
// Solved sub-schedules are stitched into one global schedule: ops are issued
// stage by stage and, inside a stage, epoch by epoch across all groups.
// Stages are NOT barriers — the simulator lets a GPU forward a piece the
// moment it arrives (Fig. 12(b)); the issue order only fixes per-port FIFO
// order.
//
// Merging is forward only. Reduce collectives (Reduce / Gather /
// ReduceScatter) reuse forward synthesis: the synthesizer merges and tunes
// the forward twin, then `reverse_schedule` flips every op (src↔dst) and
// reverses the global order, turning broadcast trees into reduction trees of
// identical cost (§4.1).
//
// Merging runs on flat arrays (DESIGN.md §4k): a counting sort over
// (stage, epoch) buckets reproduces the stable sort on (stage, epoch, demand
// index, op index) in linear time, and the estimated-start reorder
// propagates over a dense piece × rank table before one index sort.
#pragma once

#include <string>
#include <vector>

#include "core/subdemand.h"
#include "sim/schedule.h"
#include "solver/epoch_model.h"

namespace syccl::core {

/// Merges solved sub-schedules (parallel array to `plan.demands`) into a
/// global forward schedule. Throws std::invalid_argument on size mismatch or
/// a sub-op naming an unknown demand piece.
sim::Schedule merge_schedule(const DemandPlan& plan,
                             const std::vector<solver::SubSchedule>& solved,
                             const topo::TopologyGroups& groups, std::string name);

/// Rewrites forward pieces into reduce pieces over `contributors` (used by
/// reverse_schedule; exposed for tests).
std::vector<sim::Piece> reverse_pieces(const std::vector<sim::Piece>& pieces,
                                       const std::vector<int>& contributors);

/// Reverses a complete forward schedule into its inverse collective's
/// schedule: ops flipped and played backwards; pieces become reduce pieces
/// (`reduce` = true, Broadcast→Reduce) or keep their identity with the
/// origin moved to the forward destination (Scatter→Gather). Works on any
/// valid forward schedule, including ones whose issue order was tuned.
sim::Schedule reverse_schedule(const sim::Schedule& forward, bool reduce, int num_ranks,
                               std::string name);

}  // namespace syccl::core
