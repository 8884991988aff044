#include "core/merge.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace syccl::core {

namespace {

/// Reorders ops by their contention-free estimated start time. The merged
/// (stage, epoch) order assumes stages start synchronously, but pieces
/// actually arrive spread out; since per-port execution is FIFO in issue
/// order, a not-yet-ready op would head-of-line block ready ones. Estimated
/// availability propagation preserves dependency order (an op's start is
/// strictly after the delivering op's start because α > 0).
///
/// `alpha[i]` / `beta[i]` are op i's pair α/β in its group. Availability is
/// a dense piece × rank table; an entry never written reads as 0.
void reorder_by_estimated_start(sim::Schedule& s, const std::vector<double>& alpha,
                                const std::vector<double>& beta, std::size_t ranks) {
  std::vector<double> avail(s.pieces.size() * ranks, 0.0);
  std::vector<std::uint8_t> present(avail.size(), 0);
  const auto seed = [&](std::size_t pi, int rank) {
    const std::size_t at = pi * ranks + static_cast<std::size_t>(rank);
    avail[at] = 0.0;
    present[at] = 1;
  };
  for (std::size_t pi = 0; pi < s.pieces.size(); ++pi) {
    const sim::Piece& p = s.pieces[pi];
    if (p.reduce) {
      for (int c : p.contributors) seed(pi, c);
    } else if (p.origin >= 0) {
      seed(pi, p.origin);
    }
  }
  std::vector<double> key(s.ops.size());
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const sim::TransferOp& op = s.ops[i];
    const sim::Piece& piece = s.pieces[static_cast<std::size_t>(op.piece)];
    const std::size_t row = static_cast<std::size_t>(op.piece) * ranks;
    const double t0 = avail[row + static_cast<std::size_t>(op.src)];
    // Same association as t0 + pair_alpha + pair_beta * bytes.
    const double arrival = t0 + alpha[i] + beta[i] * piece.bytes;
    key[i] = t0;
    const std::size_t at = row + static_cast<std::size_t>(op.dst);
    if (!present[at]) {
      avail[at] = arrival;
      present[at] = 1;
    } else if (piece.reduce) {
      avail[at] = std::max(avail[at], arrival);
    } else {
      avail[at] = std::min(avail[at], arrival);
    }
  }
  std::vector<std::uint32_t> idx(s.ops.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return key[a] < key[b]; });
  std::vector<sim::TransferOp> reordered;
  reordered.reserve(s.ops.size());
  for (std::uint32_t i : idx) reordered.push_back(s.ops[i]);
  s.ops = std::move(reordered);
}

}  // namespace

std::vector<sim::Piece> reverse_pieces(const std::vector<sim::Piece>& pieces,
                                       const std::vector<int>& contributors) {
  std::vector<sim::Piece> out;
  out.reserve(pieces.size());
  for (const auto& p : pieces) {
    sim::Piece r;
    // The reversed flow converges where the forward flow originated: the
    // forward origin rank identifies the reduced block.
    r.chunk = p.origin;
    r.bytes = p.bytes;
    r.origin = -1;
    r.reduce = true;
    r.contributors = contributors;
    out.push_back(std::move(r));
  }
  return out;
}

sim::Schedule merge_schedule(const DemandPlan& plan,
                             const std::vector<solver::SubSchedule>& solved,
                             const topo::TopologyGroups& groups, std::string name) {
  if (solved.size() != plan.demands.size()) {
    throw std::invalid_argument("solved sub-schedule count mismatch");
  }

  // Pass 1: validate pieces and find each stage's epoch range. Stage s owns
  // the buckets [stage_base[s], stage_base[s + 1]), one per epoch.
  int min_stage = std::numeric_limits<int>::max();
  int max_stage = std::numeric_limits<int>::min();
  for (const MergedSubDemand& md : plan.demands) {
    min_stage = std::min(min_stage, md.stage);
    max_stage = std::max(max_stage, md.stage);
  }
  const std::size_t num_stages =
      plan.demands.empty() ? 0 : static_cast<std::size_t>(max_stage - min_stage) + 1;
  std::vector<int> lo_epoch(num_stages, std::numeric_limits<int>::max());
  std::vector<int> hi_epoch(num_stages, std::numeric_limits<int>::min());
  std::size_t num_ops = 0;
  for (std::size_t di = 0; di < plan.demands.size(); ++di) {
    const MergedSubDemand& md = plan.demands[di];
    const std::size_t st = static_cast<std::size_t>(md.stage - min_stage);
    for (const solver::SubOp& so : solved[di].ops) {
      if (so.piece < 0 || static_cast<std::size_t>(so.piece) >= md.global_piece.size()) {
        throw std::invalid_argument("sub-op references unknown demand piece");
      }
      lo_epoch[st] = std::min(lo_epoch[st], so.start_epoch);
      hi_epoch[st] = std::max(hi_epoch[st], so.start_epoch);
    }
    num_ops += solved[di].ops.size();
  }
  std::vector<std::size_t> stage_base(num_stages + 1, 0);
  for (std::size_t st = 0; st < num_stages; ++st) {
    const std::size_t span = hi_epoch[st] < lo_epoch[st]
                                 ? 0
                                 : static_cast<std::size_t>(
                                       static_cast<long long>(hi_epoch[st]) - lo_epoch[st] + 1);
    stage_base[st + 1] = stage_base[st] + span;
  }
  const auto bucket_of = [&](const MergedSubDemand& md, const solver::SubOp& so) {
    const std::size_t st = static_cast<std::size_t>(md.stage - min_stage);
    return stage_base[st] +
           static_cast<std::size_t>(static_cast<long long>(so.start_epoch) - lo_epoch[st]);
  };

  // Pass 2: bucket sizes, prefix-summed into each bucket's first slot.
  std::vector<std::size_t> next(stage_base.back() + 1, 0);
  for (std::size_t di = 0; di < plan.demands.size(); ++di) {
    for (const solver::SubOp& so : solved[di].ops) ++next[bucket_of(plan.demands[di], so) + 1];
  }
  for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];

  // Pass 3: place every op, visiting demands and their ops in index order,
  // so each bucket keeps the (demand index, op index) order of a stable sort
  // on (stage, epoch). α/β come from the demand's own group and locals.
  sim::Schedule out;
  out.name = std::move(name);
  out.pieces = plan.pieces;
  out.ops.resize(num_ops);
  std::vector<double> alpha(num_ops);
  std::vector<double> beta(num_ops);
  for (std::size_t di = 0; di < plan.demands.size(); ++di) {
    const MergedSubDemand& md = plan.demands[di];
    const topo::GroupTopology& gt = groups.group(md.dim, md.group);
    for (const solver::SubOp& so : solved[di].ops) {
      const std::size_t at = next[bucket_of(md, so)]++;
      sim::TransferOp& top = out.ops[at];
      top.piece = md.global_piece[static_cast<std::size_t>(so.piece)];
      top.src = gt.ranks[static_cast<std::size_t>(so.src)];
      top.dst = gt.ranks[static_cast<std::size_t>(so.dst)];
      top.dim = md.dim;
      top.phase = 0;
      alpha[at] = gt.pair_alpha(so.src, so.dst);
      beta[at] = gt.pair_beta(so.src, so.dst);
    }
  }
  reorder_by_estimated_start(out, alpha, beta,
                             groups.group_of.empty() ? 0 : groups.group_of.front().size());
  return out;
}

sim::Schedule reverse_schedule(const sim::Schedule& forward, bool reduce, int num_ranks,
                               std::string name) {
  sim::Schedule out;
  out.name = std::move(name);
  if (reduce) {
    std::vector<int> contributors(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) contributors[static_cast<std::size_t>(r)] = r;
    out.pieces = reverse_pieces(forward.pieces, contributors);
  } else {
    // Gather reversal: the piece's chronologically last forward op delivers
    // it to its scatter destination — that destination becomes the origin.
    out.pieces = forward.pieces;
    std::vector<int> final_dst(forward.pieces.size(), -1);
    for (const auto& op : forward.ops) {
      final_dst[static_cast<std::size_t>(op.piece)] = op.dst;
    }
    for (std::size_t i = 0; i < out.pieces.size(); ++i) {
      if (final_dst[i] >= 0) out.pieces[i].origin = final_dst[i];
    }
  }
  for (auto it = forward.ops.rbegin(); it != forward.ops.rend(); ++it) {
    sim::TransferOp op = *it;
    std::swap(op.src, op.dst);
    out.ops.push_back(op);
  }
  return out;
}

}  // namespace syccl::core
