#include "solver/greedy.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace syccl::solver {

namespace {

struct PieceState {
  /// Members holding the piece, sorted by (arrival epoch, member index).
  /// Sends of one epoch are appended in ascending destination order and all
  /// arrive at the same, strictly later epoch, so plain appends keep the
  /// order.
  std::vector<int> holders;
  std::vector<int> holder_arrival;  ///< parallel to `holders`
  std::vector<int> unserved;        ///< unserved destinations, ascending
};

std::vector<int> sorted_unique(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

SubSchedule solve_greedy(const SubDemand& demand, const EpochParams& params) {
  demand.validate();
  if (params.lat_epochs < 1 || params.capacity < 1 || params.occupancy < 1) {
    throw std::invalid_argument("greedy scheduler needs L, C and O of at least 1");
  }
  const topo::GroupTopology& g = *demand.group;
  const int n = g.size();
  const int np = static_cast<int>(demand.pieces.size());
  const int L = params.lat_epochs;
  const int C = params.capacity;
  const int O = params.occupancy;

  const PortSlots slots = port_slots(g);
  const int num_slots = slots.num_slots;

  std::vector<PieceState> state(static_cast<std::size_t>(np));
  long total_remaining = 0;
  for (int p = 0; p < np; ++p) {
    PieceState& ps = state[static_cast<std::size_t>(p)];
    const DemandPiece& dp = demand.pieces[static_cast<std::size_t>(p)];
    ps.unserved = sorted_unique(dp.dsts);
    ps.holders = sorted_unique(dp.srcs);
    ps.holder_arrival.assign(ps.holders.size(), 0);
    total_remaining += static_cast<long>(ps.unserved.size());
  }

  // busy[(e mod O) * num_slots + slot] = sends occupying `slot` at epoch e,
  // for the O epochs e = t .. t+O-1 a send issued at epoch t occupies. Every
  // send occupies O epochs, so at epoch t the row of t is the fullest of the
  // ring: a port is free for a new send iff its row-t counter is below C.
  std::vector<int> busy(static_cast<std::size_t>(O) * static_cast<std::size_t>(num_slots), 0);
  auto row = [&](int epoch) {
    return &busy[static_cast<std::size_t>(epoch % O) * static_cast<std::size_t>(num_slots)];
  };

  SubSchedule out;
  out.params = params;

  const long safety_epochs = static_cast<long>(np) * n * std::max(O, L) + n + 16;

  std::vector<int> piece_order(static_cast<std::size_t>(np));
  int completion = 0;
  for (int t = 0; total_remaining > 0; ++t) {
    if (t > safety_epochs) {
      throw std::logic_error("greedy scheduler failed to converge (demand unreachable?)");
    }
    if (t > 0) {
      // The row of epoch t-1 becomes the row of epoch t-1+O, which no send
      // issued so far reaches.
      std::fill_n(row(t - 1), num_slots, 0);
    }
    const int* now = row(t);
    int free_up = 0, free_down = 0;
    for (int s = 0; s < slots.num_up; ++s) free_up += now[s] < C ? 1 : 0;
    for (int s = slots.num_up; s < num_slots; ++s) free_down += now[s] < C ? 1 : 0;

    // Pieces with the most unserved destinations go first (stable, so ties
    // keep piece index order). Each piece then serves its unserved
    // destinations in ascending order, each from the earliest-arrived holder
    // whose up-port is free (lowest member index among equals), which
    // balances relay load deterministically.
    for (int p = 0; p < np; ++p) piece_order[static_cast<std::size_t>(p)] = p;
    std::stable_sort(piece_order.begin(), piece_order.end(), [&](int a, int b) {
      return state[static_cast<std::size_t>(a)].unserved.size() >
             state[static_cast<std::size_t>(b)].unserved.size();
    });

    // One pass per epoch suffices (DESIGN.md §4j): port usage only grows
    // within the epoch and every send arrives at t + L > t, so a destination
    // skipped once stays unschedulable until the next epoch.
    for (int p : piece_order) {
      if (free_up == 0 || free_down == 0) break;
      PieceState& ps = state[static_cast<std::size_t>(p)];
      if (ps.unserved.empty()) continue;
      const std::size_t eligible = static_cast<std::size_t>(
          std::upper_bound(ps.holder_arrival.begin(), ps.holder_arrival.end(), t) -
          ps.holder_arrival.begin());
      // Holders before the cursor have a full up-port for the rest of the
      // epoch, so the first free one at or after it is the full scan's pick.
      std::size_t cursor = 0;
      std::size_t kept = 0;
      std::size_t i = 0;
      const std::size_t num_unserved = ps.unserved.size();
      for (; i < num_unserved && free_down > 0; ++i) {
        const int d = ps.unserved[i];
        while (cursor < eligible && now[slots.up[static_cast<std::size_t>(ps.holders[cursor])]] >= C) {
          ++cursor;
        }
        if (cursor == eligible) break;
        const int ds = slots.down[static_cast<std::size_t>(d)];
        if (now[ds] >= C) {
          ps.unserved[kept++] = d;
          continue;
        }
        const int src = ps.holders[cursor];
        const int us = slots.up[static_cast<std::size_t>(src)];
        for (int o = 0; o < O; ++o) {
          ++row(t + o)[us];
          ++row(t + o)[ds];
        }
        if (now[us] == C) --free_up;
        if (now[ds] == C) --free_down;
        out.ops.push_back(SubOp{p, src, d, t});
        --total_remaining;
        ps.holders.push_back(d);
        ps.holder_arrival.push_back(t + L);
        completion = std::max(completion, t + L);
      }
      if (kept != i) {
        std::copy(ps.unserved.begin() + static_cast<std::ptrdiff_t>(i), ps.unserved.end(),
                  ps.unserved.begin() + static_cast<std::ptrdiff_t>(kept));
        ps.unserved.resize(kept + (num_unserved - i));
      }
    }
  }

  out.num_epochs = completion;
  check_sub_schedule(demand, out);
  return out;
}

}  // namespace syccl::solver
