#include "solver/epoch_model.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace syccl::solver {

namespace {

std::vector<int> invert_perm(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size(), -1);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
  }
  return inv;
}

}  // namespace

PortSlots port_slots(const topo::GroupTopology& g) {
  PortSlots out;
  for (const auto* ports : {&g.up, &g.down}) {
    std::vector<int> ids;
    ids.reserve(ports->size());
    for (const auto& p : *ports) ids.push_back(p.port_id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<int>& slot = ports == &g.up ? out.up : out.down;
    for (const auto& p : *ports) {
      slot.push_back(out.num_slots +
                     static_cast<int>(std::lower_bound(ids.begin(), ids.end(), p.port_id) - ids.begin()));
    }
    out.num_slots += static_cast<int>(ids.size());
    if (ports == &g.up) out.num_up = out.num_slots;
  }
  return out;
}

SubScheduleRemap CanonicalDemand::to_canonical() const {
  if (identity) return {};
  return SubScheduleRemap{member_perm, piece_perm};
}

SubScheduleRemap CanonicalDemand::from_canonical() const {
  if (identity) return {};
  return SubScheduleRemap{invert_perm(member_perm), invert_perm(piece_perm)};
}

CanonicalDemand SubDemand::canonical() const {
  // Canonicalise the group first (stable member relabelling under positional
  // isomorphism), then express every piece in canonical member indices and
  // sort the pieces by that encoding. Demands with equal keys are identical
  // in canonical coordinates, so cached canonical schedules transfer exactly.
  if (group == nullptr) throw std::invalid_argument("sub-demand without group");
  const topo::GroupTopology::CanonicalForm form = group->canonical_form();
  const auto& perm = form.perm;
  const std::size_t np = pieces.size();

  // Piece encoding: "<srcs>:<dsts>", each list the sorted canonical members
  // written as "<decimal>,".
  std::vector<std::string> enc(np);
  std::vector<int> members;
  const auto append_sorted = [&](std::string& e, const std::vector<int>& locals) {
    members.clear();
    for (int x : locals) members.push_back(perm.at(static_cast<std::size_t>(x)));
    std::sort(members.begin(), members.end());
    char buf[16];
    for (int x : members) {
      e.append(buf, static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, x).ptr - buf));
      e.push_back(',');
    }
  };
  for (std::size_t t = 0; t < np; ++t) {
    const auto& p = pieces[t];
    std::string& e = enc[t];
    e.reserve(4 * (p.srcs.size() + p.dsts.size()) + 1);
    append_sorted(e, p.srcs);
    e.push_back(':');
    append_sorted(e, p.dsts);
  }

  // Canonical piece order: by encoding, ties by list position. Ties are
  // pieces indistinguishable in canonical coordinates, so any consistent
  // order is sound.
  std::vector<std::size_t> ord(np);
  for (std::size_t t = 0; t < np; ++t) ord[t] = t;
  std::sort(ord.begin(), ord.end(), [&](std::size_t a, std::size_t b) {
    const int c = enc[a].compare(enc[b]);
    return c != 0 ? c < 0 : a < b;
  });

  CanonicalDemand out;
  out.member_perm = perm;
  out.piece_perm.assign(np, -1);
  for (std::size_t k = 0; k < np; ++k) {
    const int id = pieces[ord[k]].id;
    if (id < 0 || static_cast<std::size_t>(id) >= np || out.piece_perm[static_cast<std::size_t>(id)] != -1) {
      throw std::invalid_argument("sub-demand piece ids are not a permutation of [0, n)");
    }
    out.piece_perm[static_cast<std::size_t>(id)] = static_cast<int>(k);
  }

  std::ostringstream head;
  head << form.signature << "#s=" << std::hexfloat << piece_bytes << "#";
  const std::string prefix = head.str();
  std::size_t key_size = prefix.size();
  for (const auto& e : enc) key_size += e.size() + 1;
  out.key.reserve(key_size);
  out.key += prefix;
  for (std::size_t k = 0; k < np; ++k) {
    out.key += enc[ord[k]];
    out.key.push_back(';');
  }

  out.identity = true;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != static_cast<int>(i)) out.identity = false;
  }
  for (std::size_t i = 0; i < np; ++i) {
    if (out.piece_perm[i] != static_cast<int>(i)) out.identity = false;
  }
  return out;
}

void SubDemand::validate() const {
  if (group == nullptr) throw std::invalid_argument("sub-demand without group");
  if (pieces.empty()) throw std::invalid_argument("sub-demand without pieces");
  if (piece_bytes <= 0) throw std::invalid_argument("sub-demand piece_bytes must be positive");
  const int n = group->size();
  for (const auto& p : pieces) {
    if (p.srcs.empty()) throw std::invalid_argument("piece without sources");
    for (int s : p.srcs) {
      if (s < 0 || s >= n) throw std::invalid_argument("piece src out of group");
    }
    if (p.dsts.empty()) throw std::invalid_argument("piece without destinations");
    for (int d : p.dsts) {
      if (d < 0 || d >= n) throw std::invalid_argument("piece dst out of group");
      for (int s : p.srcs) {
        if (d == s) throw std::invalid_argument("piece dst equals src");
      }
    }
  }
}

void check_sub_schedule(const SubDemand& demand, const SubSchedule& sched) {
  demand.validate();
  const topo::GroupTopology& g = *demand.group;
  const int n = g.size();
  const EpochParams& ep = sched.params;

  // Dense row per distinct piece id; an op naming an unknown id has no row.
  std::vector<int> ids;
  ids.reserve(demand.pieces.size());
  for (const auto& p : demand.pieces) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto row_of = [&](int id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    return it != ids.end() && *it == id ? static_cast<std::size_t>(it - ids.begin()) : ids.size();
  };

  // arrival[row * n + local] = epoch at which the piece becomes usable.
  constexpr int kNever = std::numeric_limits<int>::max();
  std::vector<int> arrival(ids.size() * static_cast<std::size_t>(n), kNever);
  for (const auto& p : demand.pieces) {
    for (int s : p.srcs) arrival[row_of(p.id) * static_cast<std::size_t>(n) + static_cast<std::size_t>(s)] = 0;
  }

  const PortSlots slots = port_slots(g);
  const auto num_slots = static_cast<std::size_t>(slots.num_slots);

  std::vector<SubOp> sorted;
  const std::vector<SubOp>* ops = &sched.ops;
  const auto by_start = [](const SubOp& a, const SubOp& b) { return a.start_epoch < b.start_epoch; };
  if (!std::is_sorted(sched.ops.begin(), sched.ops.end(), by_start)) {
    sorted = sched.ops;
    std::stable_sort(sorted.begin(), sorted.end(), by_start);
    ops = &sorted;
  }

  // Port usage per (slot, epoch) for the epochs [window, window + O): row
  // e mod O holds epoch e. Ops come in start order and any op that passes
  // the availability check starts at epoch >= 0, so when the window moves
  // to a later start the rows of the epochs it leaves are final and get
  // recycled, zeroed, for the epochs it enters.
  const int rows = std::max(ep.occupancy, 1);
  std::vector<int> usage(static_cast<std::size_t>(rows) * num_slots, 0);
  auto row = [&](int epoch) { return usage.begin() + static_cast<std::ptrdiff_t>((epoch % rows) * num_slots); };
  int window = 0;

  for (const auto& op : *ops) {
    if (op.src < 0 || op.src >= n || op.dst < 0 || op.dst >= n) {
      throw std::logic_error("sub-op endpoint outside group");
    }
    const std::size_t r = row_of(op.piece);
    if (r == ids.size() ||
        arrival[r * static_cast<std::size_t>(n) + static_cast<std::size_t>(op.src)] > op.start_epoch) {
      std::ostringstream os;
      os << "sub-op sends piece " << op.piece << " from " << op.src << " at epoch "
         << op.start_epoch << " before it is available";
      throw std::logic_error(os.str());
    }
    for (int e = window; e < std::min(op.start_epoch, window + rows); ++e) {
      std::fill_n(row(e), num_slots, 0);
    }
    window = std::max(window, op.start_epoch);
    const auto src = static_cast<std::size_t>(op.src);
    const auto dst = static_cast<std::size_t>(op.dst);
    for (int o = 0; o < ep.occupancy; ++o) {
      const auto u = row(op.start_epoch + o);
      for (const auto& [slot, port, dir] : {std::tuple{slots.up[src], g.up[src].port_id, " (up)"},
                                             std::tuple{slots.down[dst], g.down[dst].port_id, " (down)"}}) {
        if (++u[slot] > ep.capacity) {
          std::ostringstream os;
          os << "port " << port << dir << " over capacity at epoch " << op.start_epoch + o;
          throw std::logic_error(os.str());
        }
      }
    }
    int& a = arrival[r * static_cast<std::size_t>(n) + dst];
    a = std::min(a, op.start_epoch + ep.lat_epochs);
  }

  int completion = 0;
  for (const auto& p : demand.pieces) {
    for (int d : p.dsts) {
      const int a = arrival[row_of(p.id) * static_cast<std::size_t>(n) + static_cast<std::size_t>(d)];
      if (a == kNever) {
        std::ostringstream os;
        os << "demand unmet: piece " << p.id << " never reaches " << d;
        throw std::logic_error(os.str());
      }
      completion = std::max(completion, a);
    }
  }
  if (completion > sched.num_epochs) {
    std::ostringstream os;
    os << "schedule claims " << sched.num_epochs << " epochs but completes at " << completion;
    throw std::logic_error(os.str());
  }
}

SubSchedule remap_sub_schedule(const SubSchedule& sched, const std::vector<int>& mapping) {
  SubSchedule out = sched;
  for (auto& op : out.ops) {
    if (op.src < 0 || static_cast<std::size_t>(op.src) >= mapping.size() || op.dst < 0 ||
        static_cast<std::size_t>(op.dst) >= mapping.size()) {
      throw std::invalid_argument("sub-op endpoint outside mapping");
    }
    op.src = mapping[static_cast<std::size_t>(op.src)];
    op.dst = mapping[static_cast<std::size_t>(op.dst)];
  }
  return out;
}

SubSchedule remap_sub_schedule(const SubSchedule& sched, const SubScheduleRemap& remap) {
  if (remap.is_identity()) return sched;
  SubSchedule out = remap_sub_schedule(sched, remap.member);
  for (auto& op : out.ops) {
    if (op.piece < 0 || static_cast<std::size_t>(op.piece) >= remap.piece.size()) {
      throw std::invalid_argument("sub-op piece outside remap");
    }
    op.piece = remap.piece[static_cast<std::size_t>(op.piece)];
  }
  return out;
}

}  // namespace syccl::solver
