#include "sketch/sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace syccl::sketch {

int Sketch::descendants(int rank) const {
  int count = 0;
  for (std::size_t v = 0; v < parent.size(); ++v) {
    // Walk up from v; if the path passes through `rank`, v is a descendant.
    int cur = parent[v];
    while (cur >= 0) {
      if (cur == rank) {
        ++count;
        break;
      }
      cur = parent[static_cast<std::size_t>(cur)];
    }
  }
  return count;
}

std::vector<int> Sketch::subtree_sizes() const {
  // Every rank on v's path to the root gains v as a descendant.
  std::vector<int> count(parent.size(), 0);
  for (std::size_t v = 0; v < parent.size(); ++v) {
    for (int cur = parent[v]; cur >= 0; cur = parent[static_cast<std::size_t>(cur)]) {
      ++count[static_cast<std::size_t>(cur)];
    }
  }
  return count;
}

namespace {

/// descendants(v) read from a subtree_sizes() table.
int subtree_size(const std::vector<int>& sizes, int v) {
  return v >= 0 && static_cast<std::size_t>(v) < sizes.size() ? sizes[static_cast<std::size_t>(v)]
                                                               : 0;
}

}  // namespace

std::vector<std::vector<double>> Sketch::workload(const topo::TopologyGroups& groups) const {
  std::vector<std::vector<double>> w(static_cast<std::size_t>(groups.num_dims()));
  for (int d = 0; d < groups.num_dims(); ++d) {
    w[static_cast<std::size_t>(d)].assign(groups.dims[static_cast<std::size_t>(d)].groups.size(),
                                          0.0);
  }
  const std::vector<int> subtree =
      pattern == RootedPattern::Scatter ? subtree_sizes() : std::vector<int>{};
  for (const Stage& st : stages) {
    for (const SubDemandSpec& r : st.demands) {
      double load = 0.0;
      for (int v : r.dsts) {
        load += pattern == RootedPattern::Scatter ? 1.0 + subtree_size(subtree, v) : 1.0;
      }
      w[static_cast<std::size_t>(r.dim)][static_cast<std::size_t>(r.group)] += load;
    }
  }
  return w;
}

std::vector<double> Sketch::dim_workload(const topo::TopologyGroups& groups) const {
  const auto w = workload(groups);
  std::vector<double> out(w.size(), 0.0);
  for (std::size_t d = 0; d < w.size(); ++d) {
    for (double g : w[d]) out[d] += g;
  }
  return out;
}

std::string Sketch::canonical_key(const topo::TopologyGroups& groups) const {
  // Encode each stage as the sorted multiset of
  // (dim, group-isomorphism-size, |srcs|, |dsts|, per-dst subtree sizes).
  // GPU identities and group indices are erased, so sketches related by a
  // topology automorphism collapse to the same key.
  std::ostringstream os;
  os << (pattern == RootedPattern::Scatter ? "S" : "B") << "|";
  const std::vector<int> subtree =
      pattern == RootedPattern::Scatter ? subtree_sizes() : std::vector<int>{};
  for (const Stage& st : stages) {
    std::vector<std::string> parts;
    for (const SubDemandSpec& r : st.demands) {
      std::ostringstream ps;
      ps << r.dim << ":" << groups.group(r.dim, r.group).size() << ":" << r.srcs.size() << ":"
         << r.dsts.size();
      if (pattern == RootedPattern::Scatter) {
        std::multiset<int> subtrees;
        for (int v : r.dsts) subtrees.insert(subtree_size(subtree, v));
        ps << ":[";
        for (int s : subtrees) ps << s << ",";
        ps << "]";
      }
      parts.push_back(ps.str());
    }
    std::sort(parts.begin(), parts.end());
    for (const auto& p : parts) os << p << ";";
    os << "/";
  }
  return os.str();
}

void Sketch::validate(const topo::TopologyGroups& groups) const {
  const int num_ranks =
      groups.group_of.empty() ? 0 : static_cast<int>(groups.group_of.front().size());
  // One byte of marks per rank: kHolds — the rank holds the chunk before the
  // current stage (the root, or a destination of an earlier stage); kDst —
  // the rank was a destination of this or an earlier stage.
  constexpr unsigned char kHolds = 1;
  constexpr unsigned char kDst = 2;
  std::vector<unsigned char> mark(static_cast<std::size_t>(num_ranks), 0);
  if (root >= 0 && root < num_ranks) mark[static_cast<std::size_t>(root)] = kHolds;
  for (const Stage& st : stages) {
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
        if ((mark[static_cast<std::size_t>(s)] & kHolds) == 0) {
          throw std::invalid_argument("source does not hold the chunk yet");
        }
      }
      for (int v : r.dsts) {
        if (v < 0 || v >= num_ranks) throw std::invalid_argument("dst rank out of range");
        if (gd[static_cast<std::size_t>(v)] != r.group) {
          throw std::invalid_argument("dst outside its group");
        }
        if (v == root || (mark[static_cast<std::size_t>(v)] & kDst) != 0) {
          throw std::invalid_argument("rank is a destination more than once");
        }
        mark[static_cast<std::size_t>(v)] |= kDst;
        // A Scatter destination pulls its data from its relay parent, which
        // must therefore send in this sub-demand.
        if (pattern == RootedPattern::Scatter && static_cast<int>(parent.size()) == num_ranks &&
            std::find(r.srcs.begin(), r.srcs.end(), parent[static_cast<std::size_t>(v)]) ==
                r.srcs.end()) {
          throw std::invalid_argument("scatter destination's parent is not a source");
        }
      }
    }
    // This stage's destinations hold the chunk from the next stage on.
    for (const SubDemandSpec& r : st.demands) {
      for (int v : r.dsts) mark[static_cast<std::size_t>(v)] |= kHolds;
    }
  }
  // Relay tree consistency.
  if (!parent.empty()) {
    if (static_cast<int>(parent.size()) != num_ranks) {
      throw std::invalid_argument("parent vector size mismatch");
    }
    if (root < 0 || root >= num_ranks) throw std::invalid_argument("root rank out of range");
    if (parent[static_cast<std::size_t>(root)] != -1) {
      throw std::invalid_argument("root must not have a parent");
    }
    for (int v = 0; v < num_ranks; ++v) {
      if ((mark[static_cast<std::size_t>(v)] & kDst) != 0 &&
          parent[static_cast<std::size_t>(v)] < 0) {
        throw std::invalid_argument("destination without a parent in the relay tree");
      }
    }
  }
}

std::vector<int> Sketch::covered_ranks() const {
  std::set<int> out{root};
  for (const Stage& st : stages) {
    for (const SubDemandSpec& r : st.demands) out.insert(r.dsts.begin(), r.dsts.end());
  }
  return {out.begin(), out.end()};
}

std::string Sketch::describe() const {
  std::ostringstream os;
  os << (pattern == RootedPattern::Scatter ? "Scatter" : "Broadcast") << " sketch root=" << root;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    os << " | stage " << k << ":";
    for (const auto& r : stages[k].demands) {
      os << " D" << r.dim << ".G" << r.group << "{" << r.srcs.size() << "->" << r.dsts.size()
         << "}";
    }
  }
  return os.str();
}

double SketchCombination::total_fraction() const {
  double sum = 0.0;
  for (const auto& ws : sketches) sum += ws.fraction;
  return sum;
}

std::vector<double> SketchCombination::dim_workload(const topo::TopologyGroups& groups) const {
  std::vector<double> out(static_cast<std::size_t>(groups.num_dims()), 0.0);
  for (const auto& ws : sketches) {
    const auto w = ws.sketch.dim_workload(groups);
    for (std::size_t d = 0; d < w.size(); ++d) out[d] += ws.fraction * w[d];
  }
  return out;
}

std::string SketchCombination::describe() const {
  // Summarise fractions as distinct value × count pairs (combinations can
  // hold hundreds of replicas sharing a handful of fractions).
  std::map<long long, int> counts;
  for (const auto& ws : sketches) counts[std::llround(ws.fraction * 1e6)]++;
  std::ostringstream os;
  os << sketches.size() << "-sketch combination (fractions:";
  for (const auto& [f, c] : counts) {
    os << " " << static_cast<double>(f) / 1e6 << "x" << c;
  }
  os << ")";
  return os.str();
}

}  // namespace syccl::sketch
