// Field-by-field sketch and combination comparison shared by the sketch
// front-end differential tests.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "sketch/sketch.h"

namespace syccl::sketch {

/// Root, pattern, every stage's dim/group/srcs/dsts in order, and the
/// relay tree must match.
inline void expect_same_sketch(const Sketch& got, const Sketch& want, const std::string& where) {
  ASSERT_EQ(got.root, want.root) << where;
  ASSERT_EQ(got.pattern, want.pattern) << where;
  ASSERT_EQ(got.stages.size(), want.stages.size()) << where;
  for (std::size_t k = 0; k < want.stages.size(); ++k) {
    const auto& gd = got.stages[k].demands;
    const auto& wd = want.stages[k].demands;
    ASSERT_EQ(gd.size(), wd.size()) << where << " stage " << k;
    for (std::size_t i = 0; i < wd.size(); ++i) {
      ASSERT_EQ(gd[i].dim, wd[i].dim) << where << " stage " << k << " demand " << i;
      ASSERT_EQ(gd[i].group, wd[i].group) << where << " stage " << k << " demand " << i;
      ASSERT_EQ(gd[i].srcs, wd[i].srcs) << where << " stage " << k << " demand " << i;
      ASSERT_EQ(gd[i].dsts, wd[i].dsts) << where << " stage " << k << " demand " << i;
    }
  }
  ASSERT_EQ(got.parent, want.parent) << where;
}

/// Same sketches in the same order, with bit-identical fractions.
inline void expect_same_combination(const SketchCombination& got, const SketchCombination& want,
                                    const std::string& where) {
  ASSERT_EQ(got.sketches.size(), want.sketches.size()) << where;
  for (std::size_t i = 0; i < want.sketches.size(); ++i) {
    const std::string at = where + " sketch " + std::to_string(i);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.sketches[i].fraction),
              std::bit_cast<std::uint64_t>(want.sketches[i].fraction))
        << at;
    expect_same_sketch(got.sketches[i].sketch, want.sketches[i].sketch, at);
  }
}

/// Non-asserting form of expect_same_combination: same sketches in the same
/// order (root, pattern, stages, relay tree) with bit-identical fractions.
inline bool identical_combinations(const SketchCombination& a, const SketchCombination& b) {
  if (a.sketches.size() != b.sketches.size()) return false;
  for (std::size_t i = 0; i < a.sketches.size(); ++i) {
    const WeightedSketch& x = a.sketches[i];
    const WeightedSketch& y = b.sketches[i];
    if (std::bit_cast<std::uint64_t>(x.fraction) != std::bit_cast<std::uint64_t>(y.fraction) ||
        x.sketch.root != y.sketch.root || x.sketch.pattern != y.sketch.pattern ||
        x.sketch.parent != y.sketch.parent ||
        x.sketch.stages.size() != y.sketch.stages.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.sketch.stages.size(); ++k) {
      const auto& xd = x.sketch.stages[k].demands;
      const auto& yd = y.sketch.stages[k].demands;
      if (xd.size() != yd.size()) return false;
      for (std::size_t j = 0; j < xd.size(); ++j) {
        if (xd[j].dim != yd[j].dim || xd[j].group != yd[j].group || xd[j].srcs != yd[j].srcs ||
            xd[j].dsts != yd[j].dsts) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace syccl::sketch
