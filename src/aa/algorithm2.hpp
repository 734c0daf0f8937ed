#pragma once

// Algorithm 2 (paper Section VI): the faster O(n (log mC)^2)
// alpha = 2(sqrt(2)-1)-approximation.
//
//   1. Sort threads in nonincreasing order of the linearized peak
//      g_i(c_hat_i).
//   2. Re-sort threads m+1..n of that order in nonincreasing order of the
//      ramp density g_i(c_hat_i) / c_hat_i. (The paper's Section VI-A prose
//      says "nondecreasing", contradicting its own pseudocode and Lemma
//      V.10, which needs higher-density threads to receive more resource;
//      since servers only lose capacity over time, higher density must be
//      assigned earlier — nonincreasing. See DESIGN.md.)
//   3. Keep server remaining capacities in a max-heap; give each thread in
//      order min(c_hat_i, C_j) on the fullest server.

#include <span>

#include "aa/solve_result.hpp"
#include "alloc/super_optimal.hpp"

namespace aa::core {

/// Runs the full pipeline (aa/pipeline.hpp) with the sorted heap
/// assignment; records one certificate ("algorithm2") on the session.
[[nodiscard]] SolveResult solve_algorithm2(
    const Instance& instance, const alloc::SuperOptimalOptions& options = {});

/// Assignment phase only (precomputed linearization).
[[nodiscard]] Assignment assign_algorithm2(
    const Instance& instance, std::span<const util::Linearized> linearized);

/// Ablation hook: configurable sorting, used by bench/ablation_design to
/// quantify each design choice.
struct Algorithm2Options {
  bool sort_by_peak = true;      ///< Step 1 (off = keep input order).
  bool resort_tail_by_density = true;  ///< Step 2.
  bool density_nonincreasing = true;   ///< false reproduces the paper's typo.
};

/// Steps 1-3 over explicit per-server capacities (one entry per server),
/// recording no obs metrics: assign_algorithm2 runs it with m copies of C,
/// the heterogeneous extension with C_1..C_m.
[[nodiscard]] Assignment assign_sorted_heap(
    std::span<const util::Linearized> linearized,
    std::span<const Resource> capacities,
    const Algorithm2Options& options = {});

}  // namespace aa::core
