#pragma once

// Heterogeneous-capacity extension (paper Section VIII future work).
//
// Servers may have different capacities C_1..C_m. The paper's Algorithm 2
// generalizes directly: the super-optimal pool becomes sum_j C_j with each
// thread capped at max_j C_j, and the max-heap already assigns to the
// largest remaining capacity. The 0.828 guarantee is NOT claimed here — the
// analysis (Lemmas V.5-V.8) leans on homogeneity — so this module is an
// engineering extension whose quality is measured empirically against the
// exact solver (bench/ext_heterogeneous).

#include <span>

#include "aa/problem.hpp"
#include "aa/solve_result.hpp"
#include "alloc/super_optimal.hpp"
#include "support/prng.hpp"

namespace aa::core {

/// AA instance with per-server capacities.
struct HeteroInstance {
  std::vector<Resource> capacities;  ///< One entry per server.
  std::vector<UtilityPtr> threads;

  [[nodiscard]] std::size_t num_servers() const noexcept {
    return capacities.size();
  }
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return threads.size();
  }
  [[nodiscard]] Resource max_capacity() const;
  [[nodiscard]] Resource total_capacity() const;

  /// Same contract as Instance::validate(); thread domains must cover the
  /// largest server.
  void validate() const;
};

[[nodiscard]] double total_utility(const HeteroInstance& instance,
                                   const Assignment& assignment);

[[nodiscard]] std::string check_assignment(const HeteroInstance& instance,
                                           const Assignment& assignment,
                                           double tol = 1e-9);

/// Algorithm 2 generalized to heterogeneous capacities (pipeline: pooled
/// super-optimal -> linearize -> peak/density sort -> max-remaining heap).
[[nodiscard]] SolveResult solve_algorithm2_hetero(
    const HeteroInstance& instance,
    const alloc::SuperOptimalOptions& options = {});

/// Round-robin + equal split baseline (UU analogue).
[[nodiscard]] Assignment heuristic_uu_hetero(const HeteroInstance& instance);

/// Exhaustive reference for small instances (same canonical-partition
/// search as solve_exact, but capacities break server symmetry, so all
/// m^n labelings are explored). n <= max_threads (default 10).
[[nodiscard]] double solve_exact_hetero(const HeteroInstance& instance,
                                        std::size_t max_threads = 10);

}  // namespace aa::core
