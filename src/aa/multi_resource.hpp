#pragma once

// Multi-resource extension (paper Section VIII future work: "we would like
// to extend our algorithm to accommodate ... multiple types [of] resources").
//
// Model: every server carries R resource types with capacities C_1..C_R
// (servers homogeneous, as in the paper); thread i's utility is ADDITIVE
// across types, f_i(x_1..x_R) = sum_r f_ir(x_r) with each f_ir concave.
// Additivity keeps the structure of the paper intact:
//
//   * the pooled super-optimal bound decomposes per type
//     (F_hat = sum_r F_hat_r, each computed exactly as in Definition V.1);
//   * once a placement is fixed, the allocation decomposes into R
//     independent single-server concave problems per server — solved
//     exactly, so the only heuristic part is the placement;
//   * the Algorithm 2 generalization sorts by the multi-type linearized
//     peak and places each thread on the server where it obtains the
//     greatest linearized utility from the remaining capacities (ties
//     broken by total normalized remaining capacity, the heap rule) — the
//     per-type-blind "fullest server" rule demonstrably mis-packs threads
//     with skewed type demands.
//
// No approximation factor is claimed (the paper leaves this open); quality
// is measured against the exact solver in tests and bench/ext_multiresource.
// Cross-type complements (e.g. Leontief min_r f_ir) are out of scope here —
// they break the per-type decomposition that makes this extension exact
// after placement.

#include <vector>

#include "aa/problem.hpp"
#include "alloc/super_optimal.hpp"

namespace aa::core {

/// A thread's per-type utility bundle: one concave function per resource
/// type; f(x_vec) = sum_r parts[r](x_vec[r]).
struct MultiUtility {
  std::vector<UtilityPtr> parts;
};

struct MultiInstance {
  std::size_t num_servers = 0;
  std::vector<Resource> capacities;  ///< One per resource type (same on
                                     ///< every server).
  std::vector<MultiUtility> threads;

  [[nodiscard]] std::size_t num_types() const noexcept {
    return capacities.size();
  }
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return threads.size();
  }

  /// Structural validation (shape, domains, nonnegativity); throws
  /// std::invalid_argument.
  void validate() const;
};

/// thread i runs on server[i] with alloc[i][r] units of type r.
struct MultiAssignment {
  std::vector<std::size_t> server;
  std::vector<std::vector<double>> alloc;

  [[nodiscard]] std::size_t size() const noexcept { return server.size(); }
};

[[nodiscard]] double total_utility(const MultiInstance& instance,
                                   const MultiAssignment& assignment);

/// Empty string when valid; first violation otherwise.
[[nodiscard]] std::string check_assignment(const MultiInstance& instance,
                                           const MultiAssignment& assignment,
                                           double tol = 1e-9);

struct MultiSolveResult {
  MultiAssignment assignment;
  double utility = 0.0;
  double super_optimal_utility = 0.0;  ///< sum_r per-type pooled bound.
};

/// Algorithm 2 generalized to additive multi-resource instances: per-type
/// super-optimal allocations, peak/density sorting on the summed linearized
/// utilities, normalized-remaining max-heap placement, then exact per-type
/// re-allocation within every server. `options` picks the super-optimal
/// strategy for every type.
[[nodiscard]] MultiSolveResult solve_algorithm2_multi(
    const MultiInstance& instance,
    const alloc::SuperOptimalOptions& options = {});

/// Round-robin placement + exact per-server allocation (the fair baseline).
[[nodiscard]] MultiSolveResult solve_round_robin_multi(
    const MultiInstance& instance);

/// Exhaustive placement search with exact per-server allocations
/// (n <= max_threads). Returns the optimal utility.
[[nodiscard]] double solve_exact_multi(const MultiInstance& instance,
                                       std::size_t max_threads = 10);

}  // namespace aa::core
