#pragma once

// Single-pool concave resource allocation substrate (paper Section II
// related work; used as a black box by Section V's Definition V.1).
//
// Problem: given threads with concave utility functions and a pool of `pool`
// integer resource units, choose allocations a_i in [0, min(cap_i, C_i)]
// with sum a_i <= pool maximizing sum f_i(a_i).
//
// Two exact algorithms are provided:
//  * allocate_greedy   — marginal-gain heap greedy (Fox et al. [12] style),
//                        O((n + pool) log n). Exact because concavity makes
//                        the per-unit marginal sequence nonincreasing, so the
//                        greedy exchange argument applies.
//  * allocate_bisection_soa — threshold search on the marginal value (Galil
//                        [16] style), O(n (log pool)^2 + n log n): binary-
//                        searches the Lagrange multiplier lambda, then
//                        distributes the residual units across the
//                        lambda-plateau. This is the algorithm the paper's
//                        complexity bounds cite.
//
// The super-optimal allocation of Definition V.1 is the same routine with
// pool = m * C (see super_optimal.hpp). Reference oracles (the literal
// bisection, an O(n pool^2) DP) live in tests/oracles.

#include <limits>
#include <span>
#include <vector>

#include "utility/utility_function.hpp"

namespace aa::support {
class ThreadPool;
}  // namespace aa::support

namespace aa::alloc {

struct AllocationResult {
  std::vector<util::Resource> amounts;  ///< One allocation per thread.
  double total_utility = 0.0;           ///< sum_i f_i(amounts[i]).
};

/// Per-thread allocation cap: each thread may receive at most
/// min(f.capacity(), per_thread_cap) units. Pass kNoCap for no extra bound.
inline constexpr util::Resource kNoCap =
    std::numeric_limits<util::Resource>::max();

/// Exact heap greedy. Requires concave utilities (nonincreasing marginals);
/// behaviour on non-concave inputs is unspecified.
[[nodiscard]] AllocationResult allocate_greedy(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = kNoCap);

/// Exact threshold bisection (same contract as allocate_greedy) over
/// structure-of-arrays marginal grids (raw tabulated grids where available)
/// with per-thread unit-bracket narrowing, optionally fanning the per-lambda
/// probes across `workers` via support::parallel_chunked_reduce. Every
/// reduced quantity is an integer count or an exact max, and the chunk
/// decomposition depends only on n, so the result is the same for every
/// worker count (nullptr runs all probes on the caller), and bit-identical
/// to the literal reference bisection in tests/oracles.
[[nodiscard]] AllocationResult allocate_bisection_soa(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = kNoCap,
    support::ThreadPool* workers = nullptr);

/// Single-price variant (price discovery in the style of Agrawal/Boyd et
/// al.): the same dual bisection, but it stops once the price bracket is
/// narrower than `price_tol * (1 + max_marginal)` instead of running to
/// machine precision. The allocation is always feasible for the pooled
/// problem, so its utility never exceeds the exact optimum F_hat, and the
/// shortfall is bounded by the unresolved plateau sliver:
///
///   utility >= F_hat - price_tol * (1 + max_marginal) * pool
///
/// (up to float rounding in the final summation). NOT a valid upper bound
/// on F_hat, so branch-and-bound pruning must keep using the exact paths.
[[nodiscard]] AllocationResult allocate_price(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = kNoCap, double price_tol = 1e-9,
    support::ThreadPool* workers = nullptr);

}  // namespace aa::alloc
