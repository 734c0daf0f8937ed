#pragma once

// Reference oracles for the differential tests and the aa_bench baselines.
// Each one is the simplest correct transcription of its algorithm; the
// library's shipped implementations are judged against them:
//
//  * allocate_bisection — the Galil-style lambda bisection behind the
//    super-optimal allocation (Definition V.1), one probe per thread per
//    price, no bracket narrowing. alloc::allocate_bisection_soa must match
//    it bit for bit (tests/super_optimal_equivalence_test.cpp).
//  * allocate_dp_exact — O(n pool^2) dynamic program; exact for arbitrary,
//    even non-concave, tabulated utilities on small pools.
//  * super_optimal_greedy — Definition V.1 through the heap greedy, a
//    second exact path that cross-checks the bisection.
//  * assign_algorithm1_reference — the literal O(m n^2) pseudocode of
//    Algorithm 1; core::assign_algorithm1 must match it bit for bit
//    (tests/algorithm1_equivalence_test.cpp), and aa_bench's
//    `alg1_reference` cases time it as the pre-optimization baseline.
//
// None of them records obs metrics, so an oracle run never pollutes a
// measurement session.

#include <span>

#include "aa/problem.hpp"
#include "alloc/allocator.hpp"
#include "alloc/super_optimal.hpp"
#include "utility/linearized.hpp"

namespace aa::oracle {

/// Exact threshold bisection over a pool of `pool` units, each thread
/// capped at min(f.capacity(), per_thread_cap). Requires concave utilities.
[[nodiscard]] alloc::AllocationResult allocate_bisection(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = alloc::kNoCap);

/// Exact dynamic program over integer units.
[[nodiscard]] alloc::AllocationResult allocate_dp_exact(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = alloc::kNoCap);

/// Super-optimal allocation over `num_servers * capacity` units (cap
/// `capacity`) via alloc::allocate_greedy.
[[nodiscard]] alloc::SuperOptimalResult super_optimal_greedy(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity);

/// Algorithm 1's assignment rounds, rescanning every (thread, server) pair
/// each round exactly as the paper's pseudocode does.
[[nodiscard]] core::Assignment assign_algorithm1_reference(
    const core::Instance& instance,
    std::span<const util::Linearized> linearized);

}  // namespace aa::oracle
