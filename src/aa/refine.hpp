#pragma once

// Per-server allocation refinement.
//
// Algorithms 1 and 2 output the allocations of the *linearized* problem
// (full threads get c_hat, unfull threads get the server's leftovers). Once
// the assignment is fixed, however, each server is an independent
// single-server concave allocation problem — polynomially solvable ([12],
// [16]) — so re-running the exact allocator per server can only improve the
// objective while preserving every approximation guarantee.
//
// This refinement is what closes the gap between the raw pseudocode
// (~97.5-98.5% of the super-optimal bound on the paper's workloads) and the
// paper's reported ">= 99% of optimal": the authors' evaluation pipeline
// re-allocates within servers, as any real deployment (e.g. a cache
// partitioner) would. See DESIGN.md and bench/ablation_design.

#include "aa/problem.hpp"
#include "aa/solve_result.hpp"
#include "alloc/super_optimal.hpp"

namespace aa::core {

/// Re-optimizes allocations within every server, keeping the placement
/// fixed. Never decreases total utility.
[[nodiscard]] Assignment reoptimize_allocations(const Instance& instance,
                                                const Assignment& placement);

/// Algorithm 2 followed by per-server re-allocation (the paper's evaluated
/// configuration). `linearized_utility` and `super_optimal_utility` report
/// the pre-refinement certificates; `utility` is post-refinement. Records
/// one certificate ("algorithm2_refined"), for the refined result.
[[nodiscard]] SolveResult solve_algorithm2_refined(
    const Instance& instance, const alloc::SuperOptimalOptions& options = {});

/// Algorithm 1 followed by per-server re-allocation; records one
/// certificate ("algorithm1_refined").
[[nodiscard]] SolveResult solve_algorithm1_refined(
    const Instance& instance, const alloc::SuperOptimalOptions& options = {});

}  // namespace aa::core
