#pragma once

// Super-optimal allocation (paper Definition V.1): relax the m per-server
// capacity constraints to the single pooled constraint sum c_hat_i <= m*C
// (with each thread still capped at C, the domain of its utility function).
// Its utility F_hat upper-bounds the optimal AA utility F* (Lemma V.2), and
// both approximation algorithms take it as input.
//
// Strategy seam (docs/ALGORITHMS.md "Strategy seam"): every solver takes
// SuperOptimalOptions as an explicit argument (default serial), and
// `super_optimal_pooled` alone dispatches on it. The two exact strategies
// run the one exact implementation, allocate_bisection_soa: `serial` on the
// calling thread, `parallel` fanned across a thread pool; they return the
// same bits. `price` (single-price discovery with a documented tolerance,
// for the very-large-n regime) may fall below F_hat (never above), so
// branch-and-bound keeps to the exact strategies: its pruning needs a true
// upper bound. The literal reference bisection the exact path is pinned
// against lives in tests/oracles.

#include <span>
#include <string_view>

#include "alloc/allocator.hpp"

namespace aa::alloc {

struct SuperOptimalResult {
  std::vector<util::Resource> c_hat;  ///< Super-optimal allocation per thread.
  double utility = 0.0;               ///< F_hat = sum f_i(c_hat_i).
};

/// How super_optimal_with / super_optimal_pooled compute the allocation.
enum class SuperOptimalStrategy {
  kSerial,    ///< allocate_bisection_soa on the caller (default).
  kParallel,  ///< allocate_bisection_soa fanned across a pool: same bits.
  kPrice,     ///< allocate_price: tolerance contract, fastest at huge n.
};

struct SuperOptimalOptions {
  SuperOptimalStrategy strategy = SuperOptimalStrategy::kSerial;
  /// kPrice only: relative price-convergence tolerance (see allocate_price
  /// for the exact utility contract).
  double price_tolerance = 1e-9;
  /// kParallel/kPrice: pool for the probe fan-out; nullptr means
  /// support::global_pool(). kSerial never fans out.
  support::ThreadPool* workers = nullptr;
};

/// Computes a super-optimal allocation for `num_servers` servers of capacity
/// `capacity` each, using the threshold-bisection allocator on the calling
/// thread (the paper's O(n (log mC)^2) path, citing Galil [16]).
[[nodiscard]] SuperOptimalResult super_optimal(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity);

/// The same bisection, fanned across `workers` (nullptr means
/// support::global_pool()). Bit-identical to super_optimal for every input
/// and worker count — guaranteed by super_optimal_equivalence_test.
[[nodiscard]] SuperOptimalResult super_optimal_parallel(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity, support::ThreadPool* workers = nullptr);

/// Single-price discovery variant: utility is within
/// price_tol * (1 + max marginal) * m * C of F_hat and never above it (see
/// allocate_price). Not a valid bound source for branch-and-bound.
[[nodiscard]] SuperOptimalResult super_optimal_price(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity, double price_tol = 1e-9,
    support::ThreadPool* workers = nullptr);

/// super_optimal_pooled over `num_servers * capacity` units, cap `capacity`.
[[nodiscard]] SuperOptimalResult super_optimal_with(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity, const SuperOptimalOptions& options);

/// Dispatches on options.strategy for an explicit pool/cap pair (the
/// heterogeneous extension's bound: pool = sum C_j, cap = max C_j).
[[nodiscard]] SuperOptimalResult super_optimal_pooled(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap, const SuperOptimalOptions& options);

/// super_optimal_with at default options; kept only for the end-to-end
/// benchmark's layer replay (perfbench/replay.cpp).
[[nodiscard]] SuperOptimalResult super_optimal_routed(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity);

/// Parses "serial" | "parallel" | "price" (the aa_solve/aa_serve
/// --so-strategy values); throws std::invalid_argument otherwise.
[[nodiscard]] SuperOptimalStrategy parse_super_optimal_strategy(
    std::string_view name);
/// Parses a --so-price-tol value; throws std::invalid_argument unless it is
/// finite and in (0, 1) (at tol >= 1 the price bisection runs no probe).
[[nodiscard]] double parse_price_tolerance(std::string_view text);
[[nodiscard]] std::string_view super_optimal_strategy_name(
    SuperOptimalStrategy strategy);

}  // namespace aa::alloc
