#pragma once

// The paper's solve pipeline (Sections V-VI), written once: relax, place
// (Algorithm 1, Algorithm 2 or the service's warm candidate), package, and
// optionally refine. solve_algorithm{1,2}[_refined], the heterogeneous
// extension and svc::WarmStartSolver are built from these pieces, none of
// which records a certificate: each public entry point certifies exactly
// the result it returns (aa/certify.hpp).

#include <span>
#include <vector>

#include "aa/problem.hpp"
#include "aa/solve_result.hpp"
#include "alloc/super_optimal.hpp"
#include "utility/linearized.hpp"

namespace aa::core {

/// What every placement is built on.
struct Relaxation {
  alloc::SuperOptimalResult super;           ///< c_hat and F_hat.
  std::vector<util::Linearized> linearized;  ///< g_i per thread.
};

/// Definition V.1's super-optimal allocation through `options`, then the
/// Equation-1 linearization.
[[nodiscard]] Relaxation relax(const Instance& instance,
                               const alloc::SuperOptimalOptions& options);

/// Reports `placement`, built on `relaxation`: F = sum f_i(c_i),
/// G = sum g_i(c_i), F_hat and c_hat.
[[nodiscard]] SolveResult package(std::span<const UtilityPtr> threads,
                                  const Relaxation& relaxation,
                                  Assignment placement);

/// Re-optimizes allocations within every server, keeping the raw ones if
/// float drift would make the refined utility lower. G and F_hat stay the
/// raw placement's, so its certificate still checks G >= alpha * F_hat.
[[nodiscard]] SolveResult refined(const Instance& instance, SolveResult raw);

}  // namespace aa::core
