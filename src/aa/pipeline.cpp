#include "aa/pipeline.hpp"

#include <string_view>
#include <utility>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/refine.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

Relaxation relax(const Instance& instance,
                 const alloc::SuperOptimalOptions& options) {
  Relaxation relaxation;
  relaxation.super = alloc::super_optimal_with(
      instance.threads, instance.num_servers, instance.capacity, options);
  const obs::ScopedPhase linearize_phase(obs::metric::kPhaseLinearize);
  relaxation.linearized =
      util::linearize(instance.threads, relaxation.super.c_hat);
  return relaxation;
}

SolveResult package(std::span<const UtilityPtr> threads,
                    const Relaxation& relaxation, Assignment placement) {
  SolveResult result;
  for (std::size_t i = 0; i < placement.size(); ++i) {
    result.utility += threads[i]->value(placement.alloc[i]);
    result.linearized_utility +=
        relaxation.linearized[i].value(placement.alloc[i]);
  }
  result.super_optimal_utility = relaxation.super.utility;
  result.c_hat = relaxation.super.c_hat;
  result.assignment = std::move(placement);
  return result;
}

SolveResult refined(const Instance& instance, SolveResult raw) {
  Assignment better = reoptimize_allocations(instance, raw.assignment);
  const double better_utility = total_utility(instance, better);
  // Guaranteed non-decreasing, but guard against pathological float drift.
  if (better_utility >= raw.utility) {
    raw.assignment = std::move(better);
    raw.utility = better_utility;
  }
  return raw;
}

namespace {

/// One approximation algorithm's placement step and obs names.
struct Algorithm {
  Assignment (*assign)(const Instance&, std::span<const util::Linearized>);
  std::string_view solves;
  std::string_view solve_phase;
  std::string_view refined_phase;
};

constexpr Algorithm kAlgorithm1{&assign_algorithm1, obs::metric::kAlg1Solves,
                                obs::metric::kPhaseAlg1Solve,
                                obs::metric::kPhaseAlg1SolveRefined};
constexpr Algorithm kAlgorithm2{&assign_algorithm2, obs::metric::kAlg2Solves,
                                obs::metric::kPhaseAlg2Solve,
                                obs::metric::kPhaseAlg2SolveRefined};

SolveResult solve_raw(const Instance& instance, const Algorithm& algorithm,
                      const alloc::SuperOptimalOptions& options) {
  const obs::ScopedPhase obs_phase(algorithm.solve_phase);
  obs::count(algorithm.solves);
  instance.validate();
  const Relaxation relaxation = relax(instance, options);
  return package(instance.threads, relaxation,
                 algorithm.assign(instance, relaxation.linearized));
}

SolveResult solve_refined(const Instance& instance,
                          const Algorithm& algorithm,
                          const alloc::SuperOptimalOptions& options) {
  const obs::ScopedPhase obs_phase(algorithm.refined_phase);
  SolveResult raw = solve_raw(instance, algorithm, options);
  obs::count(obs::metric::kRefineSolves);
  return refined(instance, std::move(raw));
}

SolveResult recorded(const Instance& instance, SolveResult result,
                     std::string_view solver) {
  certify_and_record(instance, result, solver);
  return result;
}

}  // namespace

SolveResult solve_algorithm1(const Instance& instance,
                             const alloc::SuperOptimalOptions& options) {
  return recorded(instance, solve_raw(instance, kAlgorithm1, options),
                  "algorithm1");
}

SolveResult solve_algorithm2(const Instance& instance,
                             const alloc::SuperOptimalOptions& options) {
  return recorded(instance, solve_raw(instance, kAlgorithm2, options),
                  "algorithm2");
}

SolveResult solve_algorithm1_refined(
    const Instance& instance, const alloc::SuperOptimalOptions& options) {
  return recorded(instance, solve_refined(instance, kAlgorithm1, options),
                  "algorithm1_refined");
}

SolveResult solve_algorithm2_refined(
    const Instance& instance, const alloc::SuperOptimalOptions& options) {
  return recorded(instance, solve_refined(instance, kAlgorithm2, options),
                  "algorithm2_refined");
}

}  // namespace aa::core
