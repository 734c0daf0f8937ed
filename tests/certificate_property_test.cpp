// Randomized property test of the self-checking approximation certificate
// (obs/certificate.hpp + aa/certify.hpp): across all four Section VII
// workload distributions, every solve of Algorithms 1/2 (raw and refined)
// must emit a passing certificate — f(ALG) >= alpha * f(SO_capped), the
// Lemma V.4/V.15 chain, per-server budgets and the concavity precondition —
// and on small instances (n <= 10, m <= 3) the certificate is cross-checked
// against the exhaustive solver: alpha * OPT <= f(ALG) <= OPT <= f_SO.
// A deliberately corrupted result must FAIL certification (the checker
// actually checks).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/exact.hpp"
#include "aa/refine.hpp"
#include "alloc/super_optimal.hpp"
#include "obs/session.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::core {
namespace {

struct Shape {
  std::size_t num_threads;
  std::size_t num_servers;
  Resource capacity;
};

using Param = std::tuple<support::DistributionKind, Shape, std::uint64_t>;

class CertificateProperty : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] Instance make_instance() const {
    const auto& [kind, shape, seed] = GetParam();
    support::Rng rng(seed * 104729 + 7);
    support::DistributionParams dist;
    dist.kind = kind;
    Instance instance;
    instance.num_servers = shape.num_servers;
    instance.capacity = shape.capacity;
    instance.threads = util::generate_utilities(shape.num_threads,
                                                shape.capacity, dist, rng);
    return instance;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, CertificateProperty,
    ::testing::Combine(
        ::testing::Values(support::DistributionKind::kUniform,
                          support::DistributionKind::kNormal,
                          support::DistributionKind::kPowerLaw,
                          support::DistributionKind::kDiscrete),
        ::testing::Values(Shape{10, 3, 18}, Shape{8, 2, 24}, Shape{6, 3, 15},
                          Shape{4, 2, 30}),
        ::testing::Range<std::uint64_t>(0, 4)));

TEST_P(CertificateProperty, EverySolverVariantCertifies) {
  const Instance instance = make_instance();
  const struct {
    const char* name;
    SolveResult result;
  } runs[] = {
      {"algorithm2", solve_algorithm2(instance)},
      {"algorithm2_refined", solve_algorithm2_refined(instance)},
      {"algorithm1", solve_algorithm1(instance)},
      {"algorithm1_refined", solve_algorithm1_refined(instance)},
  };
  for (const auto& run : runs) {
    const obs::Certificate cert = certify(instance, run.result, run.name);
    EXPECT_TRUE(cert.ok()) << run.name << ": " << cert.to_json().dump(2);
    EXPECT_TRUE(cert.input.concavity_checked);
  }
}

TEST_P(CertificateProperty, CertificateAgreesWithExactOptimum) {
  const Instance instance = make_instance();
  const SolveResult approx = solve_algorithm2_refined(instance);
  const obs::Certificate cert = certify(instance, approx, "algorithm2_refined");
  ASSERT_TRUE(cert.ok()) << cert.to_json().dump(2);

  const ExactResult exact = solve_exact(instance);
  const double tol = 1e-7 * (1.0 + exact.utility);
  // The certificate's bound really upper-bounds the true optimum ...
  EXPECT_LE(exact.utility, cert.input.f_super_optimal + tol);
  // ... and the certified solution clears alpha * OPT, not just alpha * SO.
  EXPECT_GE(cert.input.f_alg, kApproximationRatio * exact.utility - tol);
  EXPECT_LE(cert.input.f_alg, exact.utility + tol);
}

TEST_P(CertificateProperty, CorruptedResultFailsCertification) {
  const Instance instance = make_instance();
  SolveResult result = solve_algorithm2(instance);

  // Over-allocate every thread: per-server budgets burst, and the reported
  // utility no longer matches a feasible assignment.
  SolveResult overfull = result;
  for (double& alloc : overfull.assignment.alloc) {
    alloc = static_cast<double>(instance.capacity) + 1.0;
  }
  const obs::Certificate burst = certify(instance, overfull, "corrupted");
  EXPECT_FALSE(burst.ok());
  EXPECT_FALSE(burst.budget_ok && burst.structural_ok);

  // Understate the claimed objective below the guarantee line.
  SolveResult lying = result;
  lying.utility = 0.5 * kApproximationRatio * lying.super_optimal_utility;
  const obs::Certificate lied = certify(instance, lying, "corrupted");
  EXPECT_FALSE(lied.alpha_ok);
  EXPECT_FALSE(lied.ok());
}

TEST_P(CertificateProperty, PriceStrategyHonorsItsToleranceContract) {
  // The documented allocate_price contract: the price allocation is pooled-
  // feasible (so F_price never exceeds the exact F_hat), and the shortfall
  // is at most price_tol * (1 + max marginal) * pool. Checked at the default
  // tolerance and at a deliberately loose one, so the bound is exercised
  // where the two paths genuinely diverge.
  const Instance instance = make_instance();
  const alloc::SuperOptimalResult exact_so = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  double max_marginal = 0.0;
  for (const auto& thread : instance.threads) {
    if (thread->capacity() >= 1) {
      max_marginal = std::max(max_marginal, thread->marginal(1));
    }
  }
  const double pool = static_cast<double>(instance.num_servers) *
                      static_cast<double>(instance.capacity);
  for (const double tol : {1e-9, 1e-4, 1e-2}) {
    SCOPED_TRACE("price_tol=" + std::to_string(tol));
    const alloc::SuperOptimalResult price = alloc::super_optimal_price(
        instance.threads, instance.num_servers, instance.capacity, tol);
    const double slack = 1e-12 * (1.0 + exact_so.utility);
    EXPECT_LE(price.utility, exact_so.utility + slack);
    const double bound = tol * (1.0 + max_marginal) * pool;
    EXPECT_GE(price.utility, exact_so.utility - bound - slack);
    // The price allocation must itself be pooled-feasible and capped.
    Resource pooled_sum = 0;
    for (std::size_t i = 0; i < price.c_hat.size(); ++i) {
      EXPECT_LE(price.c_hat[i], instance.capacity);
      pooled_sum += price.c_hat[i];
    }
    EXPECT_LE(static_cast<double>(pooled_sum), pool);
  }
}

TEST_P(CertificateProperty, SolversCertifyUnderEveryStrategy) {
  // Routing alg1/alg2 through the parallel or price strategy must leave
  // every downstream certificate passing: parallel is bit-identical, and
  // the price tolerance (1e-9 relative scale) sits far inside the
  // certificate's 1e-7 comparison tolerance.
  const Instance instance = make_instance();
  for (const alloc::SuperOptimalStrategy strategy :
       {alloc::SuperOptimalStrategy::kParallel,
        alloc::SuperOptimalStrategy::kPrice}) {
    SCOPED_TRACE(std::string("strategy=") +
                 std::string(alloc::super_optimal_strategy_name(strategy)));
    alloc::SuperOptimalOptions options;
    options.strategy = strategy;
    const struct {
      const char* name;
      SolveResult result;
    } runs[] = {
        {"algorithm2", solve_algorithm2(instance, options)},
        {"algorithm2_refined", solve_algorithm2_refined(instance, options)},
        {"algorithm1_refined", solve_algorithm1_refined(instance, options)},
    };
    for (const auto& run : runs) {
      const obs::Certificate cert = certify(instance, run.result, run.name);
      EXPECT_TRUE(cert.ok()) << run.name << ": " << cert.to_json().dump(2);
      // The 0.828 guarantee holds against the strategy's own bound ...
      EXPECT_GE(run.result.utility, kApproximationRatio *
                                            run.result.super_optimal_utility -
                                        1e-9 * (1.0 + run.result.utility));
    }
    // ... and against the true optimum, up to the certificate tolerance
    // (the price bound at tol=1e-9 is far below it on these shapes).
    const ExactResult exact = solve_exact(instance);
    const SolveResult refined = solve_algorithm2_refined(instance, options);
    EXPECT_GE(refined.utility, kApproximationRatio * exact.utility -
                                   1e-6 * (1.0 + exact.utility));
  }
}

TEST_P(CertificateProperty, SolversRecordCertificatesOnTheSession) {
  const Instance instance = make_instance();
  const SolveResult raw = solve_algorithm2(instance);  // Before the session.
  obs::Session session;
  (void)solve_algorithm2_refined(instance);
  const obs::Metrics metrics = session.metrics();
  // One certificate per solve: the refined result's, whose G still comes
  // from the raw placement.
  EXPECT_EQ(metrics.counter("certificate/checks"), 1);
  EXPECT_EQ(metrics.counter("certificate/failures"), 0);
  const auto certificates = session.certificates();
  ASSERT_EQ(certificates.size(), 1u);
  EXPECT_EQ(certificates[0].input.solver, "algorithm2_refined");
  EXPECT_TRUE(certificates[0].ok()) << certificates[0].to_json().dump(2);
  EXPECT_EQ(certificates[0].input.f_linearized, raw.linearized_utility);
  EXPECT_TRUE(certificates[0].linearized_alpha_ok);
}

}  // namespace
}  // namespace aa::core
