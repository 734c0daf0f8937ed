// Differential wall for the super-optimal strategy seam
// (alloc/bisection_soa.cpp): the SoA + bracket-narrowing rewrite behind
// super_optimal_parallel must be BIT-IDENTICAL to the serial
// allocate_bisection reference — same c_hat vector, same F_hat double — for
// every tested input and every thread-pool size. That exactness is what
// licenses routing alg1/alg2/alg2h/warm-start through the seam without
// re-running any golden or certificate test: downstream consumers cannot
// observe which implementation ran. Mirrors algorithm1_equivalence_test's
// reference-pinning style (docs/ALGORITHMS.md "Strategy seam").
//
// Coverage deliberately includes: all four generated distributions,
// n from 1 to 4096 (spanning the inline/fan-out threshold of the chunked
// reduction), worker pools of size 1/2/4/8 sharing one process, exact ties
// (every thread the same utility object), zero capacity, capacity
// starvation, single-thread shapes, and non-tabulated utilities that miss
// the raw-grid fast path (scaled/analytic families).

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/super_optimal.hpp"
#include "support/distributions.hpp"
#include "support/prng.hpp"
#include "support/thread_pool.hpp"
#include "utility/generator.hpp"
#include "utility/utility_function.hpp"

namespace aa {
namespace {

using util::Resource;
using util::UtilityPtr;

/// The worker pools every case runs against. Shared across the whole test
/// binary: reusing pools across hundreds of submissions is itself part of
/// what the wall exercises.
std::vector<std::unique_ptr<support::ThreadPool>>& pools() {
  static std::vector<std::unique_ptr<support::ThreadPool>> shared = [] {
    std::vector<std::unique_ptr<support::ThreadPool>> built;
    for (const std::size_t workers : {1UL, 2UL, 4UL, 8UL}) {
      built.push_back(std::make_unique<support::ThreadPool>(workers));
    }
    return built;
  }();
  return shared;
}

/// Asserts the parallel path reproduces the serial reference bit-for-bit at
/// every pool size, and that the price path obeys its contract sanity
/// bounds (never above F_hat; full property coverage lives in
/// certificate_property_test).
void expect_bit_identical(const std::vector<UtilityPtr>& threads,
                          std::size_t num_servers, Resource capacity) {
  const alloc::SuperOptimalResult serial =
      alloc::super_optimal(threads, num_servers, capacity);
  for (const auto& pool : pools()) {
    SCOPED_TRACE("workers=" + std::to_string(pool->worker_count()));
    const alloc::SuperOptimalResult parallel =
        alloc::super_optimal_parallel(threads, num_servers, capacity,
                                      pool.get());
    ASSERT_EQ(parallel.c_hat.size(), serial.c_hat.size());
    EXPECT_EQ(parallel.c_hat, serial.c_hat);
    EXPECT_EQ(parallel.utility, serial.utility);
  }
  const alloc::SuperOptimalResult price = alloc::super_optimal_price(
      threads, num_servers, capacity, 1e-9, pools().front().get());
  EXPECT_LE(price.utility, serial.utility);
}

const support::DistributionKind kKinds[] = {
    support::DistributionKind::kUniform,
    support::DistributionKind::kNormal,
    support::DistributionKind::kPowerLaw,
    support::DistributionKind::kDiscrete,
};

const char* kind_name(support::DistributionKind kind) {
  switch (kind) {
    case support::DistributionKind::kUniform: return "uniform";
    case support::DistributionKind::kNormal: return "normal";
    case support::DistributionKind::kPowerLaw: return "powerlaw";
    case support::DistributionKind::kDiscrete: return "discrete";
  }
  return "?";
}

TEST(SuperOptimalEquivalence, AllDistributionsAcrossSizes) {
  // n sweeps through the inline regime; m=1 vs m=8 moves the pooled budget
  // from starved to saturating.
  const std::size_t sizes[] = {1, 2, 3, 5, 9, 17, 33, 64, 129, 256, 1024};
  for (const support::DistributionKind kind : kKinds) {
    for (const std::size_t n : sizes) {
      for (const std::size_t m : {1UL, 8UL}) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          SCOPED_TRACE(std::string(kind_name(kind)) + " n=" +
                       std::to_string(n) + " m=" + std::to_string(m) +
                       " seed=" + std::to_string(seed));
          support::DistributionParams dist;
          dist.kind = kind;
          support::Rng rng = support::Rng::child(seed, n);
          const std::vector<UtilityPtr> threads =
              util::generate_utilities(n, 48, dist, rng);
          expect_bit_identical(threads, m, 48);
        }
      }
    }
  }
}

TEST(SuperOptimalEquivalence, FanOutRegimeAcrossPoolSizes) {
  // n >= 2048 crosses the chunked-reduction threshold, so these instances
  // genuinely run the probes on the worker pools; determinism across pool
  // sizes here is the chunk-boundary invariance claim, not a vacuous pass.
  for (const support::DistributionKind kind :
       {support::DistributionKind::kUniform,
        support::DistributionKind::kPowerLaw}) {
    for (const std::size_t n : {2048UL, 4096UL}) {
      SCOPED_TRACE(std::string(kind_name(kind)) + " n=" + std::to_string(n));
      support::DistributionParams dist;
      dist.kind = kind;
      support::Rng rng = support::Rng::child(31, n);
      const std::vector<UtilityPtr> threads =
          util::generate_utilities(n, 32, dist, rng);
      expect_bit_identical(threads, 8, 32);
    }
  }
}

TEST(SuperOptimalEquivalence, ExactTiesFromSharedUtility) {
  // Every thread is the same object: all marginals tie exactly, the lambda
  // plateau spans the whole instance, and the residual distribution plus
  // greedy tie-breaks must replay identically. 2500 crosses into fan-out.
  support::DistributionParams dist;
  support::Rng rng(99);
  const UtilityPtr shared = util::generate_utility(100, dist, rng);
  for (const std::size_t n : {5UL, 40UL, 2500UL}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<UtilityPtr> threads(n, shared);
    expect_bit_identical(threads, 4, 100);
  }
}

TEST(SuperOptimalEquivalence, ZeroCapacityAndStarvation) {
  support::DistributionParams dist;
  support::Rng rng(7);
  const std::vector<UtilityPtr> threads =
      util::generate_utilities(40, 50, dist, rng);
  // capacity = 0: pooled budget and every per-thread cap collapse to zero.
  expect_bit_identical(threads, 4, 0);
  // Starved: pool = m * C = 8 units across 40 threads of capacity 50.
  expect_bit_identical(threads, 2, 4);
  // Zero servers: empty pooled budget with live utilities.
  expect_bit_identical(threads, 0, 50);
}

TEST(SuperOptimalEquivalence, SingleThreadShapes) {
  support::DistributionParams dist;
  support::Rng rng(13);
  const std::vector<UtilityPtr> threads =
      util::generate_utilities(1, 50, dist, rng);
  expect_bit_identical(threads, 1, 50);
  expect_bit_identical(threads, 6, 50);
  expect_bit_identical(threads, 1, 1);
}

TEST(SuperOptimalEquivalence, NonTabulatedUtilitiesMissTheGridFastPath) {
  // Scaled and analytic families are not TabulatedUtility, so the SoA core
  // falls back to virtual marginal() calls; the values must still match the
  // serial reference exactly. Mixed in with tabulated threads to cover both
  // code paths inside one probe sweep.
  support::DistributionParams dist;
  support::Rng rng(55);
  std::vector<UtilityPtr> threads;
  for (std::size_t i = 0; i < 24; ++i) {
    const UtilityPtr tabulated = util::generate_utility(60, dist, rng);
    switch (i % 4) {
      case 0:
        threads.push_back(tabulated);
        break;
      case 1:
        threads.push_back(
            std::make_shared<const util::ScaledUtility>(tabulated, 1.7));
        break;
      case 2:
        threads.push_back(std::make_shared<const util::LogUtility>(
            3.0, 0.2 + 0.05 * static_cast<double>(i), 60));
        break;
      default:
        threads.push_back(std::make_shared<const util::PowerUtility>(
            2.0, 0.6, 60));
        break;
    }
  }
  expect_bit_identical(threads, 3, 60);
}

TEST(SuperOptimalEquivalence, EmptyInstance) {
  const std::vector<UtilityPtr> threads;
  expect_bit_identical(threads, 4, 16);
}

TEST(SuperOptimalEquivalence, NegativeCapacityThrowsOnEveryPath) {
  support::DistributionParams dist;
  support::Rng rng(3);
  const std::vector<UtilityPtr> threads =
      util::generate_utilities(2, 8, dist, rng);
  EXPECT_THROW((void)alloc::super_optimal_parallel(threads, 2, -1),
               std::invalid_argument);
  EXPECT_THROW((void)alloc::super_optimal_price(threads, 2, -1),
               std::invalid_argument);
}

TEST(SuperOptimalEquivalence, StrategyFlagsParseOrThrow) {
  EXPECT_EQ(alloc::parse_super_optimal_strategy("serial"),
            alloc::SuperOptimalStrategy::kSerial);
  EXPECT_EQ(alloc::parse_super_optimal_strategy("parallel"),
            alloc::SuperOptimalStrategy::kParallel);
  EXPECT_EQ(alloc::parse_super_optimal_strategy("price"),
            alloc::SuperOptimalStrategy::kPrice);
  EXPECT_THROW((void)alloc::parse_super_optimal_strategy("fast"),
               std::invalid_argument);

  EXPECT_EQ(alloc::parse_price_tolerance("1e-9"), 1e-9);
  EXPECT_EQ(alloc::parse_price_tolerance("0.5"), 0.5);
  // At tol >= 1 the bisection would run no probe; NaN and negatives used to
  // mean "exact" silently. All of them, and junk, are rejected.
  for (const char* bad :
       {"0", "1", "1.5", "-1e-3", "nan", "inf", "-inf", "", "1e-3x", "x"}) {
    EXPECT_THROW((void)alloc::parse_price_tolerance(bad),
                 std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace aa
