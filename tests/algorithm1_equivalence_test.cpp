// Differential tests pinning the incremental Algorithm 1
// (aa/algorithm1.cpp) to the literal-pseudocode reference implementation:
// bit-identical server and allocation vectors — not merely equal utility —
// across all four utility distributions, edge shapes (n < m, n = m,
// n >> m), ties in the linearized peaks and marginal gains, and
// capacity-starved instances that exercise the unfull and zero-value
// branches. This is what licenses shipping the O(n log n + (n + m) m)
// implementation as a drop-in replacement for the O(m n^2) scan
// (docs/ALGORITHMS.md, docs/BENCHMARKS.md).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include <oracles/oracles.hpp>

#include "aa/algorithm1.hpp"
#include "aa/problem.hpp"
#include "alloc/super_optimal.hpp"
#include "sim/workload.hpp"
#include "support/distributions.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"
#include "utility/linearized.hpp"

namespace aa {
namespace {

/// Runs both implementations on one instance and asserts bit-identical
/// output (vector<double> equality is exact element-wise comparison).
void expect_equivalent(const core::Instance& instance) {
  const alloc::SuperOptimalResult so = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  const std::vector<util::Linearized> linearized =
      util::linearize(instance.threads, so.c_hat);

  const core::Assignment fast = core::assign_algorithm1(instance, linearized);
  const core::Assignment reference =
      oracle::assign_algorithm1_reference(instance, linearized);

  ASSERT_EQ(fast.server.size(), reference.server.size());
  EXPECT_EQ(fast.server, reference.server);
  EXPECT_EQ(fast.alloc, reference.alloc);
  EXPECT_EQ(core::total_utility(instance, fast),
            core::total_utility(instance, reference));
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

TEST(Algorithm1Equivalence, AllDistributionsAndShapes) {
  // beta = n / m spans n < m (0.25), n = m (1.0), and n >> m (3.0).
  const double betas[] = {0.25, 1.0, 3.0};
  const std::size_t server_counts[] = {1, 2, 8};
  for (const support::DistributionKind kind : kKinds) {
    for (const std::size_t m : server_counts) {
      for (const double beta : betas) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE(std::string(kind_name(kind)) + " m=" +
                       std::to_string(m) + " beta=" + std::to_string(beta) +
                       " seed=" + std::to_string(seed));
          sim::WorkloadConfig config;
          config.dist.kind = kind;
          config.num_servers = m;
          config.capacity = 200;
          config.beta = beta;
          support::Rng rng = support::Rng::child(seed, 77);
          const core::Instance instance = sim::generate_instance(config, rng);
          if (instance.num_threads() == 0) continue;
          expect_equivalent(instance);
        }
      }
    }
  }
}

TEST(Algorithm1Equivalence, TiedPeaksAndMarginalGains) {
  // Every thread shares one utility function: all peaks, caps, and marginal
  // gains tie exactly, so both implementations must replay the same
  // first-in-scan-order tie-breaks to agree.
  support::DistributionParams dist;
  support::Rng rng(99);
  const util::UtilityPtr shared = util::generate_utility(100, dist, rng);
  for (const std::size_t n : {3UL, 8UL, 17UL}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    core::Instance instance;
    instance.num_servers = 4;
    instance.capacity = 100;
    instance.threads.assign(n, shared);
    expect_equivalent(instance);
  }
}

TEST(Algorithm1Equivalence, CapacityStarvedUnfullRounds) {
  // Tiny servers and many threads: the super-optimal allocation zeroes most
  // threads, the greedy runs out of full-eligible candidates, and the run
  // ends in unfull rounds with zero marginal value — the reference's
  // degenerate first-pair behavior that the incremental version models with
  // its zero_mode shortcut.
  support::DistributionParams dist;
  support::Rng rng(7);
  core::Instance instance;
  instance.num_servers = 2;
  instance.capacity = 4;
  instance.threads = util::generate_utilities(40, 4, dist, rng);
  expect_equivalent(instance);
}

TEST(Algorithm1Equivalence, SingleServerAndSingleThread) {
  support::DistributionParams dist;
  support::Rng rng(13);
  {
    core::Instance instance;
    instance.num_servers = 1;
    instance.capacity = 50;
    instance.threads = util::generate_utilities(1, 50, dist, rng);
    expect_equivalent(instance);
  }
  {
    core::Instance instance;
    instance.num_servers = 6;
    instance.capacity = 50;
    instance.threads = util::generate_utilities(1, 50, dist, rng);
    expect_equivalent(instance);
  }
}

}  // namespace
}  // namespace aa
