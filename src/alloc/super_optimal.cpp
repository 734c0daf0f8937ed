#include "alloc/super_optimal.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/thread_pool.hpp"

namespace aa::alloc {

namespace {

util::Resource pooled(std::size_t num_servers, util::Resource capacity) {
  if (capacity < 0) {
    throw std::invalid_argument("super_optimal: negative capacity");
  }
  return static_cast<util::Resource>(num_servers) * capacity;
}

void count_call(std::span<const util::UtilityPtr> threads) {
  obs::count(obs::metric::kSuperOptimalCalls);
  obs::count(obs::metric::kSuperOptimalThreads,
             static_cast<std::int64_t>(threads.size()));
}

support::ThreadPool* pool_of(const SuperOptimalOptions& options) {
  return options.workers != nullptr ? options.workers
                                    : &support::global_pool();
}

SuperOptimalResult from(AllocationResult result) {
  return {std::move(result.amounts), result.total_utility};
}

}  // namespace

SuperOptimalResult super_optimal(std::span<const util::UtilityPtr> threads,
                                 std::size_t num_servers,
                                 util::Resource capacity) {
  return super_optimal_with(threads, num_servers, capacity, {});
}

SuperOptimalResult super_optimal_parallel(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity, support::ThreadPool* workers) {
  return super_optimal_with(
      threads, num_servers, capacity,
      {.strategy = SuperOptimalStrategy::kParallel, .workers = workers});
}

SuperOptimalResult super_optimal_price(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity, double price_tol, support::ThreadPool* workers) {
  return super_optimal_with(threads, num_servers, capacity,
                            {.strategy = SuperOptimalStrategy::kPrice,
                             .price_tolerance = price_tol,
                             .workers = workers});
}

SuperOptimalResult super_optimal_with(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity, const SuperOptimalOptions& options) {
  return super_optimal_pooled(threads, pooled(num_servers, capacity),
                              capacity, options);
}

SuperOptimalResult super_optimal_pooled(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap, const SuperOptimalOptions& options) {
  switch (options.strategy) {
    case SuperOptimalStrategy::kParallel: {
      const obs::ScopedPhase obs_phase(
          obs::metric::kPhaseSuperOptimalParallel);
      count_call(threads);
      obs::count(obs::metric::kSuperOptimalParallelCalls);
      return from(allocate_bisection_soa(threads, pool, per_thread_cap,
                                         pool_of(options)));
    }
    case SuperOptimalStrategy::kPrice: {
      const obs::ScopedPhase obs_phase(obs::metric::kPhaseSuperOptimalPrice);
      count_call(threads);
      obs::count(obs::metric::kSuperOptimalPriceCalls);
      return from(allocate_price(threads, pool, per_thread_cap,
                                 options.price_tolerance, pool_of(options)));
    }
    case SuperOptimalStrategy::kSerial:
      break;
  }
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseSuperOptimal);
  count_call(threads);
  return from(allocate_bisection_soa(threads, pool, per_thread_cap, nullptr));
}

SuperOptimalResult super_optimal_routed(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity) {
  return super_optimal_with(threads, num_servers, capacity, {});
}

SuperOptimalStrategy parse_super_optimal_strategy(std::string_view name) {
  if (name == "serial") return SuperOptimalStrategy::kSerial;
  if (name == "parallel") return SuperOptimalStrategy::kParallel;
  if (name == "price") return SuperOptimalStrategy::kPrice;
  throw std::invalid_argument("unknown super-optimal strategy '" +
                              std::string(name) +
                              "' (expected serial|parallel|price)");
}

double parse_price_tolerance(std::string_view text) {
  const std::string value(text);
  char* end = nullptr;
  const double tol = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(tol) || tol <= 0.0 || tol >= 1.0) {
    throw std::invalid_argument(
        "--so-price-tol must be a number in (0, 1), got '" + value + "'");
  }
  return tol;
}

std::string_view super_optimal_strategy_name(SuperOptimalStrategy strategy) {
  switch (strategy) {
    case SuperOptimalStrategy::kParallel:
      return "parallel";
    case SuperOptimalStrategy::kPrice:
      return "price";
    case SuperOptimalStrategy::kSerial:
      break;
  }
  return "serial";
}

}  // namespace aa::alloc
