#include "svc/tenant.hpp"

#include <vector>

#include "alloc/super_optimal.hpp"

namespace aa::svc {

std::size_t shard_of(std::string_view tenant, std::size_t shards) noexcept {
  if (shards <= 1) return 0;
  // FNV-1a, 64-bit: stable across platforms and runs (never std::hash,
  // whose seeding is implementation-defined).
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : tenant) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % shards);
}

double tenant_demand_units(const InstanceState& state,
                           const alloc::SuperOptimalOptions& options) {
  if (state.num_threads() == 0) return 0.0;
  std::vector<util::UtilityPtr> threads;
  threads.reserve(state.num_threads());
  for (const auto& [id, utility] : state.threads()) {
    threads.push_back(utility);
  }
  const alloc::SuperOptimalResult bound = alloc::super_optimal_with(
      threads, state.num_servers(), state.capacity(), options);
  double units = 0.0;
  for (const util::Resource c : bound.c_hat) {
    units += static_cast<double>(c);
  }
  return units;
}

}  // namespace aa::svc
