#include "aa/refine.hpp"

#include <stdexcept>
#include <vector>

#include "alloc/allocator.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

Assignment reoptimize_allocations(const Instance& instance,
                                  const Assignment& placement) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseRefineReoptimize);
  if (placement.server.size() != instance.num_threads() ||
      placement.alloc.size() != instance.num_threads()) {
    throw std::invalid_argument("reoptimize: assignment size mismatch");
  }
  Assignment out = placement;
  std::vector<std::vector<std::size_t>> groups(instance.num_servers);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    groups.at(placement.server[i]).push_back(i);
  }
  std::int64_t reoptimized = 0;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    ++reoptimized;
    std::vector<UtilityPtr> members;
    members.reserve(group.size());
    for (const std::size_t i : group) members.push_back(instance.threads[i]);
    const alloc::AllocationResult result = alloc::allocate_greedy(
        members, instance.capacity, instance.capacity);
    for (std::size_t k = 0; k < group.size(); ++k) {
      out.alloc[group[k]] = static_cast<double>(result.amounts[k]);
    }
  }
  obs::count(obs::metric::kRefineServersReoptimized, reoptimized);
  return out;
}

}  // namespace aa::core
