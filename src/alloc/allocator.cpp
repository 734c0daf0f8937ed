#include "alloc/allocator.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace aa::alloc {

namespace {

using util::Resource;
using util::UtilityPtr;

void check_inputs(std::span<const UtilityPtr> threads, Resource pool) {
  if (pool < 0) throw std::invalid_argument("allocate: negative pool");
  for (const auto& t : threads) {
    if (t == nullptr) throw std::invalid_argument("allocate: null utility");
  }
}

Resource effective_cap(const UtilityPtr& thread, Resource per_thread_cap) {
  return std::min(thread->capacity(), per_thread_cap);
}

double total_of(std::span<const UtilityPtr> threads,
                const std::vector<Resource>& amounts) {
  double total = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    total += threads[i]->value(static_cast<double>(amounts[i]));
  }
  return total;
}

}  // namespace

AllocationResult allocate_greedy(std::span<const UtilityPtr> threads,
                                 Resource pool, Resource per_thread_cap) {
  check_inputs(threads, pool);
  const std::size_t n = threads.size();
  std::vector<Resource> amounts(n, 0);

  // Max-heap of the next unit's marginal per thread; ties broken by thread
  // index so results are deterministic.
  struct Entry {
    double marginal;
    std::size_t thread;
    bool operator<(const Entry& other) const noexcept {
      if (marginal != other.marginal) return marginal < other.marginal;
      return thread > other.thread;
    }
  };
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    if (effective_cap(threads[i], per_thread_cap) >= 1) {
      const double m = threads[i]->marginal(1);
      if (m > 0.0) heap.push({m, i});
    }
  }

  Resource remaining = pool;
  while (remaining > 0 && !heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    const std::size_t i = top.thread;
    ++amounts[i];
    --remaining;
    if (amounts[i] < effective_cap(threads[i], per_thread_cap)) {
      const double m = threads[i]->marginal(amounts[i] + 1);
      if (m > 0.0) heap.push({m, i});
    }
  }
  const double total = total_of(threads, amounts);
  return {std::move(amounts), total};
}

}  // namespace aa::alloc
