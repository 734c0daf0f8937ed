#include "oracles/oracles.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace aa::oracle {

using util::Resource;

core::Assignment assign_algorithm1_reference(
    const core::Instance& instance,
    std::span<const util::Linearized> linearized) {
  const std::size_t n = instance.num_threads();
  const std::size_t m = instance.num_servers;
  if (linearized.size() != n) {
    throw std::invalid_argument("algorithm1: linearization size mismatch");
  }

  std::vector<Resource> remaining(m, instance.capacity);
  std::vector<bool> assigned(n, false);
  core::Assignment out;
  out.server.assign(n, 0);
  out.alloc.assign(n, 0.0);

  for (std::size_t round = 0; round < n; ++round) {
    // Server with the most remaining capacity (used both to test membership
    // in U cheaply and as the "greatest utility" tie-break for full threads).
    const auto max_it = std::max_element(remaining.begin(), remaining.end());
    const auto max_server =
        static_cast<std::size_t>(max_it - remaining.begin());
    const Resource max_remaining = *max_it;

    // Line 6: best full candidate — largest peak among threads whose
    // super-optimal allocation still fits somewhere.
    std::size_t best_full = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned[i] || linearized[i].cap > max_remaining) continue;
      if (best_full == n || linearized[i].peak > linearized[best_full].peak) {
        best_full = i;
      }
    }

    std::size_t chosen = n;
    std::size_t target = max_server;
    if (best_full != n) {
      chosen = best_full;
      // Any server with C_j >= c_hat gives the same (full) utility; the
      // max-remaining server is one of them.
    } else {
      // Line 9: best unfull candidate — maximize g_i(C_j) over pairs.
      double best_value = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        for (std::size_t j = 0; j < m; ++j) {
          const double value =
              linearized[i].value(static_cast<double>(remaining[j]));
          if (value > best_value) {
            best_value = value;
            chosen = i;
            target = j;
          }
        }
      }
    }

    const Resource granted = std::min(linearized[chosen].cap,
                                      remaining[target]);
    out.server[chosen] = target;
    out.alloc[chosen] = static_cast<double>(granted);
    remaining[target] -= granted;
    assigned[chosen] = true;
  }
  return out;
}

}  // namespace aa::oracle
