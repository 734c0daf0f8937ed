#include "alloc/allocator.hpp"

// The one exact super-optimal implementation (behind both exact
// strategies of super_optimal; see docs/ALGORITHMS.md "Strategy seam"): a
// flat-memory rewrite of the literal lambda bisection, which survives as
// oracle::allocate_bisection in tests/oracles. Three ideas:
//
//  1. Flat marginal grids, packed bisection state. For TabulatedUtility
//     (the workhorse representation) the marginal is read straight off the
//     raw value grid: grid[k] - grid[k-1] is bit-for-bit what
//     TabulatedUtility::marginal(k) returns (the
//     UtilityFunction::tabulated_grid contract), with no shared_ptr ->
//     vtable -> vector chasing. Everything the inner loop needs per thread
//     (grid pointer, cap, first/last marginal, unit bracket) packs into one
//     64-byte record, so a probe costs one cache line of bookkeeping plus
//     the grid touches — even late in the bisection when the surviving
//     threads are scattered.
//
//  2. Bracket narrowing with active-set pinning. Every lambda the bisection
//     probes lies inside the current [lo, hi] price bracket, so each
//     thread's answer lies inside [units(hi), units(lo)] from the previous
//     probes. `units_at_or_above` is a pure function of (thread, lambda), so
//     searching the narrowed unit bracket returns the identical value at a
//     fraction of the cost. Once a thread's unit bracket collapses to a
//     point its answer is constant for every remaining lambda: the thread
//     is *pinned* — its contribution folds into a per-chunk constant and
//     later sweeps skip it entirely. Brackets collapse geometrically, so
//     the per-iteration cost decays from O(n) toward O(active).
//
//  3. Deterministic fan-out. Per-lambda probes are independent; chunks of
//     fixed width (boundaries depend only on n, never on the worker count)
//     run across support::parallel_for, and the unit count is the serial
//     chunk-order sum of per-chunk integer partials — order-independent, so
//     the result is bit-identical to the reference for every worker
//     count. The equivalence wall in tests/super_optimal_equivalence_test.cpp
//     holds exactly, not approximately.
//
// The lambda schedule replicates the reference's literally (same initial
// bracket, same midpoints, same stop rule, same plateau constant), so
// `exact` mode returns the reference's bits. `price` mode (allocate_price)
// reuses everything but stops the dual bisection at a documented tolerance
// — see the contract in alloc/allocator.hpp.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/thread_pool.hpp"
#include "utility/utility_function.hpp"

namespace aa::alloc {

namespace {

using util::Resource;
using util::UtilityPtr;

// Fan out only when the probe sweep is wide enough to amortize queueing, and
// chunk by a fixed width: boundaries must depend only on n, never on the
// worker count, or determinism across pool sizes dies.
constexpr std::size_t kMinParallelThreads = 2048;
constexpr std::size_t kChunkWidth = 1024;

/// Chunked reduce over [0, n) that degrades to a single inline call when the
/// pool is absent, single-threaded, or the range is small. Both paths
/// evaluate the same chunks' worth of work and combine exactly representable
/// values (integer sums / double max), so they agree bit-for-bit.
template <typename T, typename MapFn, typename CombineFn>
T reduce_over(support::ThreadPool* workers, std::size_t n, T init,
              const MapFn& map, const CombineFn& combine) {
  if (workers != nullptr && workers->worker_count() > 1 &&
      n >= kMinParallelThreads) {
    return support::parallel_chunked_reduce(*workers, std::size_t{0}, n,
                                            kChunkWidth, std::move(init), map,
                                            combine);
  }
  return combine(std::move(init), map(0, n));
}

double serial_total(std::span<const UtilityPtr> threads,
                    const std::vector<Resource>& amounts) {
  // Left-to-right on the caller's thread, exactly like the
  // reference's total_of — a chunked float sum would change the bits.
  double total = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    total += threads[i]->value(static_cast<double>(amounts[i]));
  }
  return total;
}

/// Per-thread bisection state, packed so one sweep step touches one cache
/// line of bookkeeping. 8 x 8 bytes = 64 bytes exactly.
struct Hot {
  const double* grid;  // nullptr => virtual marginal() path via func
  const util::UtilityFunction* func;
  Resource cap;
  double m1;           // marginal(1); 0 when cap < 1
  double mlast;        // marginal(cap); 0 when cap < 1
  Resource units_lo;   // units at price lo; valid iff lo_exact
  Resource units_hi;   // units at price hi; valid iff hi_exact
  Resource units_mid;  // most recent probe, owned by the pending side
};

[[nodiscard]] double marginal_of(const Hot& h, Resource k) {
  if (h.grid != nullptr) {
    const auto idx = static_cast<std::size_t>(k);
    return h.grid[idx] - h.grid[idx - 1];
  }
  return h.func->marginal(k);
}

/// Largest k in [lb, ub] with marginal(k) >= lambda. Requires the
/// unconstrained answer (largest such k in [0, cap], or 0) to lie in
/// [lb, ub]; under that bracket invariant the result equals the
/// reference's units_at_or_above regardless of how tight the bracket is.
/// The two endpoint shortcuts resolve the common cases in O(1): lambda
/// above the first marginal means the reference's early-out (answer 0, so
/// lb == 0), and lambda at or below the last marginal means every unit
/// clears it (answer cap, so ub == cap, by nonincreasing marginals).
[[nodiscard]] Resource probe(const Hot& h, double lambda, Resource lb,
                             Resource ub) {
  if (lb == ub) return lb;
  if (lambda > h.m1) return 0;
  if (lambda <= h.mlast) return h.cap;
  Resource lo = lb;
  Resource hi = ub;
  while (lo < hi) {
    const Resource mid = lo + (hi - lo + 1) / 2;  // mid >= 1: never f(0)
    if (marginal_of(h, mid) >= lambda) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// Which side of the price bracket the previous iteration's probes belong
/// to. Commits are deferred: instead of a bulk array pass per iteration,
/// each thread folds its own pending commit into the next sweep that visits
/// it (and a single tail pass after the loop handles threads still active).
enum class Side : std::uint8_t { kNone, kLo, kHi };

/// Per-chunk bisection state. `active` lists the threads whose unit bracket
/// is still open; once it collapses the thread's (now constant) contribution
/// moves into `pinned` and the thread drops off the list for good.
struct ChunkState {
  std::vector<std::size_t> active;
  Resource pinned = 0;
  Resource partial = 0;
};

struct CoreConfig {
  support::ThreadPool* workers = nullptr;
  bool price_mode = false;
  double price_tol = 1e-9;
};

AllocationResult run_bisection_soa(std::span<const UtilityPtr> threads,
                                   Resource pool, Resource per_thread_cap,
                                   const CoreConfig& config) {
  if (pool < 0) throw std::invalid_argument("allocate: negative pool");
  for (const auto& t : threads) {
    if (t == nullptr) throw std::invalid_argument("allocate: null utility");
  }
  const std::size_t n = threads.size();
  std::vector<Resource> amounts(n, 0);

  std::vector<Hot> hot(n);
  bool lo_exact = false;
  bool hi_exact = false;
  const auto bracket_lb = [&](const Hot& h) {
    return hi_exact ? h.units_hi : 0;
  };
  const auto bracket_ub = [&](const Hot& h) {
    return lo_exact ? h.units_lo : h.cap;
  };

  struct Setup {
    double max_marginal = 0.0;
    Resource total_cap = 0;
  };
  const Setup setup = reduce_over(
      config.workers, n, Setup{},
      [&](std::size_t from, std::size_t to) {
        Setup part;
        for (std::size_t i = from; i < to; ++i) {
          const util::UtilityFunction* f = threads[i].get();
          Hot& h = hot[i];
          h.func = f;
          h.grid = f->tabulated_grid();
          h.cap = std::min(f->capacity(), per_thread_cap);
          h.units_lo = 0;
          h.units_hi = 0;
          h.units_mid = 0;
          part.total_cap += h.cap;
          if (h.cap >= 1) {
            h.m1 = marginal_of(h, 1);
            h.mlast = marginal_of(h, h.cap);
            part.max_marginal = std::max(part.max_marginal, h.m1);
          } else {
            h.m1 = 0.0;
            h.mlast = 0.0;
          }
        }
        return part;
      },
      [](Setup acc, const Setup& part) {
        acc.max_marginal = std::max(acc.max_marginal, part.max_marginal);
        acc.total_cap += part.total_cap;
        return acc;
      });

  // Trivial cases, mirroring the reference: everyone saturates (still
  // trimming zero-marginal tails), or nothing is worth allocating.
  if (setup.total_cap <= pool) {
    (void)reduce_over(
        config.workers, n, Resource{0},
        [&](std::size_t from, std::size_t to) {
          for (std::size_t i = from; i < to; ++i) {
            amounts[i] = probe(hot[i], std::numeric_limits<double>::min(), 0,
                               hot[i].cap);
          }
          return Resource{0};
        },
        [](Resource acc, Resource part) { return acc + part; });
    const double total = serial_total(threads, amounts);
    return {std::move(amounts), total};
  }
  if (setup.max_marginal <= 0.0) {
    const double total = serial_total(threads, amounts);
    return {std::move(amounts), total};
  }

  // Chunked active sets. Threads with no capacity or a nonpositive first
  // marginal contribute 0 units at every probed price (all midpoints are
  // > 0, so the reference's early-out fires for them) and their unit bracket is
  // already the point {0}; they never enter a sweep.
  const std::size_t num_chunks = (n + kChunkWidth - 1) / kChunkWidth;
  std::vector<ChunkState> chunks(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t from = c * kChunkWidth;
    const std::size_t to = std::min(n, from + kChunkWidth);
    chunks[c].active.reserve(to - from);
    for (std::size_t i = from; i < to; ++i) {
      if (hot[i].cap >= 1 && hot[i].m1 > 0.0) chunks[c].active.push_back(i);
    }
  }

  // One sweep of one chunk at price `mid`. First folds the previous
  // iteration's deferred commit into this thread's bracket, then either pins
  // the thread (bracket collapsed: its units are constant for every
  // remaining price, including the final lo/hi — the stored bracket
  // endpoints stay exact) or probes the narrowed bracket. `partial` is the
  // chunk's exact integer unit count at `mid`.
  const auto sweep_chunk = [&](std::size_t c, double mid, Side commit) {
    ChunkState& chunk = chunks[c];
    std::vector<std::size_t>& act = chunk.active;
    const bool lo_valid = lo_exact;
    const bool hi_valid = hi_exact;
    Resource partial = chunk.pinned;
    std::size_t keep = 0;
    const std::size_t live = act.size();
    for (std::size_t r = 0; r < live; ++r) {
      const std::size_t i = act[r];
      // Pull the next survivors' records in while this probe's grid reads
      // are in flight; by mid-bisection the active list is sparse and each
      // record is its own cache line.
      if (r + 2 < live) __builtin_prefetch(&hot[act[r + 2]]);
      Hot& h = hot[i];
      if (commit == Side::kLo) {
        h.units_lo = h.units_mid;
      } else if (commit == Side::kHi) {
        h.units_hi = h.units_mid;
      }
      const Resource lb = hi_valid ? h.units_hi : 0;
      const Resource ub = lo_valid ? h.units_lo : h.cap;
      if (lb == ub) {
        chunk.pinned += lb;
        partial += lb;
        continue;
      }
      const Resource value = probe(h, mid, lb, ub);
      h.units_mid = value;
      partial += value;
      act[keep++] = i;
    }
    act.resize(keep);
    chunk.partial = partial;
  };

  const bool fan_out = config.workers != nullptr &&
                       config.workers->worker_count() > 1 &&
                       n >= kMinParallelThreads;

  // The reference's lambda schedule, replicated literally. In price
  // mode the stop rule loosens to the documented tolerance; everything else
  // (midpoints, commits, plateau constant) is shared.
  const double stop_width =
      config.price_mode
          ? std::max(config.price_tol, 0.0) * (1.0 + setup.max_marginal)
          : 0.0;
  double lo = 0.0;
  double hi = setup.max_marginal * (1.0 + 1e-9) + 1e-300;
  std::int64_t iterations = 0;
  Side pending = Side::kNone;
  for (int iter = 0; iter < 128; ++iter) {
    const bool converged = config.price_mode
                               ? hi - lo <= stop_width
                               : hi - lo <= 1e-15 * (1.0 + hi);
    if (converged) break;
    const double mid = 0.5 * (lo + hi);
    const Side commit = pending;
    if (fan_out) {
      support::parallel_for(
          *config.workers, 0, num_chunks,
          [&](std::size_t c) { sweep_chunk(c, mid, commit); });
    } else {
      for (std::size_t c = 0; c < num_chunks; ++c) sweep_chunk(c, mid, commit);
    }
    Resource count = 0;
    for (const ChunkState& chunk : chunks) count += chunk.partial;
    ++iterations;
    if (count > pool) {
      lo = mid;
      lo_exact = true;
      pending = Side::kLo;
    } else {
      hi = mid;
      hi_exact = true;
      pending = Side::kHi;
    }
  }
  // Threads still active carry one last uncommitted probe; fold it in so the
  // bracket records describe the final [lo, hi] exactly.
  if (pending != Side::kNone) {
    for (const ChunkState& chunk : chunks) {
      for (const std::size_t i : chunk.active) {
        if (pending == Side::kLo) {
          hot[i].units_lo = hot[i].units_mid;
        } else {
          hot[i].units_hi = hot[i].units_mid;
        }
      }
    }
  }
  obs::count(obs::metric::kSuperOptimalBisectIterations, iterations);

  Resource assigned = 0;
  if (hi_exact) {
    // units_hi is exactly units(hi) for the final hi — no probes needed.
    // Pinned threads' records froze when their bracket collapsed, which is
    // exact: their unit count is constant over the rest of the schedule.
    for (std::size_t i = 0; i < n; ++i) {
      amounts[i] = hot[i].units_hi;
      assigned += amounts[i];
    }
  } else {
    // The loop never committed hi (max_marginal at float-noise scale);
    // evaluate at hi directly.
    assigned = reduce_over(
        config.workers, n, Resource{0},
        [&](std::size_t from, std::size_t to) {
          Resource part = 0;
          for (std::size_t i = from; i < to; ++i) {
            amounts[i] =
                probe(hot[i], hi, bracket_lb(hot[i]), bracket_ub(hot[i]));
            part += amounts[i];
          }
          return part;
        },
        [](Resource acc, Resource part) { return acc + part; });
  }

  // Plateau distribution, identical to the reference: remaining
  // eligible units sit in the converged [lo, hi] sliver, so index order is
  // optimal up to that sliver. units(plateau) >= units(lo) and units_lo was
  // committed at (or below, for pinned threads, where units are constant)
  // the final lo, so units_lo brackets the probe from below.
  Resource residual = pool - assigned;
  if (residual > 0) {
    const double plateau = lo * (1.0 - 1e-12);
    std::vector<Resource> upto(n, 0);
    (void)reduce_over(
        config.workers, n, Resource{0},
        [&](std::size_t from, std::size_t to) {
          for (std::size_t i = from; i < to; ++i) {
            const Resource lb =
                lo_exact ? hot[i].units_lo : bracket_lb(hot[i]);
            upto[i] = probe(hot[i], plateau, lb, hot[i].cap);
          }
          return Resource{0};
        },
        [](Resource acc, Resource part) { return acc + part; });
    for (std::size_t i = 0; i < n && residual > 0; ++i) {
      const Resource take = std::min(residual, upto[i] - amounts[i]);
      amounts[i] += take;
      residual -= take;
    }
  }

  // Safety net for pathological floating-point geometry: finish greedily,
  // with the reference's exact tie-breaking.
  if (residual > 0) {
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
      if (amounts[i] < hot[i].cap) {
        const double m = marginal_of(hot[i], amounts[i] + 1);
        if (m > 0.0) heap.push({m, i});
      }
    }
    while (residual > 0 && !heap.empty()) {
      const Entry top = heap.top();
      heap.pop();
      const std::size_t i = top.thread;
      ++amounts[i];
      --residual;
      if (amounts[i] < hot[i].cap) {
        const double m = marginal_of(hot[i], amounts[i] + 1);
        if (m > 0.0) heap.push({m, i});
      }
    }
  }

  const double total = serial_total(threads, amounts);
  return {std::move(amounts), total};
}

}  // namespace

AllocationResult allocate_bisection_soa(std::span<const UtilityPtr> threads,
                                        Resource pool,
                                        Resource per_thread_cap,
                                        support::ThreadPool* workers) {
  CoreConfig config;
  config.workers = workers;
  return run_bisection_soa(threads, pool, per_thread_cap, config);
}

AllocationResult allocate_price(std::span<const UtilityPtr> threads,
                                Resource pool, Resource per_thread_cap,
                                double price_tol,
                                support::ThreadPool* workers) {
  CoreConfig config;
  config.workers = workers;
  config.price_mode = true;
  config.price_tol = price_tol;
  return run_bisection_soa(threads, pool, per_thread_cap, config);
}

}  // namespace aa::alloc
