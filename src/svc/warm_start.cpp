#include "svc/warm_start.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/online.hpp"
#include "aa/pipeline.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "utility/linearized.hpp"

namespace aa::svc {

namespace {

constexpr const char* kFullSolverLabel = "svc_full";
constexpr const char* kWarmSolverLabel = "svc_warm";

/// Orders thread indices by nonincreasing linearized peak (Algorithm 2's
/// primary sort), ties broken by position for determinism.
std::vector<std::size_t> peak_order(
    const std::vector<util::Linearized>& linearized) {
  std::vector<std::size_t> order(linearized.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (linearized[a].peak != linearized[b].peak) {
      return linearized[a].peak > linearized[b].peak;
    }
    return a < b;
  });
  return order;
}

/// The warm candidate's placement: surviving threads pinned to their
/// previous server in nonincreasing-peak order, each taking
/// min(c_hat_i, remaining); new threads fill the least-loaded servers
/// afterwards.
core::Assignment pinned_placement(
    const core::Instance& instance,
    const std::vector<util::Linearized>& linearized,
    const std::vector<ThreadId>& ids,
    const std::map<ThreadId, std::size_t>& previous_server) {
  const std::size_t n = instance.num_threads();
  core::Assignment placement;
  placement.server.assign(n, 0);
  placement.alloc.assign(n, 0.0);
  std::vector<double> remaining(instance.num_servers,
                                static_cast<double>(instance.capacity));
  const auto place = [&](std::size_t index, std::size_t server) {
    const double give = std::min(static_cast<double>(linearized[index].cap),
                                 remaining[server]);
    placement.server[index] = server;
    placement.alloc[index] = give;
    remaining[server] -= give;
  };
  std::vector<std::size_t> arrivals;  // New threads, still in peak order.
  for (const std::size_t index : peak_order(linearized)) {
    const auto it = previous_server.find(ids[index]);
    if (it == previous_server.end()) {
      arrivals.push_back(index);
    } else {
      place(index, it->second);
    }
  }
  for (const std::size_t index : arrivals) {
    place(index, static_cast<std::size_t>(
                     std::max_element(remaining.begin(), remaining.end()) -
                     remaining.begin()));
  }
  return placement;
}

}  // namespace

const char* solve_path_name(SolvePath path) noexcept {
  switch (path) {
    case SolvePath::kCached: return "cached";
    case SolvePath::kWarm: return "warm";
    case SolvePath::kFull: return "full";
  }
  return "unknown";
}

WarmStartSolver::WarmStartSolver(WarmStartConfig config)
    : config_(config) {}

void WarmStartSolver::reset() {
  have_previous_ = false;
  solved_version_ = 0;
  previous_server_.clear();
  previous_ = ServiceSolveResult{};
}

bool WarmStartSolver::deltas_exceed_threshold(std::uint64_t deltas,
                                              std::size_t num_threads) const {
  const double fraction_limit =
      config_.resolve_delta_fraction * static_cast<double>(num_threads);
  const double limit =
      std::max(static_cast<double>(config_.resolve_delta_min), fraction_limit);
  return static_cast<double>(deltas) > limit;
}

std::size_t WarmStartSolver::count_id_migrations(
    const std::vector<ThreadId>& ids,
    const core::Assignment& assignment) const {
  std::size_t moves = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto it = previous_server_.find(ids[i]);
    if (it != previous_server_.end() && it->second != assignment.server[i]) {
      ++moves;
    }
  }
  return moves;
}

void WarmStartSolver::remember(const ServiceSolveResult& solved,
                               std::uint64_t version) {
  previous_server_.clear();
  for (std::size_t i = 0; i < solved.ids.size(); ++i) {
    previous_server_.emplace(solved.ids[i], solved.result.assignment.server[i]);
  }
  previous_ = solved;
  solved_version_ = version;
  have_previous_ = true;
}

ServiceSolveResult WarmStartSolver::solve(const InstanceState& state,
                                          bool force_full) {
  obs::ScopedPhase phase(obs::metric::kPhaseSvcSolve);
  const std::uint64_t version = state.version();

  // Version unchanged: the previous answer (and certificate) still holds.
  if (have_previous_ && !force_full && version == solved_version_) {
    ServiceSolveResult cached = previous_;
    cached.path = SolvePath::kCached;
    cached.migrations = 0;
    obs::count(obs::metric::kSvcSolveCached);
    return cached;
  }

  ServiceSolveResult solved;
  const core::Instance instance = state.to_instance(&solved.ids);
  const std::size_t n = instance.num_threads();
  const core::CertifyOptions certify_options{/*check_concavity=*/false};

  // Empty instance: the trivial (vacuously certified) solution. Otherwise
  // both candidates are placed on the relaxation of the current utilities.
  core::SolveResult fresh;
  if (n > 0) {
    const core::Relaxation relaxation =
        core::relax(instance, config_.super_optimal);
    const auto candidate = [&](core::Assignment placement) {
      return core::refined(instance, core::package(instance.threads, relaxation,
                                                   std::move(placement)));
    };
    fresh = candidate(core::assign_algorithm2(instance, relaxation.linearized));

    const std::uint64_t deltas =
        have_previous_ ? version - solved_version_ : version;
    const bool must_resolve = force_full || !have_previous_ ||
                              deltas_exceed_threshold(deltas, n);
    if (!must_resolve) {
      core::SolveResult warm = candidate(pinned_placement(
          instance, relaxation.linearized, solved.ids, previous_server_));
      const obs::Certificate warm_certificate = core::certify(
          instance, warm, kWarmSolverLabel, certify_options);
      // kSticky rule: keep the pinned placement unless the fresh one beats
      // it by more than the hysteresis — but only when the warm candidate
      // can certify its own 0.828 bound; otherwise fall back to
      // Algorithm 2, whose bound is Theorem VI.1.
      if (warm_certificate.ok() &&
          !core::sticky_should_migrate(fresh.utility, warm.utility,
                                       config_.hysteresis)) {
        solved.result = std::move(warm);
        solved.path = SolvePath::kWarm;
        solved.certificate = warm_certificate;
        obs::count(obs::metric::kSvcSolveWarm);
      } else if (!warm_certificate.ok()) {
        obs::count(obs::metric::kSvcWarmCertificateRejects);
      }
    }
  }
  if (solved.path == SolvePath::kFull) {
    solved.result = std::move(fresh);
    solved.certificate = core::certify(instance, solved.result,
                                       kFullSolverLabel, certify_options);
    obs::count(obs::metric::kSvcSolveFull);
  }
  solved.migrations = count_id_migrations(solved.ids,
                                          solved.result.assignment);

  // Surface the reply certificate on the installed session (the
  // counters/certificate list behind `aa_serve --metrics`).
  if (obs::Session::current() != nullptr) {
    obs::record_certificate(solved.certificate.input);
  }
  obs::count(obs::metric::kSvcMigrations,
             static_cast<std::int64_t>(solved.migrations));
  remember(solved, version);
  return solved;
}

}  // namespace aa::svc
