#pragma once

// Service-side telemetry for svc::Service (svc/service.hpp): global
// counters, log2-bucketed histograms (obs/histogram.hpp), the tail capture
// behind the `trace` verb, and the `stats`/`metrics`/`slo`/`trace`
// renderers. Each finished request is accounted by one finish() call; the
// renderers read per-tenant state from a ServiceSnapshot the service
// collects once under every turn lock. Everything is mirrored into the
// installed aa::obs session (svc/* counters, samples and path instants).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"
#include "support/json.hpp"
#include "support/sync.hpp"
#include "svc/protocol.hpp"
#include "svc/tenant.hpp"
#include "svc/warm_start.hpp"

namespace aa::svc {

struct ServiceConfig;

/// Milliseconds from `from` to `to`.
inline double ms_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One tenant as the read verbs see it, copied under the turn locks.
struct TenantRow {
  std::string name;
  TenantQuota quota;
  std::size_t threads = 0;
  double slice_units = 0.0;
  double demand_units = 0.0;
  util::Resource solve_capacity = 0;
  double credits = 0.0;
  TenantCounters counters;
  /// Lifetime miss ratio over the error budget (1.0 = exhausted).
  double budget_consumed = 0.0;
  /// 1m / 5m / 30m window miss ratios over the budget.
  std::array<double, 3> burn = {};
};

/// What the read verbs render: every tenant (shard order, then id) and
/// the totals next to them.
struct ServiceSnapshot {
  std::vector<TenantRow> tenants;
  std::size_t queue_depth = 0;
  std::size_t threads = 0;
  std::uint64_t version = 0;
};

class Telemetry {
 public:
  using Clock = std::chrono::steady_clock;

  /// One request leaving the service.
  struct Finished {
    std::uint64_t rid = 0;
    std::string_view tenant;  ///< Service::addressed_tenant().
    /// That tenant if it is live; the caller holds its shard's turn lock.
    Tenant* booked = nullptr;
    Clock::time_point enqueued;
    Clock::time_point started;  ///< Picked up by a worker.
    Clock::time_point finished;
    /// Rejected at submit without being queued, so not yet counted.
    bool shed = false;
  };

  /// `config` is the owning service's, which outlives this sink.
  explicit Telemetry(const ServiceConfig& config);

  /// A request joined a queue, which now holds `depth` requests; `op` is
  /// empty for an unparseable line.
  void enqueued(std::optional<Op> op, std::size_t depth) AA_EXCLUDES(mutex_);
  /// A worker drained `size` requests as one batch.
  void batch(std::size_t size) AA_EXCLUDES(mutex_);
  /// One coalesced solve served `requests` solve requests.
  void solved(SolvePath path, std::size_t requests, std::size_t migrations,
              bool certified, double solve_ms) AA_EXCLUDES(mutex_);
  /// A tenant_create / tenant_update / tenant_delete was applied.
  void tenant_changed(Op op) AA_EXCLUDES(mutex_);
  /// The fairness policy re-divided the pool.
  void redivided() AA_EXCLUDES(mutex_);
  /// The one accounting call per request answered by `reply`: latency,
  /// error / timeout / deadline-miss totals, tail capture, the
  /// svc/request_error and svc/slow_request log events, and the booked
  /// tenant's counters and SLO windows.
  void finish(const Finished& request, const support::JsonValue& reply)
      AA_EXCLUDES(mutex_);

  /// `tenant`'s snapshot row, its SLO burn read at `now`; the caller
  /// holds the tenant's turn lock and fills `credits`.
  [[nodiscard]] TenantRow tenant_row(const Tenant& tenant,
                                     Clock::time_point now) const;

  [[nodiscard]] support::JsonValue stats_json(
      const ServiceSnapshot& snapshot) const AA_EXCLUDES(mutex_);
  [[nodiscard]] support::JsonValue slo_json(
      const ServiceSnapshot& snapshot) const;
  /// Prometheus text format (0.0.4), per-tenant families first.
  [[nodiscard]] std::string metrics_text(
      const ServiceSnapshot& snapshot) const AA_EXCLUDES(mutex_);
  /// The K slowest and the K most recent errored requests, each with its
  /// rid, tenant, outcome and span chain.
  [[nodiscard]] support::JsonValue tail_json() const AA_EXCLUDES(mutex_);

 private:
  struct CapturedRequest {
    std::uint64_t rid = 0;
    std::string op;
    std::string tenant;
    std::string tag;
    std::string code;  ///< Error code; empty when the request succeeded.
    std::string path;  ///< Solve path when the reply carried one.
    double enqueued_at_ms = 0.0;  ///< Offset from service start.
    double queue_wait_ms = 0.0;
    double total_ms = 0.0;
    bool ok = true;
  };

  static constexpr std::size_t kTailCapacity = 32;

  const ServiceConfig& config_;
  /// Error budget (1 - slo_objective), floored so burn rates stay finite.
  const double slo_budget_;
  const Clock::time_point started_ = Clock::now();

  // Distributions are log2-bucketed histograms: O(1) per sample with no
  // window to age out, at the cost of one-bucket (2x) quantile resolution.
  // Lock order: leaf — taken only inside these methods, which call out to
  // nothing while holding it, so it nests under any turn or queue lock.
  mutable support::Mutex mutex_;
  std::int64_t requests_total_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t op_counts_[kNumOps] AA_GUARDED_BY(mutex_) = {};
  std::int64_t errors_total_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t timeouts_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t deadline_misses_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t batches_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t solves_coalesced_ AA_GUARDED_BY(mutex_) = 0;
  /// Indexed by SolvePath.
  std::int64_t solves_by_path_[3] AA_GUARDED_BY(mutex_) = {};
  std::int64_t migrations_total_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t certificates_pass_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t certificates_fail_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t tenant_creates_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t tenant_updates_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t tenant_deletes_ AA_GUARDED_BY(mutex_) = 0;
  std::int64_t pool_redivides_ AA_GUARDED_BY(mutex_) = 0;
  std::size_t queue_peak_ AA_GUARDED_BY(mutex_) = 0;
  /// The K slowest requests (slowest first) and the K most recent errored.
  std::vector<CapturedRequest> slowest_ AA_GUARDED_BY(mutex_);
  std::deque<CapturedRequest> errored_ AA_GUARDED_BY(mutex_);
  obs::Histogram batch_size_ AA_GUARDED_BY(mutex_);
  obs::Histogram queue_depth_ AA_GUARDED_BY(mutex_);
  obs::Histogram request_latency_ms_ AA_GUARDED_BY(mutex_);
  obs::Histogram solve_latency_ms_ AA_GUARDED_BY(mutex_);
};

}  // namespace aa::svc
