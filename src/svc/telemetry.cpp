#include "svc/telemetry.hpp"

#include <algorithm>
#include <utility>

#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "svc/service.hpp"

namespace aa::svc {

namespace {

using support::JsonValue;

/// The reply's string member `key`, or empty.
std::string string_member(const JsonValue& reply, std::string_view key) {
  const JsonValue* node = reply.find(key);
  return node != nullptr && node->is_string() ? node->as_string()
                                              : std::string();
}

/// Solve paths in report order.
constexpr std::array<SolvePath, 3> kPaths = {
    SolvePath::kFull, SolvePath::kWarm, SolvePath::kCached};

std::int64_t by_path(const std::int64_t (&counts)[3], SolvePath path) {
  return counts[static_cast<std::size_t>(path)];
}

/// A per-tenant exposition family. A `path` or `window` label fans each
/// tenant's sample out over the solve paths or the SLO windows; counter
/// samples render as integers, gauges as doubles.
struct TenantFamily {
  std::string_view name;
  std::string_view type;
  std::string_view label;  ///< "", "path" or "window".
  double (*value)(const TenantRow& row, std::size_t part);
};

template <typename T>
constexpr double num(T value) {
  return static_cast<double>(value);
}

/// Every per-tenant family, in exposition order.
constexpr TenantFamily kTenantFamilies[] = {
    {"aa_svc_tenant_requests_total", "counter", "",
     [](const TenantRow& r, std::size_t) { return num(r.counters.requests); }},
    {"aa_svc_tenant_errors_total", "counter", "",
     [](const TenantRow& r, std::size_t) { return num(r.counters.errors); }},
    {"aa_svc_tenant_solves_total", "counter", "path",
     [](const TenantRow& r, std::size_t part) {
       return num(by_path(r.counters.solves_by_path, kPaths[part]));
     }},
    {"aa_svc_tenant_threads", "gauge", "",
     [](const TenantRow& r, std::size_t) { return num(r.threads); }},
    {"aa_svc_tenant_slice_units", "gauge", "",
     [](const TenantRow& r, std::size_t) { return r.slice_units; }},
    {"aa_svc_tenant_demand_units", "gauge", "",
     [](const TenantRow& r, std::size_t) { return r.demand_units; }},
    {"aa_svc_tenant_credits", "gauge", "",
     [](const TenantRow& r, std::size_t) { return r.credits; }},
    {"aa_svc_tenant_deadline_miss_total", "counter", "",
     [](const TenantRow& r, std::size_t) {
       return num(r.counters.deadline_misses);
     }},
    {"aa_svc_slo_budget_ratio", "gauge", "",
     [](const TenantRow& r, std::size_t) { return r.budget_consumed; }},
    {"aa_svc_slo_burn_rate", "gauge", "window",
     [](const TenantRow& r, std::size_t part) { return r.burn[part]; }},
};

JsonValue latency_json(const obs::Histogram& histogram) {
  JsonValue node;
  node.set("count", histogram.count());
  if (!histogram.empty()) {
    node.set("p50_ms", histogram.quantile(0.50));
    node.set("p90_ms", histogram.quantile(0.90));
    node.set("p99_ms", histogram.quantile(0.99));
    node.set("p999_ms", histogram.quantile(0.999));
    node.set("mean_ms", histogram.mean());
    node.set("max_ms", histogram.max());
  }
  return node;
}

}  // namespace

Telemetry::Telemetry(const ServiceConfig& config)
    : config_(config),
      slo_budget_(std::max(1.0 - config.slo_objective, 1e-6)) {}

void Telemetry::enqueued(std::optional<Op> op, std::size_t depth) {
  obs::sample(obs::metric::kSampleSvcQueueDepth, static_cast<double>(depth));
  const support::MutexLock lock(mutex_);
  ++requests_total_;
  if (op) ++op_counts_[static_cast<std::size_t>(*op)];
  queue_peak_ = std::max(queue_peak_, depth);
  queue_depth_.sample(static_cast<double>(depth));
}

void Telemetry::batch(std::size_t size) {
  obs::count(obs::metric::kSvcBatches);
  obs::sample(obs::metric::kSampleSvcBatchSize, static_cast<double>(size));
  const support::MutexLock lock(mutex_);
  ++batches_;
  batch_size_.sample(static_cast<double>(size));
}

void Telemetry::solved(SolvePath path, std::size_t requests,
                       std::size_t migrations, bool certified,
                       double solve_ms) {
  constexpr std::string_view kPathEvents[] = {  // Indexed by SolvePath.
      obs::metric::kEventSvcPathCached, obs::metric::kEventSvcPathWarm,
      obs::metric::kEventSvcPathFull};
  obs::instant(kPathEvents[static_cast<std::size_t>(path)]);
  const support::MutexLock lock(mutex_);
  ++solves_by_path_[static_cast<std::size_t>(path)];
  solves_coalesced_ += static_cast<std::int64_t>(requests) - 1;
  migrations_total_ += static_cast<std::int64_t>(migrations);
  ++(certified ? certificates_pass_ : certificates_fail_);
  solve_latency_ms_.sample(solve_ms);
}

void Telemetry::tenant_changed(Op op) {
  obs::count(op == Op::kTenantCreate   ? obs::metric::kSvcTenantCreates
             : op == Op::kTenantUpdate ? obs::metric::kSvcTenantUpdates
                                       : obs::metric::kSvcTenantDeletes);
  const support::MutexLock lock(mutex_);
  ++(op == Op::kTenantCreate   ? tenant_creates_
     : op == Op::kTenantUpdate ? tenant_updates_
                               : tenant_deletes_);
}

void Telemetry::redivided() {
  obs::count(obs::metric::kSvcTenantRedivides);
  const support::MutexLock lock(mutex_);
  ++pool_redivides_;
}

void Telemetry::finish(const Finished& request, const JsonValue& reply) {
  CapturedRequest captured;
  captured.rid = request.rid;
  captured.op = string_member(reply, "op");
  captured.tenant = std::string(request.tenant);
  captured.tag = string_member(reply, "tag");
  captured.code = string_member(reply, "code");
  captured.path = string_member(reply, "path");
  captured.enqueued_at_ms = ms_between(started_, request.enqueued);
  captured.queue_wait_ms = ms_between(request.enqueued, request.started);
  captured.total_ms = ms_between(request.enqueued, request.finished);
  captured.ok = reply.at("ok").as_bool();
  const bool timeout = captured.code == error_code::kTimeout;
  const bool miss = timeout || (config_.slo_ms > 0.0 &&
                                captured.total_ms > config_.slo_ms);
  if (Tenant* tenant = request.booked) {
    const bool good = captured.ok && !miss;
    ++tenant->counters.requests;
    if (!captured.ok) ++tenant->counters.errors;
    if (good) ++tenant->counters.slo_good;
    if (miss) ++tenant->counters.deadline_misses;
    tenant->slo_windows.record(ms_between(started_, request.finished), good);
  }

  {
    const support::MutexLock lock(mutex_);
    if (!captured.ok) ++errors_total_;
    if (timeout) ++timeouts_;
    if (miss) ++deadline_misses_;
    if (request.shed) {
      // Never queued: not yet counted, and no service latency to report.
      ++requests_total_;
    } else {
      request_latency_ms_.sample(captured.total_ms);
      if (slowest_.size() < kTailCapacity ||
          captured.total_ms > slowest_.back().total_ms) {
        const auto pos = std::upper_bound(
            slowest_.begin(), slowest_.end(), captured.total_ms,
            [](double value, const CapturedRequest& entry) {
              return value > entry.total_ms;
            });
        slowest_.insert(pos, captured);
        if (slowest_.size() > kTailCapacity) slowest_.pop_back();
      }
    }
    if (!captured.ok) {
      errored_.push_back(captured);
      if (errored_.size() > kTailCapacity) errored_.pop_front();
    }
  }

  if (!request.shed) {
    obs::sample(obs::metric::kSampleSvcRequest, captured.total_ms);
  }
  if (timeout) obs::count(obs::metric::kSvcTimeouts);
  if (captured.code == error_code::kOverflow) {
    obs::count(obs::metric::kSvcOverflows);
  }
  if (miss) obs::count(obs::metric::kSvcDeadlineMisses);
  // Structured log events; no-ops without an installed Logger.
  if (!captured.ok) {
    JsonValue fields;
    fields.set("op", captured.op);
    fields.set("code", captured.code);
    fields.set("total_ms", captured.total_ms);
    obs::log_event(obs::LogLevel::kWarn, obs::metric::kLogSvcRequestError,
                   request.rid, captured.tenant, std::move(fields));
  } else if (config_.slow_ms > 0.0 && captured.total_ms >= config_.slow_ms) {
    JsonValue fields;
    fields.set("op", captured.op);
    fields.set("total_ms", captured.total_ms);
    fields.set("queue_wait_ms", captured.queue_wait_ms);
    if (!captured.path.empty()) fields.set("path", captured.path);
    obs::log_event(obs::LogLevel::kWarn, obs::metric::kLogSvcSlowRequest,
                   request.rid, captured.tenant, std::move(fields));
  }
}

TenantRow Telemetry::tenant_row(const Tenant& tenant,
                                Clock::time_point now) const {
  TenantRow row;
  row.name = tenant.name;
  row.quota = tenant.quota;
  row.threads = tenant.state.num_threads();
  row.slice_units = tenant.slice_units;
  row.demand_units = tenant.demand_units;
  row.solve_capacity = tenant.state.solve_capacity();
  row.counters = tenant.counters;
  const TenantCounters& counters = tenant.counters;
  const double lifetime_miss =
      counters.requests == 0
          ? 0.0
          : static_cast<double>(counters.requests - counters.slo_good) /
                static_cast<double>(counters.requests);
  row.budget_consumed = lifetime_miss / slo_budget_;
  const double now_ms = ms_between(started_, now);
  for (std::size_t w = 0; w < row.burn.size(); ++w) {
    row.burn[w] =
        tenant.slo_windows.miss_ratio(now_ms, SloWindows::kWindows[w].second) /
        slo_budget_;
  }
  return row;
}

JsonValue Telemetry::stats_json(const ServiceSnapshot& snapshot) const {
  const support::MutexLock lock(mutex_);
  JsonValue payload;
  payload.set("threads", snapshot.threads);
  payload.set("servers", config_.num_servers);
  payload.set("capacity", config_.capacity);
  payload.set("version", snapshot.version);
  payload.set("tenants", snapshot.tenants.size());
  payload.set("shards", config_.shards);
  payload.set("policy", fairness_policy_name(config_.fairness));
  payload.set("pool_units", pool_units(config_));
  payload.set("queue_depth", snapshot.queue_depth);
  payload.set("queue_peak", queue_peak_);
  payload.set("requests_total", requests_total_);
  JsonValue ops;
  for (std::size_t op = 0; op < kNumOps; ++op) {
    ops.set(std::string(op_name(static_cast<Op>(op))), op_counts_[op]);
  }
  payload.set("requests", std::move(ops));
  payload.set("errors_total", errors_total_);
  payload.set("timeouts", timeouts_);
  payload.set("deadline_misses", deadline_misses_);
  payload.set("batches", batches_);
  JsonValue batching;
  batching.set("mean_size", batch_size_.mean());
  batching.set("max_size", batch_size_.max());
  payload.set("batching", std::move(batching));
  JsonValue solves;
  for (const SolvePath path : kPaths) {
    solves.set(solve_path_name(path), by_path(solves_by_path_, path));
  }
  solves.set("coalesced", solves_coalesced_);
  payload.set("solves", std::move(solves));
  payload.set("migrations", migrations_total_);
  JsonValue tenant_ops;
  tenant_ops.set("creates", tenant_creates_);
  tenant_ops.set("updates", tenant_updates_);
  tenant_ops.set("deletes", tenant_deletes_);
  tenant_ops.set("redivides", pool_redivides_);
  payload.set("tenant_ops", std::move(tenant_ops));
  payload.set("request_latency", latency_json(request_latency_ms_));
  payload.set("solve_latency", latency_json(solve_latency_ms_));
  return payload;
}

JsonValue Telemetry::slo_json(const ServiceSnapshot& snapshot) const {
  JsonValue payload;
  payload.set("objective", config_.slo_objective);
  payload.set("slo_ms", config_.slo_ms);
  JsonValue::Array tenants;
  for (const TenantRow& row : snapshot.tenants) {
    JsonValue entry;
    entry.set("tenant", row.name);
    entry.set("requests", row.counters.requests);
    entry.set("good", row.counters.slo_good);
    entry.set("deadline_misses", row.counters.deadline_misses);
    entry.set("budget_consumed", row.budget_consumed);
    for (std::size_t w = 0; w < row.burn.size(); ++w) {
      entry.set("burn_" + std::string(SloWindows::kWindows[w].first),
                row.burn[w]);
    }
    tenants.push_back(std::move(entry));
  }
  payload.set("tenants", JsonValue(std::move(tenants)));
  return payload;
}

std::string Telemetry::metrics_text(const ServiceSnapshot& snapshot) const {
  std::string out;
  out.reserve(8192);
  const auto counter = [&out](std::string_view name, std::int64_t value) {
    obs::prometheus_counter(out, name, value);
  };
  const auto gauge = [&out](std::string_view name, double value) {
    obs::prometheus_gauge(out, name, value);
  };
  gauge("aa_uptime_seconds", ms_between(started_, Clock::now()) / 1e3);

  // Per-tenant labeled families first (tenant ids are [A-Za-z0-9_.-], so
  // label values never need escaping). Cardinality is bounded by the live
  // tenant count — docs/OBSERVABILITY.md "Per-tenant labels".
  gauge("aa_svc_tenants", static_cast<double>(snapshot.tenants.size()));
  gauge("aa_svc_shards", static_cast<double>(config_.shards));
  for (const TenantFamily& family : kTenantFamilies) {
    obs::prometheus_header(out, family.name, family.type);
    const std::size_t parts = family.label.empty() ? 1 : 3;
    for (const TenantRow& row : snapshot.tenants) {
      for (std::size_t part = 0; part < parts; ++part) {
        std::string labels = "tenant=\"" + row.name + "\"";
        if (!family.label.empty()) {
          const std::string_view value =
              family.label == "path" ? solve_path_name(kPaths[part])
                                     : SloWindows::kWindows[part].first;
          labels.append(",").append(family.label).append("=\"");
          labels.append(value).append("\"");
        }
        const double value = family.value(row, part);
        if (family.type == "counter") {
          obs::prometheus_sample(out, family.name, labels,
                                 static_cast<std::int64_t>(value));
        } else {
          obs::prometheus_sample(out, family.name, labels, value);
        }
      }
    }
  }

  support::MutexLock lock(mutex_);
  counter("aa_svc_requests_total", requests_total_);
  obs::prometheus_header(out, "aa_svc_requests_by_op_total", "counter");
  for (std::size_t op = 0; op < kNumOps; ++op) {
    obs::prometheus_sample(
        out, "aa_svc_requests_by_op_total",
        "op=\"" + std::string(op_name(static_cast<Op>(op))) + "\"",
        op_counts_[op]);
  }
  counter("aa_svc_errors_total", errors_total_);
  counter("aa_svc_timeouts_total", timeouts_);
  counter("aa_svc_deadline_miss_total", deadline_misses_);
  counter("aa_svc_batches_total", batches_);
  counter("aa_svc_solves_coalesced_total", solves_coalesced_);
  obs::prometheus_header(out, "aa_svc_solves_total", "counter");
  for (const SolvePath path : kPaths) {
    obs::prometheus_sample(
        out, "aa_svc_solves_total",
        "path=\"" + std::string(solve_path_name(path)) + "\"",
        by_path(solves_by_path_, path));
  }
  counter("aa_svc_migrations_total", migrations_total_);
  obs::prometheus_header(out, "aa_svc_certificates_total", "counter");
  obs::prometheus_sample(out, "aa_svc_certificates_total",
                         "verdict=\"pass\"", certificates_pass_);
  obs::prometheus_sample(out, "aa_svc_certificates_total",
                         "verdict=\"fail\"", certificates_fail_);
  counter("aa_svc_tenant_creates_total", tenant_creates_);
  counter("aa_svc_tenant_updates_total", tenant_updates_);
  counter("aa_svc_tenant_deletes_total", tenant_deletes_);
  counter("aa_svc_pool_redivides_total", pool_redivides_);
  gauge("aa_svc_queue_depth", static_cast<double>(snapshot.queue_depth));
  gauge("aa_svc_queue_peak", static_cast<double>(queue_peak_));
  gauge("aa_svc_threads", static_cast<double>(snapshot.threads));
  gauge("aa_svc_state_version", static_cast<double>(snapshot.version));
  for (const auto& [name, histogram] :
       {std::pair{"aa_svc_request_latency", &request_latency_ms_},
        std::pair{"aa_svc_solve_latency", &solve_latency_ms_}}) {
    obs::prometheus_histogram(out, std::string(name) + "_ms", *histogram);
    obs::prometheus_summary(out, std::string(name) + "_quantiles_ms",
                            *histogram);
  }
  obs::prometheus_histogram(out, "aa_svc_batch_size", batch_size_);
  obs::prometheus_histogram(out, "aa_svc_queue_depth_samples", queue_depth_);
  lock.unlock();  // The session takes its own locks.

  // Session-side drop accounting, so truncated telemetry is visible from
  // the same scrape that would be misled by it.
  if (const obs::Session* session = obs::Session::current()) {
    const obs::Metrics metrics = session->metrics();
    counter("aa_obs_trace_dropped_total",
            metrics.counter(obs::metric::kObsTraceDropped));
    counter("aa_obs_histogram_dropped_total",
            metrics.counter(obs::metric::kObsHistogramDropped));
    counter("aa_obs_certificates_dropped_total",
            metrics.counter(obs::metric::kObsCertificatesDropped));
    counter("aa_obs_log_dropped_total",
            metrics.counter(obs::metric::kObsLogDropped));
    obs::prometheus_header(out, "aa_obs_trace_ring_dropped_total", "counter");
    for (const obs::TraceRingInfo& ring : session->trace_rings()) {
      obs::prometheus_sample(out, "aa_obs_trace_ring_dropped_total",
                             "ring=\"" + std::to_string(ring.tid) + "\"",
                             ring.dropped);
    }
  }
  return out;
}

JsonValue Telemetry::tail_json() const {
  const auto entry_json = [](const CapturedRequest& entry) {
    JsonValue node;
    node.set("rid", static_cast<std::int64_t>(entry.rid));
    if (!entry.op.empty()) node.set("op", entry.op);
    if (!entry.tenant.empty()) node.set("tenant", entry.tenant);
    if (!entry.tag.empty()) node.set("tag", entry.tag);
    node.set("ok", entry.ok);
    if (!entry.code.empty()) node.set("code", entry.code);
    if (!entry.path.empty()) node.set("path", entry.path);
    node.set("enqueued_at_ms", entry.enqueued_at_ms);
    node.set("total_ms", entry.total_ms);
    JsonValue::Array spans;
    JsonValue wait;
    wait.set("name", std::string(obs::metric::kEventSvcQueueWait));
    wait.set("at_ms", entry.enqueued_at_ms);
    wait.set("ms", entry.queue_wait_ms);
    spans.push_back(std::move(wait));
    JsonValue process;
    process.set("name", std::string(obs::metric::kPhaseSvcBatch));
    process.set("at_ms", entry.enqueued_at_ms + entry.queue_wait_ms);
    process.set("ms", std::max(entry.total_ms - entry.queue_wait_ms, 0.0));
    spans.push_back(std::move(process));
    node.set("spans", JsonValue(std::move(spans)));
    return node;
  };
  const auto entries = [&entry_json](const auto& captured) {
    JsonValue::Array array;
    for (const CapturedRequest& entry : captured) {
      array.push_back(entry_json(entry));
    }
    return JsonValue(std::move(array));
  };
  const support::MutexLock lock(mutex_);
  JsonValue payload;
  payload.set("slowest", entries(slowest_));
  payload.set("errors", entries(errored_));
  payload.set("capacity", kTailCapacity);
  return payload;
}

}  // namespace aa::svc
