#pragma once

// The benchmark's metric catalogue and its result line.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (all measured with tracing off).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"req_p50_ms", "ms"},
    {"solve_p50_ms", "ms"},
    {"throughput_rps", "req/s"},
    {"quality_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Printed with --trace 1 (the separate traced run). The first three are
/// end-to-end figures of its untraced phase whose run-to-run spread on a
/// shared virtual machine exceeds any bound the benchmark may set
/// (README.md), so they are reported here, unbounded.
inline constexpr MetricSpec kPerLayer[] = {
    {"req_p99_ms", "ms"},
    {"solve_p99_ms", "ms"},
    {"scrape_p50_ms", "ms"},
    {"svc.channel.rtt_us", "us"},
    {"svc.channel.bytes_per_req", "bytes"},
    {"svc.protocol.parse_add_us", "us"},
    {"svc.protocol.parse_delta_us", "us"},
    {"svc.protocol.parse_solve_us", "us"},
    {"svc.state.apply_us", "us"},
    {"svc.state.to_instance_us", "us"},
    {"svc.warm_start.cached_us", "us"},
    {"svc.warm_start.warm_us", "us"},
    {"svc.warm_start.full_us", "us"},
    {"svc.warm_start.cached", "count"},
    {"svc.warm_start.warm", "count"},
    {"svc.warm_start.full", "count"},
    {"svc.warm_start.fresh_used_ratio", "ratio"},
    {"alloc.super_optimal_us", "us"},
    {"alloc.calls_per_solve", "count"},
    {"alloc.bisect_iters_per_call", "count"},
    {"utility.linearize_us", "us"},
    {"aa.assign_us", "us"},
    {"aa.refine_us", "us"},
    {"aa.refine.calls_per_solve", "count"},
    {"aa.certify_us", "us"},
    {"aa.certify.checks_per_solve", "count"},
    {"support.json.dump_us", "us"},
    {"support.json.parse_us", "us"},
    {"support.json.reply_bytes", "bytes"},
    {"svc.service.request_us", "us"},
    {"svc.service.self_us", "us"},
    {"svc.batches", "count"},
    {"svc.batch_size_mean", "count"},
    {"svc.queue_peak", "count"},
    {"svc.solves_coalesced", "count"},
    {"svc.server_request_p50_ms", "ms"},
    {"svc.fairness.divide_us", "us"},
    {"obs.session_overhead_ratio", "ratio"},
    {"obs.export_s", "s"},
    {"migrations_per_solve", "count"},
    {"bench.sched_lag_p99_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"ledger.req_unattributed_ms", "ms"},
    {"ledger.solve_unattributed_ms", "ms"},
};

/// Named values of one run; emit() prints the catalogue's subset.
using Values = std::map<std::string, double>;

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Throws when a catalogued metric was not measured.
[[nodiscard]] std::string result_line(bool correct, std::size_t attempted,
                                      std::size_t failed, const Values& values,
                                      bool per_layer);

/// Sample quantile with linear interpolation (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double mean(const std::vector<double>& values);

}  // namespace perfbench
