// Pins the service's telemetry surfaces (svc/service.hpp) on one scripted
// multi-tenant session: the `stats` reply, the `metrics` exposition, the
// `slo` and `tenant_list` replies, and the `trace` verb's error tail. Only
// timing-valued fields are stripped; every count, ordering and label is
// compared verbatim, so a refactor of the accounting that changes what a
// scrape says fails here.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/json.hpp"

namespace aa::svc {
namespace {

using support::JsonValue;
using support::json_parse;

JsonValue ask(Service& service, const std::string& line) {
  return json_parse(service.request(line));
}

std::string add_thread(const std::string& tenant, const std::string& tag) {
  return R"({"op": "add_thread", "tenant": ")" + tenant + R"(", "tag": ")" +
         tag +
         R"(", "thread": {"type": "power", "scale": 1.5, "beta": 0.5}})";
}

/// A pinned block: the raw literal opens with a newline so its first line
/// starts in column 0; the pin itself does not include it.
std::string pinned(const char* text) { return text + 1; }

/// `value` without the members named in `drop`, recursively.
JsonValue without(const JsonValue& value,
                  const std::vector<std::string>& drop) {
  if (value.is_array()) {
    JsonValue::Array items;
    for (const JsonValue& item : value.as_array()) {
      items.push_back(without(item, drop));
    }
    return JsonValue(std::move(items));
  }
  if (!value.is_object()) return value;
  JsonValue::Object members;
  for (const auto& [key, member] : value.as_object()) {
    bool dropped = false;
    for (const std::string& name : drop) dropped = dropped || key == name;
    if (!dropped) members.emplace_back(key, without(member, drop));
  }
  return JsonValue(std::move(members));
}

/// The exposition without timing-valued samples: uptime and the latency
/// histograms/summaries go, `# TYPE` lines and every other sample stay.
std::string untimed_metrics(const std::string& body) {
  std::istringstream in(body);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const bool timed = line.rfind("aa_uptime_seconds", 0) == 0 ||
                       line.rfind("aa_svc_request_latency", 0) == 0 ||
                       line.rfind("aa_svc_solve_latency", 0) == 0;
    if (!timed) out += line + "\n";
  }
  return out;
}

/// The scripted session every pin reads: tenants on both shards ("default"
/// and "gamma" hash to shard 0, "acme" to shard 1), one of each error kind,
/// coalesced-free solves, and a tenant deletion. Every request is its own
/// batch, so no read shares a batch with the work it reports.
class TelemetryPins : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig config;
    config.shards = 2;
    config.workers = 2;
    service_ = std::make_unique<Service>(config);

    // Queued before start() and picked up long after its deadline.
    auto late = std::make_shared<std::promise<std::string>>();
    service_->submit_line(
        R"({"op": "add_thread", "deadline_ms": 1.0, "tag": "late", )"
        R"("thread": {"type": "power", "scale": 1.0, "beta": 0.5}})",
        [late](const std::string& text) { late->set_value(text); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service_->start();
    ASSERT_EQ(json_parse(late->get_future().get()).at("code").as_string(),
              "timeout");

    const std::vector<std::pair<std::string, bool>> script = {
        {R"({"op": "tenant_create", "tenant": "acme", "weight": 2.0, )"
         R"("quota": 32, "max_threads": 2})",
         true},
        {R"({"op": "tenant_create", "tenant": "gamma"})", true},
        {add_thread("acme", "a1"), true},
        {add_thread("acme", "a2"), true},
        {add_thread("acme", "a3"), false},  // quota_exceeded
        {add_thread("default", "d1"), true},
        {add_thread("default", "d2"), true},
        {add_thread("gamma", "g1"), true},
        {R"({"op": "remove_thread", "id": 99, "tag": "gone"})", false},
        {"this is not json", false},  // parse_error
        {R"({"op": "solve", "tenant": "acme", "tag": "s1"})", true},
        {R"({"op": "solve", "tag": "s2"})", true},
        {R"({"op": "solve", "tenant": "acme", "tag": "s3"})", true},
        {R"({"op": "solve", "tenant": "gamma", "tag": "s4"})", true},
        {R"({"op": "tenant_delete", "tenant": "gamma"})", true},
    };
    for (const auto& [line, ok] : script) {
      const JsonValue reply = ask(*service_, line);
      ASSERT_EQ(reply.at("ok").as_bool(), ok) << line << " -> "
                                              << reply.dump();
    }
  }

  void TearDown() override { service_->stop(); }

  /// Issues `line` while shard 0's worker is parked delivering a `trace`
  /// reply. The service accounts a request's enqueue after releasing the
  /// queue, so without the gate a read could be rendered before its own
  /// enqueue is counted; parked, the worker pops it only after that.
  JsonValue read(const std::string& line) {
    auto parked = std::make_shared<std::promise<void>>();
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    service_->submit_line(R"({"op": "trace"})",
                          [parked, open](const std::string&) {
                            parked->set_value();
                            open.wait();
                          });
    parked->get_future().wait();
    auto done = std::make_shared<std::promise<std::string>>();
    service_->submit_line(
        line, [done](const std::string& text) { done->set_value(text); });
    gate.set_value();
    return json_parse(done->get_future().get());
  }

  std::unique_ptr<Service> service_;
};

TEST_F(TelemetryPins, StatsReply) {
  const JsonValue stats = read(R"({"op": "stats"})");
  const JsonValue untimed =
      without(stats, {"rid", "p50_ms", "p90_ms", "p99_ms", "p999_ms",
                      "mean_ms", "max_ms"});
  EXPECT_EQ(untimed.dump(2), pinned(R"(
{
  "ok": true,
  "op": "stats",
  "threads": 4,
  "servers": 2,
  "capacity": 64,
  "version": 8,
  "tenants": 2,
  "shards": 2,
  "policy": "static_quota",
  "pool_units": 128,
  "queue_depth": 0,
  "queue_peak": 1,
  "requests_total": 18,
  "requests": {
    "add_thread": 7,
    "remove_thread": 1,
    "update_utility": 0,
    "solve": 4,
    "stats": 1,
    "metrics": 0,
    "trace": 1,
    "slo": 0,
    "shutdown": 0,
    "tenant_create": 2,
    "tenant_update": 0,
    "tenant_delete": 1,
    "tenant_list": 0
  },
  "errors_total": 4,
  "timeouts": 1,
  "deadline_misses": 1,
  "batches": 18,
  "batching": {
    "mean_size": 1,
    "max_size": 1
  },
  "solves": {
    "full": 3,
    "warm": 0,
    "cached": 1,
    "coalesced": 0
  },
  "migrations": 0,
  "tenant_ops": {
    "creates": 2,
    "updates": 0,
    "deletes": 1,
    "redivides": 4
  },
  "request_latency": {
    "count": 17
  },
  "solve_latency": {
    "count": 4
  }
})"));
}

TEST_F(TelemetryPins, MetricsBody) {
  const JsonValue metrics = read(R"({"op": "metrics"})");
  const std::string body = untimed_metrics(metrics.at("body").as_string());
  EXPECT_EQ(body, pinned(R"(
# TYPE aa_uptime_seconds gauge
# TYPE aa_svc_tenants gauge
aa_svc_tenants 2
# TYPE aa_svc_shards gauge
aa_svc_shards 2
# TYPE aa_svc_tenant_requests_total counter
aa_svc_tenant_requests_total{tenant="default"} 5
aa_svc_tenant_requests_total{tenant="acme"} 5
# TYPE aa_svc_tenant_errors_total counter
aa_svc_tenant_errors_total{tenant="default"} 2
aa_svc_tenant_errors_total{tenant="acme"} 1
# TYPE aa_svc_tenant_solves_total counter
aa_svc_tenant_solves_total{tenant="default",path="full"} 1
aa_svc_tenant_solves_total{tenant="default",path="warm"} 0
aa_svc_tenant_solves_total{tenant="default",path="cached"} 0
aa_svc_tenant_solves_total{tenant="acme",path="full"} 1
aa_svc_tenant_solves_total{tenant="acme",path="warm"} 0
aa_svc_tenant_solves_total{tenant="acme",path="cached"} 1
# TYPE aa_svc_tenant_threads gauge
aa_svc_tenant_threads{tenant="default"} 2
aa_svc_tenant_threads{tenant="acme"} 2
# TYPE aa_svc_tenant_slice_units gauge
aa_svc_tenant_slice_units{tenant="default"} 42.666666666666664
aa_svc_tenant_slice_units{tenant="acme"} 32
# TYPE aa_svc_tenant_demand_units gauge
aa_svc_tenant_demand_units{tenant="default"} 128
aa_svc_tenant_demand_units{tenant="acme"} 128
# TYPE aa_svc_tenant_credits gauge
aa_svc_tenant_credits{tenant="default"} 0
aa_svc_tenant_credits{tenant="acme"} 0
# TYPE aa_svc_tenant_deadline_miss_total counter
aa_svc_tenant_deadline_miss_total{tenant="default"} 1
aa_svc_tenant_deadline_miss_total{tenant="acme"} 0
# TYPE aa_svc_slo_budget_ratio gauge
aa_svc_slo_budget_ratio{tenant="default"} 399.99999999999966
aa_svc_slo_budget_ratio{tenant="acme"} 199.99999999999983
# TYPE aa_svc_slo_burn_rate gauge
aa_svc_slo_burn_rate{tenant="default",window="1m"} 399.99999999999966
aa_svc_slo_burn_rate{tenant="default",window="5m"} 399.99999999999966
aa_svc_slo_burn_rate{tenant="default",window="30m"} 399.99999999999966
aa_svc_slo_burn_rate{tenant="acme",window="1m"} 199.99999999999983
aa_svc_slo_burn_rate{tenant="acme",window="5m"} 199.99999999999983
aa_svc_slo_burn_rate{tenant="acme",window="30m"} 199.99999999999983
# TYPE aa_svc_requests_total counter
aa_svc_requests_total 18
# TYPE aa_svc_requests_by_op_total counter
aa_svc_requests_by_op_total{op="add_thread"} 7
aa_svc_requests_by_op_total{op="remove_thread"} 1
aa_svc_requests_by_op_total{op="update_utility"} 0
aa_svc_requests_by_op_total{op="solve"} 4
aa_svc_requests_by_op_total{op="stats"} 0
aa_svc_requests_by_op_total{op="metrics"} 1
aa_svc_requests_by_op_total{op="trace"} 1
aa_svc_requests_by_op_total{op="slo"} 0
aa_svc_requests_by_op_total{op="shutdown"} 0
aa_svc_requests_by_op_total{op="tenant_create"} 2
aa_svc_requests_by_op_total{op="tenant_update"} 0
aa_svc_requests_by_op_total{op="tenant_delete"} 1
aa_svc_requests_by_op_total{op="tenant_list"} 0
# TYPE aa_svc_errors_total counter
aa_svc_errors_total 4
# TYPE aa_svc_timeouts_total counter
aa_svc_timeouts_total 1
# TYPE aa_svc_deadline_miss_total counter
aa_svc_deadline_miss_total 1
# TYPE aa_svc_batches_total counter
aa_svc_batches_total 18
# TYPE aa_svc_solves_coalesced_total counter
aa_svc_solves_coalesced_total 0
# TYPE aa_svc_solves_total counter
aa_svc_solves_total{path="full"} 3
aa_svc_solves_total{path="warm"} 0
aa_svc_solves_total{path="cached"} 1
# TYPE aa_svc_migrations_total counter
aa_svc_migrations_total 0
# TYPE aa_svc_certificates_total counter
aa_svc_certificates_total{verdict="pass"} 4
aa_svc_certificates_total{verdict="fail"} 0
# TYPE aa_svc_tenant_creates_total counter
aa_svc_tenant_creates_total 2
# TYPE aa_svc_tenant_updates_total counter
aa_svc_tenant_updates_total 0
# TYPE aa_svc_tenant_deletes_total counter
aa_svc_tenant_deletes_total 1
# TYPE aa_svc_pool_redivides_total counter
aa_svc_pool_redivides_total 4
# TYPE aa_svc_queue_depth gauge
aa_svc_queue_depth 0
# TYPE aa_svc_queue_peak gauge
aa_svc_queue_peak 1
# TYPE aa_svc_threads gauge
aa_svc_threads 4
# TYPE aa_svc_state_version gauge
aa_svc_state_version 8
# TYPE aa_svc_request_latency_ms histogram
# TYPE aa_svc_request_latency_quantiles_ms summary
# TYPE aa_svc_solve_latency_ms histogram
# TYPE aa_svc_solve_latency_quantiles_ms summary
# TYPE aa_svc_batch_size histogram
aa_svc_batch_size_bucket{le="1"} 18
aa_svc_batch_size_bucket{le="+Inf"} 18
aa_svc_batch_size_sum 18
aa_svc_batch_size_count 18
# TYPE aa_svc_queue_depth_samples histogram
aa_svc_queue_depth_samples_bucket{le="1"} 18
aa_svc_queue_depth_samples_bucket{le="+Inf"} 18
aa_svc_queue_depth_samples_sum 18
aa_svc_queue_depth_samples_count 18
)"));
}

TEST_F(TelemetryPins, SloReply) {
  const JsonValue slo = read(R"({"op": "slo"})");
  EXPECT_EQ(without(slo, {"rid"}).dump(2), pinned(R"(
{
  "ok": true,
  "op": "slo",
  "objective": 0.999,
  "slo_ms": 0,
  "tenants": [
    {
      "tenant": "default",
      "requests": 5,
      "good": 3,
      "deadline_misses": 1,
      "budget_consumed": 399.99999999999966,
      "burn_1m": 399.99999999999966,
      "burn_5m": 399.99999999999966,
      "burn_30m": 399.99999999999966
    },
    {
      "tenant": "acme",
      "requests": 5,
      "good": 4,
      "deadline_misses": 0,
      "budget_consumed": 199.99999999999983,
      "burn_1m": 199.99999999999983,
      "burn_5m": 199.99999999999983,
      "burn_30m": 199.99999999999983
    }
  ]
})"));
}

TEST_F(TelemetryPins, TenantListReply) {
  const JsonValue listed = read(R"({"op": "tenant_list"})");
  EXPECT_EQ(without(listed, {"rid"}).dump(2), pinned(R"(
{
  "ok": true,
  "op": "tenant_list",
  "policy": "static_quota",
  "pool_units": 128,
  "tenants": [
    {
      "tenant": "default",
      "shard": 0,
      "weight": 1,
      "quota_units": 0,
      "max_threads": 0,
      "threads": 2,
      "slice_units": 42.666666666666664,
      "demand_units": 128,
      "solve_capacity": 21,
      "credits": 0
    },
    {
      "tenant": "acme",
      "shard": 1,
      "weight": 2,
      "quota_units": 32,
      "max_threads": 2,
      "threads": 2,
      "slice_units": 32,
      "demand_units": 128,
      "solve_capacity": 16,
      "credits": 0
    }
  ],
  "tenant_count": 2
})"));
}

TEST_F(TelemetryPins, TraceErrors) {
  const JsonValue trace = read(R"({"op": "trace"})");
  std::string errors;
  for (const JsonValue& entry : trace.at("errors").as_array()) {
    std::string line;
    for (const char* key : {"op", "code", "tenant", "tag"}) {
      const JsonValue* value = entry.find(key);
      if (!line.empty()) line += ' ';
      line += std::string(key) + "=" +
              (value != nullptr ? value->as_string() : "-");
    }
    errors += line + "\n";
  }
  EXPECT_EQ(errors, pinned(R"(
op=add_thread code=timeout tenant=default tag=late
op=add_thread code=quota_exceeded tenant=acme tag=a3
op=remove_thread code=not_found tenant=default tag=gone
op=- code=parse_error tenant=- tag=-
)"));
}

// The per-tenant request counter is the SLO denominator: every finished
// request addressed to a live tenant counts once, timeouts included.
TEST(TenantCounters, RequestsMatchTheSloVerb) {
  ServiceConfig config;
  config.shards = 2;
  config.workers = 2;
  Service service(config);
  service.start();
  ASSERT_TRUE(ask(service, R"({"op": "tenant_create", "tenant": "acme"})")
                  .at("ok")
                  .as_bool());
  for (const std::string tenant : {"default", "acme"}) {
    ASSERT_TRUE(ask(service, add_thread(tenant, "add")).at("ok").as_bool());
    // A 1 ns deadline has always expired by the time a worker pops it.
    const JsonValue late = ask(
        service, R"({"op": "solve", "deadline_ms": 1e-6, "tenant": ")" +
                     tenant + R"("})");
    EXPECT_EQ(late.at("code").as_string(), "timeout");
    ASSERT_TRUE(ask(service, R"({"op": "solve", "tenant": ")" + tenant +
                                 R"("})")
                    .at("ok")
                    .as_bool());
  }
  const std::string body =
      ask(service, R"({"op": "metrics"})").at("body").as_string();
  const JsonValue slo = ask(service, R"({"op": "slo"})");
  service.stop();

  const auto& tenants = slo.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 2u);
  for (const JsonValue& entry : tenants) {
    const std::string& name = entry.at("tenant").as_string();
    EXPECT_EQ(entry.at("requests").as_int(), 3) << name;
    EXPECT_EQ(entry.at("deadline_misses").as_int(), 1) << name;
    const std::string sample = "aa_svc_tenant_requests_total{tenant=\"" +
                               name + "\"} " +
                               std::to_string(entry.at("requests").as_int());
    EXPECT_NE(body.find(sample + "\n"), std::string::npos) << body;
    const std::string errors =
        "aa_svc_tenant_errors_total{tenant=\"" + name + "\"} 1\n";
    EXPECT_NE(body.find(errors), std::string::npos) << body;
  }
}

// An overflow is answered inline, but only after the queue lock is
// released: a client that never reads its reply stalls its own callback,
// not the shard's other producers. The shed request is then accounted like
// any other error: svc/overflows, the `trace` error tail, and a
// svc/request_error log line.
TEST(InlineReject, StalledOverflowReplyDoesNotBlockTheShard) {
  obs::Session session;
  std::ostringstream log_out;
  obs::LoggerConfig log_config;
  log_config.events_per_sec = 0.0;  // No limiting: count exact lines.
  obs::Logger logger(log_out, log_config);

  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 1;
  Service service(config);
  // Not started: this request fills the queue.
  auto queued = std::make_shared<std::promise<std::string>>();
  service.submit_line(add_thread("default", "queued"),
                      [queued](const std::string& text) {
                        queued->set_value(text);
                      });

  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::thread stalled([&service, &entered, released] {
    service.submit_line(R"({"op": "solve", "tag": "stalled"})",
                        [&entered, released](const std::string&) {
                          entered.set_value();
                          released.wait();
                        });
  });
  entered.get_future().wait();
  auto second = std::async(std::launch::async, [&service] {
    return service.request(R"({"op": "solve", "tag": "second"})");
  });
  const bool returned =
      second.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  stalled.join();
  ASSERT_TRUE(returned) << "a blocked overflow reply froze the shard";
  EXPECT_EQ(json_parse(second.get()).at("code").as_string(), "overflow");

  service.start();
  EXPECT_TRUE(json_parse(queued->get_future().get()).at("ok").as_bool());
  const JsonValue trace = ask(service, R"({"op": "trace"})");
  const JsonValue stats = ask(service, R"({"op": "stats"})");
  service.stop();

  EXPECT_EQ(session.metrics().counter(obs::metric::kSvcOverflows), 2);
  EXPECT_EQ(stats.at("errors_total").as_int(), 2);
  std::vector<std::string> shed;
  for (const JsonValue& entry : trace.at("errors").as_array()) {
    EXPECT_EQ(entry.at("code").as_string(), "overflow");
    EXPECT_EQ(entry.at("op").as_string(), "solve");
    EXPECT_EQ(entry.at("tenant").as_string(), "default");
    shed.push_back(entry.at("tag").as_string());
  }
  EXPECT_EQ(shed, (std::vector<std::string>{"stalled", "second"}));
  std::size_t logged = 0;
  std::istringstream lines(log_out.str());
  for (std::string line; std::getline(lines, line);) {
    const JsonValue event = json_parse(line);
    if (event.at("event").as_string() == obs::metric::kLogSvcRequestError) {
      EXPECT_EQ(event.at("code").as_string(), "overflow");
      ++logged;
    }
  }
  EXPECT_EQ(logged, 2u);
}

}  // namespace
}  // namespace aa::svc
