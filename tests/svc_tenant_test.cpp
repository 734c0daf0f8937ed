// Tests for the multi-tenant service layer (svc/tenant.hpp + the sharded
// Service): tenant CRUD through the protocol verbs, per-tenant isolation of
// thread ids and solves, quota enforcement, the capacity-conservation and
// certificate properties under every fairness policy, and concurrent
// multi-tenant clients across shards (the TSan CI job runs this binary).

#include "svc/tenant.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hpp"
#include "svc/service.hpp"

namespace aa::svc {
namespace {

using support::JsonValue;
using support::json_parse;

constexpr const char* kThreadSpec =
    R"("thread": {"type": "power", "scale": 1.0, "beta": 0.5})";

JsonValue ask(Service& service, const std::string& line) {
  return json_parse(service.request(line));
}

JsonValue add_thread(Service& service, const std::string& tenant) {
  return ask(service, std::string(R"({"op": "add_thread", "tenant": ")") +
                          tenant + R"(", )" + kThreadSpec + "}");
}

JsonValue create_tenant(Service& service, const std::string& tenant,
                        const std::string& extra = "") {
  return ask(service, std::string(R"({"op": "tenant_create", "tenant": ")") +
                          tenant + "\"" + extra + "}");
}

TEST(ShardOf, StableAndInRange) {
  // FNV-1a placement is a wire-visible contract (tenant_list reports it);
  // pin a few values so a hash change cannot slip in silently.
  EXPECT_EQ(shard_of("anything", 1), 0u);
  for (const std::size_t shards : {2u, 4u, 7u}) {
    for (const char* id : {"default", "acme", "a", "zz-9"}) {
      const std::size_t shard = shard_of(id, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, shard_of(id, shards)) << "unstable for " << id;
    }
  }
  // Distinct ids spread: with 26 ids over 4 shards every shard is hit.
  std::set<std::size_t> hit;
  for (char c = 'a'; c <= 'z'; ++c) {
    hit.insert(shard_of(std::string(1, c), 4));
  }
  EXPECT_EQ(hit.size(), 4u);
}

TEST(TenantAdmin, CreateListUpdateDelete) {
  Service service(ServiceConfig{});
  service.start();

  const JsonValue created = create_tenant(
      service, "acme", R"(, "weight": 2.0, "quota": 32, "max_threads": 4)");
  ASSERT_TRUE(created.at("ok").as_bool()) << created.dump();
  EXPECT_EQ(created.at("tenant").as_string(), "acme");
  EXPECT_EQ(created.at("weight").as_number(), 2.0);
  EXPECT_EQ(created.at("quota_units").as_number(), 32.0);
  EXPECT_EQ(created.at("max_threads").as_int(), 4);

  const JsonValue listed = ask(service, R"({"op": "tenant_list"})");
  ASSERT_TRUE(listed.at("ok").as_bool());
  EXPECT_EQ(listed.at("tenant_count").as_int(), 2);
  EXPECT_EQ(listed.at("policy").as_string(), "static_quota");
  const auto& tenants = listed.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 2u);
  // Ordered map: "acme" < "default".
  EXPECT_EQ(tenants[0].at("tenant").as_string(), "acme");
  EXPECT_EQ(tenants[1].at("tenant").as_string(), "default");
  EXPECT_EQ(tenants[0].at("slice_units").as_number(), 32.0);

  const JsonValue updated = ask(
      service, R"({"op": "tenant_update", "tenant": "acme", "quota": 64})");
  ASSERT_TRUE(updated.at("ok").as_bool());
  EXPECT_EQ(updated.at("quota_units").as_number(), 64.0);

  const JsonValue deleted =
      ask(service, R"({"op": "tenant_delete", "tenant": "acme"})");
  ASSERT_TRUE(deleted.at("ok").as_bool());
  const JsonValue relisted = ask(service, R"({"op": "tenant_list"})");
  EXPECT_EQ(relisted.at("tenant_count").as_int(), 1);

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_EQ(stats.at("tenant_ops").at("creates").as_int(), 1);
  EXPECT_EQ(stats.at("tenant_ops").at("updates").as_int(), 1);
  EXPECT_EQ(stats.at("tenant_ops").at("deletes").as_int(), 1);
  // Startup (default tenant) + one per admin op.
  EXPECT_GE(stats.at("tenant_ops").at("redivides").as_int(), 4);
  service.stop();
}

TEST(TenantAdmin, StableErrorCodes) {
  Service service(ServiceConfig{});
  service.start();

  EXPECT_TRUE(create_tenant(service, "acme").at("ok").as_bool());
  const JsonValue duplicate = create_tenant(service, "acme");
  EXPECT_FALSE(duplicate.at("ok").as_bool());
  EXPECT_EQ(duplicate.at("code").as_string(), error_code::kTenantExists);

  const JsonValue ghost_update =
      ask(service, R"({"op": "tenant_update", "tenant": "ghost", "weight": 2.0})");
  EXPECT_EQ(ghost_update.at("code").as_string(),
            error_code::kTenantNotFound);
  const JsonValue ghost_delete =
      ask(service, R"({"op": "tenant_delete", "tenant": "ghost"})");
  EXPECT_EQ(ghost_delete.at("code").as_string(),
            error_code::kTenantNotFound);
  const JsonValue ghost_solve =
      ask(service, R"({"op": "solve", "tenant": "ghost"})");
  EXPECT_EQ(ghost_solve.at("code").as_string(), error_code::kTenantNotFound);
  const JsonValue ghost_add = add_thread(service, "ghost");
  EXPECT_EQ(ghost_add.at("code").as_string(), error_code::kTenantNotFound);

  // The default tenant is load-bearing (tenant-less clients) — protected.
  const JsonValue no_delete =
      ask(service, R"({"op": "tenant_delete", "tenant": "default"})");
  EXPECT_FALSE(no_delete.at("ok").as_bool());
  EXPECT_EQ(no_delete.at("code").as_string(), error_code::kBadTenant);

  // Malformed ids are rejected at parse time with the same stable code.
  const JsonValue bad_id =
      ask(service, R"({"op": "solve", "tenant": "no spaces"})");
  EXPECT_EQ(bad_id.at("code").as_string(), error_code::kBadTenant);
  service.stop();
}

TEST(TenantAdmin, QuotaExceededOnThreadCap) {
  Service service(ServiceConfig{});
  service.start();
  ASSERT_TRUE(create_tenant(service, "capped", R"(, "max_threads": 2)")
                  .at("ok")
                  .as_bool());
  EXPECT_TRUE(add_thread(service, "capped").at("ok").as_bool());
  EXPECT_TRUE(add_thread(service, "capped").at("ok").as_bool());
  const JsonValue third = add_thread(service, "capped");
  EXPECT_FALSE(third.at("ok").as_bool());
  EXPECT_EQ(third.at("code").as_string(), error_code::kQuotaExceeded);
  // Raising the cap unblocks.
  ASSERT_TRUE(
      ask(service,
          R"({"op": "tenant_update", "tenant": "capped", "max_threads": 3})")
          .at("ok")
          .as_bool());
  EXPECT_TRUE(add_thread(service, "capped").at("ok").as_bool());
  // The default tenant is never capped.
  EXPECT_TRUE(ask(service, std::string(R"({"op": "add_thread", )") +
                               kThreadSpec + "}")
                  .at("ok")
                  .as_bool());
  service.stop();
}

TEST(TenantIsolation, IdsAndSolvesArePerTenant) {
  ServiceConfig config;
  config.shards = 2;
  Service service(config);
  service.start();
  ASSERT_TRUE(create_tenant(service, "a").at("ok").as_bool());
  ASSERT_TRUE(create_tenant(service, "b").at("ok").as_bool());

  // Each tenant's id space starts at 1 — ids are per-InstanceState.
  EXPECT_EQ(add_thread(service, "a").at("id").as_int(), 1);
  EXPECT_EQ(add_thread(service, "a").at("id").as_int(), 2);
  EXPECT_EQ(add_thread(service, "b").at("id").as_int(), 1);

  // Removing b's id 2 fails: a's threads are invisible to b.
  const JsonValue cross =
      ask(service, R"({"op": "remove_thread", "tenant": "b", "id": 2})");
  EXPECT_EQ(cross.at("code").as_string(), error_code::kNotFound);

  // Solves see only the tenant's own threads, and echo the tenant.
  const JsonValue solved_a =
      ask(service, R"({"op": "solve", "tenant": "a"})");
  ASSERT_TRUE(solved_a.at("ok").as_bool());
  EXPECT_EQ(solved_a.at("tenant").as_string(), "a");
  EXPECT_EQ(solved_a.at("threads").as_int(), 2);
  const JsonValue solved_b =
      ask(service, R"({"op": "solve", "tenant": "b"})");
  EXPECT_EQ(solved_b.at("threads").as_int(), 1);
  // Tenant-less requests keep addressing the default tenant.
  const JsonValue solved_default = ask(service, R"({"op": "solve"})");
  EXPECT_EQ(solved_default.at("threads").as_int(), 0);
  EXPECT_EQ(solved_default.find("tenant"), nullptr);
  service.stop();
}

// The acceptance property: under every policy, the sum of per-tenant
// granted slices never exceeds the global pool, and every per-tenant solve
// still certifies >= 0.828 of its (sliced) super-optimal bound.
TEST(TenantFairnessProperty, ConservationAndCertificates) {
  for (const char* policy :
       {"static_quota", "weighted_max_min", "karma"}) {
    ServiceConfig config;
    config.num_servers = 2;
    config.capacity = 64;
    config.shards = 2;
    config.fairness = *fairness_policy_from_name(policy);
    config.karma_opening_credits = 8.0;
    Service service(config);
    service.start();

    const std::string tenants[] = {"hog", "modest", "idle"};
    ASSERT_TRUE(create_tenant(service, "hog", R"(, "weight": 2.0)")
                    .at("ok")
                    .as_bool());
    ASSERT_TRUE(create_tenant(service, "modest").at("ok").as_bool());
    ASSERT_TRUE(create_tenant(service, "idle").at("ok").as_bool());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(add_thread(service, "hog").at("ok").as_bool());
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(add_thread(service, "modest").at("ok").as_bool());
    }
    // Re-divide with the demands now visible (thread adds do not
    // re-divide; churn does).
    ASSERT_TRUE(
        ask(service,
            R"({"op": "tenant_update", "tenant": "idle", "weight": 1.0})")
            .at("ok")
            .as_bool());

    const JsonValue listed = ask(service, R"({"op": "tenant_list"})");
    const double pool = listed.at("pool_units").as_number();
    EXPECT_EQ(pool, 128.0);
    double granted = 0.0;
    for (const JsonValue& tenant : listed.at("tenants").as_array()) {
      granted += tenant.at("slice_units").as_number();
      // The published solve capacity honors the slice.
      EXPECT_LE(tenant.at("solve_capacity").as_number(),
                config.capacity);
      EXPECT_GE(tenant.at("solve_capacity").as_number(), 1.0);
    }
    EXPECT_LE(granted, pool + 1e-9) << "policy " << policy;

    for (const std::string& tenant : tenants) {
      const JsonValue solved =
          ask(service, R"({"op": "solve", "tenant": ")" + tenant + "\"}");
      ASSERT_TRUE(solved.at("ok").as_bool()) << solved.dump();
      EXPECT_TRUE(solved.at("certificate_ok").as_bool())
          << "policy " << policy << " tenant " << tenant << ": "
          << solved.dump();
      EXPECT_GE(solved.at("achieved_ratio").as_number(), 0.828)
          << "policy " << policy << " tenant " << tenant;
    }
    service.stop();
  }
}

TEST(TenantMetrics, PerTenantFamiliesAreExposed) {
  Service service(ServiceConfig{});
  service.start();
  ASSERT_TRUE(create_tenant(service, "acme").at("ok").as_bool());
  ASSERT_TRUE(add_thread(service, "acme").at("ok").as_bool());
  ASSERT_TRUE(
      ask(service, R"({"op": "solve", "tenant": "acme"})").at("ok").as_bool());

  const JsonValue metrics = ask(service, R"({"op": "metrics"})");
  ASSERT_TRUE(metrics.at("ok").as_bool());
  const std::string& body = metrics.at("body").as_string();
  EXPECT_NE(body.find("aa_svc_tenants 2"), std::string::npos) << body;
  EXPECT_NE(body.find("aa_svc_shards 1"), std::string::npos);
  EXPECT_NE(
      body.find("aa_svc_tenant_requests_total{tenant=\"acme\"}"),
      std::string::npos);
  EXPECT_NE(body.find("aa_svc_tenant_requests_total{tenant=\"default\"}"),
            std::string::npos);
  EXPECT_NE(body.find("aa_svc_tenant_threads{tenant=\"acme\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find(
                "aa_svc_tenant_solves_total{tenant=\"acme\",path=\"full\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("aa_svc_tenant_slice_units{tenant=\"acme\"}"),
            std::string::npos);
  EXPECT_NE(body.find("aa_svc_tenant_credits{tenant=\"acme\"}"),
            std::string::npos);
  EXPECT_NE(body.find("aa_svc_tenant_creates_total 1"), std::string::npos);
  service.stop();
}

TEST(TenantDemand, ReadsOffSuperOptimalValue) {
  InstanceState state(2, 64);
  EXPECT_EQ(tenant_demand_units(state), 0.0);
  const auto power = [] {
    return std::make_shared<util::PowerUtility>(1.0, 0.5, 64);
  };
  state.add_thread(power());
  const double one = tenant_demand_units(state);
  EXPECT_GT(one, 0.0);
  EXPECT_LE(one, 128.0);
  for (int i = 0; i < 7; ++i) state.add_thread(power());
  EXPECT_GE(tenant_demand_units(state), one);
}

// Many clients over many tenants on several shards, with tenant churn in
// the background: every reply well-formed, every solve certifies, and the
// books stay consistent. This is the binary the TSan soak runs.
TEST(TenantConcurrency, ShardedClientsWithChurn) {
  ServiceConfig config;
  config.shards = 4;
  config.workers = 4;
  config.batch_max = 16;
  config.batch_linger_ms = 0.1;
  config.fairness = FairnessPolicyKind::kWeightedMaxMin;
  Service service(config);
  service.start();

  constexpr int kTenants = 8;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        create_tenant(service, std::string("t").append(std::to_string(t)))
            .at("ok")
            .as_bool());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kTenants; ++c) {
    clients.emplace_back([&service, &failures, c] {
      const std::string tenant = std::string("t").append(std::to_string(c));
      for (int i = 0; i < 40; ++i) {
        JsonValue reply;
        if (i % 5 == 4) {
          reply = json_parse(service.request(
              R"({"op": "solve", "tenant": ")" + tenant + "\"}"));
          if (!reply.at("ok").as_bool() ||
              !reply.at("certificate_ok").as_bool()) {
            ++failures;
          }
        } else {
          reply = json_parse(service.request(
              std::string(R"({"op": "add_thread", "tenant": ")") + tenant +
              R"(", )" + kThreadSpec + "}"));
          if (!reply.at("ok").as_bool()) ++failures;
        }
      }
    });
  }
  // Churn: an admin thread creates and deletes disjoint tenants while the
  // clients run, forcing re-divisions under load.
  std::thread churn([&service] {
    for (int round = 0; round < 10; ++round) {
      const std::string name = "churn" + std::to_string(round);
      (void)service.request(R"({"op": "tenant_create", "tenant": ")" + name +
                            "\"}");
      (void)service.request(R"({"op": "tenant_delete", "tenant": ")" + name +
                            "\"}");
    }
  });
  for (std::thread& client : clients) client.join();
  churn.join();
  EXPECT_EQ(failures.load(), 0);

  const JsonValue listed = ask(service, R"({"op": "tenant_list"})");
  EXPECT_EQ(listed.at("tenant_count").as_int(), kTenants + 1);
  double granted = 0.0;
  for (const JsonValue& tenant : listed.at("tenants").as_array()) {
    granted += tenant.at("slice_units").as_number();
  }
  EXPECT_LE(granted, listed.at("pool_units").as_number() + 1e-9);
  service.stop();
}

}  // namespace
}  // namespace aa::svc
