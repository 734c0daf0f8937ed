#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "io/instance_io.hpp"
#include "support/distributions.hpp"
#include "utility/generator.hpp"

namespace perfbench {

namespace {

/// Offered rate of the open-loop `tenants` workload: about half of the
/// closed-loop capacity measured on the reference machine (README.md).
constexpr double kTenantsRateRps = 5000.0;
constexpr double kScrapeEvery = 0.25;        // seconds
constexpr double kTenantUpdateEvery = 10.0;  // seconds
constexpr double kReplanFraction = 0.30;     // of the threads, per epoch

std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

std::string tenant_name(std::size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "t%02zu", index);
  return buf;
}

}  // namespace

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kAdd: return "add_thread";
    case Kind::kUpdate: return "update_utility";
    case Kind::kRemove: return "remove_thread";
    case Kind::kSolve: return "solve";
    case Kind::kScrape: return "metrics";
    case Kind::kTenantAdmin: return "tenant_admin";
  }
  return "unknown";
}

WorkloadConfig workload_config(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  if (name == "drift") {
    config.servers = 8;
    config.capacity = 1000;
    config.threads_per_tenant = 256;
    config.digest = true;
  } else if (name == "tenants") {
    config.servers = 4;
    config.capacity = 256;
    config.tenants = 16;
    config.threads_per_tenant = 32;
    config.connections = 4;
    config.open_loop = true;
    config.rate_rps = kTenantsRateRps;
    config.instrumented = true;
    config.server_flags = {"--shards", "4", "--workers", "4", "--fairness",
                           "weighted_max_min", "--metrics", "metrics.json",
                           "--trace-out", "trace.json", "--log-level",
                           "info", "--log-out", "server.log"};
  } else if (name == "replan") {
    config.servers = 8;
    config.capacity = 1000;
    config.threads_per_tenant = 4096;
    config.digest = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (want drift | tenants | replan)");
  }
  const std::vector<std::string> shape = {
      "--servers", std::to_string(config.servers), "--capacity",
      std::to_string(config.capacity)};
  config.server_flags.insert(config.server_flags.begin(), shape.begin(),
                             shape.end());
  return config;
}

Stream::Stream(WorkloadConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(aa::support::Rng::child(seed, 0x5eed)) {
  tenants_.resize(config_.tenants);
  if (config_.tenants > 1) {
    double total = 0.0;
    for (std::size_t i = 0; i < config_.tenants; ++i) {
      tenants_[i].name = tenant_name(i);
      total += 1.0 / static_cast<double>(i + 1);  // Zipf(1.0)
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

std::string Stream::fresh_tag() { return "r" + std::to_string(tag_seq_++); }

std::string Stream::thread_spec(bool tabulated) {
  const long cap = config_.capacity;
  if (tabulated) {
    // The paper's Section VII generator: a PCHIP-interpolated concave
    // curve, sent as its full tabulation (cap + 1 values).
    const aa::support::DistributionParams uniform;
    return aa::io::utility_to_json(
               *aa::util::generate_utility(cap, uniform, rng_))
        .dump();
  }
  const double pick = rng_.uniform01();
  if (pick < 0.4) {
    return "{\"type\":\"power\",\"scale\":" + fmt(rng_.uniform(1.0, 10.0)) +
           ",\"beta\":" + fmt(rng_.uniform(0.2, 0.9)) + "}";
  }
  if (pick < 0.75) {
    return "{\"type\":\"log\",\"scale\":" + fmt(rng_.uniform(1.0, 10.0)) +
           ",\"rate\":" + fmt(rng_.uniform(0.005, 0.1)) + "}";
  }
  const double c = static_cast<double>(cap);
  return "{\"type\":\"capped_linear\",\"slope\":" +
         fmt(rng_.uniform(0.01, 0.1)) + ",\"cap\":" +
         fmt(std::floor(rng_.uniform(c / 8.0, c))) + "}";
}

Request Stream::make(Kind kind, std::size_t tenant, std::string body) {
  Request request;
  request.kind = kind;
  request.tenant = tenant;
  request.conn = tenant % config_.connections;
  request.tag = fresh_tag();
  request.line = std::move(body);
  if (kind != Kind::kScrape && kind != Kind::kTenantAdmin &&
      !tenants_[tenant].name.empty()) {
    request.line += ",\"tenant\":\"" + tenants_[tenant].name + "\"";
  }
  request.line += ",\"tag\":\"" + request.tag + "\"}";
  return request;
}

Request Stream::add(std::size_t tenant, bool tabulated) {
  TenantState& state = tenants_[tenant];
  Request request = make(Kind::kAdd, tenant,
                         "{\"op\":\"add_thread\",\"thread\":" +
                             thread_spec(tabulated));
  request.id = state.next_id++;
  state.live.push_back(request.id);
  return request;
}

Request Stream::update(std::size_t tenant, std::uint64_t id) {
  // Log-symmetric drift factor in [0.8, 1.25]: utilities random-walk
  // without a trend, so long runs stay comparable.
  const double factor =
      std::exp(rng_.uniform(-std::log(1.25), std::log(1.25)));
  Request request = make(Kind::kUpdate, tenant,
                         "{\"op\":\"update_utility\",\"id\":" +
                             std::to_string(id) + ",\"factor\":" +
                             fmt(factor));
  request.id = id;
  return request;
}

Request Stream::remove(std::size_t tenant) {
  std::vector<std::uint64_t>& live = tenants_[tenant].live;
  const std::size_t pick = rng_.uniform_below(live.size());
  const std::uint64_t id = live[pick];
  live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  Request request = make(Kind::kRemove, tenant,
                         "{\"op\":\"remove_thread\",\"id\":" +
                             std::to_string(id));
  request.id = id;
  return request;
}

Request Stream::solve(std::size_t tenant) {
  Request request = make(Kind::kSolve, tenant, "{\"op\":\"solve\"");
  if (!config_.open_loop) {
    request.live = std::make_shared<const std::vector<std::uint64_t>>(
        tenants_[tenant].live);
  }
  return request;
}

Request Stream::delta(std::size_t tenant) {
  // 75 % drift, 15 % arrivals, 10 % departures. The population stays
  // within 25 % of its initial size: an arrival at the upper bound
  // becomes a departure and a departure at the lower bound an arrival,
  // so every part of a long run solves the same problem size.
  const std::size_t n = tenants_[tenant].live.size();
  const std::size_t n0 = config_.threads_per_tenant;
  const double dice = rng_.uniform01();
  if (dice < 0.75 && n > 0) {
    const std::vector<std::uint64_t>& live = tenants_[tenant].live;
    return update(tenant, live[rng_.uniform_below(live.size())]);
  }
  const bool arrival = dice < 0.90;
  if ((arrival && 4 * n < 5 * n0) || 4 * n <= 3 * n0) {
    return add(tenant, false);
  }
  return remove(tenant);
}

Request Stream::tenant_update() {
  const std::size_t tenant = rng_.uniform_below(config_.tenants);
  return make(Kind::kTenantAdmin, tenant,
              "{\"op\":\"tenant_update\",\"tenant\":\"" +
                  tenants_[tenant].name + "\",\"weight\":" +
                  fmt(rng_.uniform(0.5, 2.0)));
}

Request Stream::scrape() {
  return make(Kind::kScrape, 0, "{\"op\":\"metrics\"");
}

std::size_t Stream::pick_tenant() {
  if (config_.tenants == 1) return 0;
  const double u = rng_.uniform01();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), config_.tenants - 1);
}

std::vector<std::vector<Request>> Stream::setup() {
  std::vector<std::vector<Request>> phases;
  const bool tabulated = config_.name == "replan";
  if (config_.tenants > 1) {
    std::vector<Request> creates;
    for (std::size_t t = 0; t < config_.tenants; ++t) {
      creates.push_back(make(Kind::kTenantAdmin, t,
                             "{\"op\":\"tenant_create\",\"tenant\":\"" +
                                 tenants_[t].name + "\",\"weight\":1"));
    }
    phases.push_back(std::move(creates));
  }
  std::vector<Request> adds;
  for (std::size_t i = 0; i < config_.threads_per_tenant; ++i) {
    for (std::size_t t = 0; t < config_.tenants; ++t) {
      adds.push_back(add(t, tabulated));
    }
  }
  phases.push_back(std::move(adds));
  if (config_.tenants > 1) {
    // Tenants were created empty, so the pool was divided over zero
    // demand; one update re-divides it over the loaded threads.
    phases.push_back({make(Kind::kTenantAdmin, 0,
                           "{\"op\":\"tenant_update\",\"tenant\":\"" +
                               tenants_[0].name + "\",\"weight\":1")});
  }
  std::vector<Request> solves;
  for (std::size_t t = 0; t < config_.tenants; ++t) {
    solves.push_back(solve(t));
  }
  phases.push_back(std::move(solves));
  return phases;
}

Request Stream::next() {
  ++sequence_;
  if (config_.name == "replan") {
    // Epochs: update a fresh ~30 % of the threads (above the 25 % resolve
    // threshold, so the solve takes the full path), then solve.
    if (!epoch_open_) {
      epoch_ = tenants_[0].live;
      const std::size_t take = static_cast<std::size_t>(
          std::lround(kReplanFraction * static_cast<double>(epoch_.size())));
      for (std::size_t i = 0; i < take; ++i) {
        const std::size_t j =
            i + rng_.uniform_below(epoch_.size() - i);
        std::swap(epoch_[i], epoch_[j]);
      }
      epoch_.resize(take);
      std::reverse(epoch_.begin(), epoch_.end());
      epoch_open_ = true;
    }
    if (!epoch_.empty()) {
      const std::uint64_t id = epoch_.back();
      epoch_.pop_back();
      return update(0, id);
    }
    epoch_open_ = false;
    return solve(0);
  }
  const std::size_t tenant = pick_tenant();
  TenantState& state = tenants_[tenant];
  const std::size_t k = state.requests++;
  if (config_.tenants == 1) {
    // drift: a solve every 8th request.
    if (sequence_ % 8 == 0) return solve(tenant);
  } else if (k % 4 == 3) {
    return solve(tenant);  // tenants: every 4th request per tenant.
  }
  return delta(tenant);
}

std::vector<Request> Stream::timeline(double start_s, double seconds) {
  std::vector<Request> out;
  const double gap = 1.0 / config_.rate_rps;
  const std::size_t regular =
      static_cast<std::size_t>(std::llround(seconds * config_.rate_rps));
  double next_scrape = start_s;
  // Re-divides fall halfway between scrapes, so neither waits on the
  // other's all-shard turn locks.
  double next_admin = start_s + kScrapeEvery / 2.0;
  const double end = start_s + seconds;
  for (std::size_t i = 0; i < regular; ++i) {
    const double due = start_s + static_cast<double>(i) * gap;
    while (next_scrape <= due && next_scrape < end) {
      out.push_back(scrape());
      out.back().due_s = next_scrape;
      next_scrape += kScrapeEvery;
    }
    while (next_admin <= due && next_admin < end) {
      out.push_back(tenant_update());
      out.back().due_s = next_admin;
      next_admin += kTenantUpdateEvery;
    }
    out.push_back(next());
    out.back().due_s = due;
  }
  return out;
}

}  // namespace perfbench
