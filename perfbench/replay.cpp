#include "replay.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <future>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/refine.hpp"
#include "alloc/super_optimal.hpp"
#include "client.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/json.hpp"
#include "svc/channel.hpp"
#include "svc/fairness.hpp"
#include "svc/instance_state.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/tenant.hpp"
#include "svc/warm_start.hpp"
#include "utility/linearized.hpp"

namespace perfbench {

namespace {

namespace svc = aa::svc;

/// Every n-th non-cached solve of pass 1 is decomposed into its solver
/// layers, up to a cap.
constexpr std::size_t kDecomposeEvery = 4;
constexpr std::size_t kDecomposedSolves = 200;
constexpr int kDivideCalls = 200;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Times one call: returns its result and adds a child span.
template <typename F>
auto timed(SpanLog* spans, Clock::time_point origin, const char* name,
           const std::string& tag, std::uint64_t parent,
           std::vector<double>& sink, F&& call) {
  const Clock::time_point start = Clock::now();
  auto result = call();
  const double us = us_since(start);
  sink.push_back(us);
  if (spans != nullptr) {
    spans->add(name, 2,
               std::chrono::duration<double, std::micro>(start - origin)
                   .count(),
               us, tag, parent);
  }
  return result;
}

/// The value after `flag` in the workload's aa_serve flags, or `fallback`.
std::string flag_value(const WorkloadConfig& config, const std::string& flag,
                       const std::string& fallback) {
  const auto& flags = config.server_flags;
  const auto it = std::find(flags.begin(), flags.end(), flag);
  return it == flags.end() || it + 1 == flags.end() ? fallback : *(it + 1);
}

/// The workload's --fairness policy (the service default when unset).
svc::FairnessPolicyKind fairness_of(const WorkloadConfig& config) {
  return svc::fairness_policy_from_name(
             flag_value(config, "--fairness", "static_quota"))
      .value_or(svc::FairnessPolicyKind::kStaticQuota);
}

struct TenantSim {
  TenantSim(std::size_t servers, long capacity)
      : state(servers, capacity) {}
  svc::InstanceState state;
  svc::WarmStartSolver solver;
  double weight = 1.0;
  bool have_previous = false;
  std::uint64_t solved_version = 0;
};

/// In-process model of one aa_serve: a tenant map plus the fairness
/// division, driven through the library's public functions.
struct Sim {
  explicit Sim(const WorkloadConfig& workload) : config(workload) {
    policy = svc::FairnessPolicy::create(fairness());
    tenants.emplace(std::string(svc::kDefaultTenant),
                    TenantSim(config.servers, config.capacity));
  }
  Sim(const Sim& other)
      : config(other.config),
        tenants(other.tenants),
        policy(svc::FairnessPolicy::create(other.fairness())) {}

  [[nodiscard]] svc::FairnessPolicyKind fairness() const {
    return fairness_of(config);
  }

  TenantSim& tenant(const std::string& name) {
    const auto it =
        tenants.find(name.empty() ? std::string(svc::kDefaultTenant) : name);
    if (it == tenants.end()) throw std::runtime_error("replay: no tenant");
    return it->second;
  }

  [[nodiscard]] std::vector<svc::TenantDemand> demands() const {
    std::vector<svc::TenantDemand> out;
    for (const auto& [name, sim] : tenants) {
      svc::TenantDemand demand;
      demand.id = name;
      demand.weight = sim.weight;
      demand.demand = svc::tenant_demand_units(sim.state);
      out.push_back(std::move(demand));
    }
    return out;
  }

  [[nodiscard]] double pool() const {
    return static_cast<double>(config.servers) *
           static_cast<double>(config.capacity);
  }

  /// Re-divides the pool like the service does on tenant churn.
  void redivide(std::vector<double>& divide_us) {
    const std::vector<svc::TenantDemand> wanted = demands();
    const Clock::time_point start = Clock::now();
    const std::vector<double> slices = policy->divide(pool(), wanted);
    divide_us.push_back(us_since(start));
    std::size_t i = 0;
    for (auto& [name, sim] : tenants) {
      const auto per_server = static_cast<long>(
          std::floor(slices[i++] / static_cast<double>(config.servers)));
      sim.state.set_solve_capacity(std::max<long>(1, per_server));
    }
  }

  WorkloadConfig config;
  std::map<std::string, TenantSim> tenants;
  std::unique_ptr<svc::FairnessPolicy> policy;
};

/// Per-call timings of one replay pass.
struct Layers {
  std::map<Kind, std::vector<double>> parse_us;
  std::vector<double> apply_us;
  std::vector<double> to_instance_us;
  std::map<std::string, std::vector<double>> path_us;
  std::vector<double> super_optimal_us, linearize_us, assign_us, refine_us,
      certify_us, divide_us;
  std::size_t solves = 0;
  std::size_t eligible = 0;   ///< Warm-eligible solves.
  std::size_t fresh_won = 0;  ///< ... whose fresh candidate was kept.
  std::size_t noncached = 0;
  std::size_t decomposed = 0;
  double solve_total_us = 0.0;
};

Kind kind_of(svc::Op op) {
  switch (op) {
    case svc::Op::kAddThread: return Kind::kAdd;
    case svc::Op::kUpdateUtility: return Kind::kUpdate;
    case svc::Op::kRemoveThread: return Kind::kRemove;
    case svc::Op::kSolve: return Kind::kSolve;
    case svc::Op::kMetrics: return Kind::kScrape;
    default: return Kind::kTenantAdmin;
  }
}

/// Decomposes one solve into the solver layers, on the instance the
/// solver saw (Algorithm 2's fresh candidate: super-optimal allocation,
/// linearization, assignment, per-server refinement, certificate).
void decompose(const aa::core::Instance& instance, Layers& layers,
               SpanLog* spans, Clock::time_point origin,
               const std::string& tag, std::uint64_t parent) {
  const aa::alloc::SuperOptimalResult super =
      timed(spans, origin, "alloc.super_optimal", tag, parent,
            layers.super_optimal_us, [&] {
              return aa::alloc::super_optimal_routed(
                  instance.threads, instance.num_servers, instance.capacity);
            });
  const std::vector<aa::util::Linearized> linearized =
      timed(spans, origin, "utility.linearize", tag, parent,
            layers.linearize_us,
            [&] { return aa::util::linearize(instance.threads, super.c_hat); });
  const aa::core::Assignment raw = timed(
      spans, origin, "aa.assign", tag, parent, layers.assign_us,
      [&] { return aa::core::assign_algorithm2(instance, linearized); });
  aa::core::SolveResult result;
  result.assignment =
      timed(spans, origin, "aa.refine", tag, parent, layers.refine_us, [&] {
        return aa::core::reoptimize_allocations(instance, raw);
      });
  result.utility = aa::core::total_utility(instance, result.assignment);
  result.super_optimal_utility = super.utility;
  result.c_hat = super.c_hat;
  double linearized_total = 0.0;
  for (std::size_t i = 0; i < linearized.size(); ++i) {
    linearized_total += linearized[i].value(raw.alloc[i]);
  }
  result.linearized_utility = linearized_total;
  const aa::core::CertifyOptions options{/*check_concavity=*/false};
  const aa::obs::Certificate certificate =
      timed(spans, origin, "aa.certify", tag, parent, layers.certify_us, [&] {
        return aa::core::certify(instance, result, "perfbench", options);
      });
  if (!certificate.ok()) {
    throw std::runtime_error("replay: decomposed solve failed to certify");
  }
}

/// Replays `lines` on `sim`; with `decompose`, some solves are also
/// decomposed into their layers. `spans` may be null.
void replay(Sim& sim, const std::vector<Request>& lines, Layers& layers,
            bool decompose_solves, SpanLog* spans, Clock::time_point origin) {
  const auto rel = [&](Clock::time_point at) {
    return std::chrono::duration<double, std::micro>(at - origin).count();
  };
  for (const Request& request : lines) {
    const Clock::time_point start = Clock::now();
    const svc::Request parsed =
        svc::parse_request(request.line, sim.config.capacity);
    const double parse_us = us_since(start);
    const Kind kind = kind_of(parsed.op);
    layers.parse_us[kind].push_back(parse_us);
    std::uint64_t parent = 0;
    if (spans != nullptr) {
      parent = spans->add(std::string("replay ") + kind_name(kind), 2, 0.0,
                          0.0, request.tag);
      spans->add("svc.protocol.parse", 2, rel(start), parse_us, request.tag,
                 parent);
    }
    switch (parsed.op) {
      case svc::Op::kAddThread:
      case svc::Op::kRemoveThread:
      case svc::Op::kUpdateUtility: {
        TenantSim& tenant = sim.tenant(parsed.tenant);
        const Clock::time_point apply = Clock::now();
        bool ok = true;
        if (parsed.op == svc::Op::kAddThread) {
          (void)tenant.state.add_thread(parsed.utility);
        } else if (parsed.op == svc::Op::kRemoveThread) {
          ok = tenant.state.remove_thread(*parsed.id);
        } else if (parsed.factor.has_value()) {
          ok = tenant.state.scale_utility(*parsed.id, *parsed.factor);
        } else {
          ok = tenant.state.update_utility(*parsed.id, parsed.utility);
        }
        layers.apply_us.push_back(us_since(apply));
        if (spans != nullptr) {
          spans->add("svc.state.apply", 2, rel(apply),
                     layers.apply_us.back(), request.tag, parent);
        }
        if (!ok) throw std::runtime_error("replay: unknown thread id");
        break;
      }
      case svc::Op::kSolve: {
        TenantSim& tenant = sim.tenant(parsed.tenant);
        const std::uint64_t version = tenant.state.version();
        const std::size_t n = tenant.state.num_threads();
        const bool cached =
            tenant.have_previous && version == tenant.solved_version;
        const double deltas = static_cast<double>(
            tenant.have_previous ? version - tenant.solved_version : version);
        const bool eligible = !cached && tenant.have_previous && n > 0 &&
                              deltas <= std::max(8.0, 0.25 * static_cast<double>(n));
        aa::core::Instance instance;
        if (!cached) {
          instance = timed(spans, origin, "svc.state.to_instance",
                           request.tag, parent, layers.to_instance_us,
                           [&] { return tenant.state.to_instance(); });
        }
        const Clock::time_point solve_start = Clock::now();
        const svc::ServiceSolveResult solved =
            tenant.solver.solve(tenant.state);
        const double us = us_since(solve_start);
        const std::string path = svc::solve_path_name(solved.path);
        if (spans != nullptr) {
          spans->add("svc.warm_start." + path, 2, rel(solve_start), us,
                     request.tag, parent);
        }
        layers.path_us[path].push_back(us);
        layers.solve_total_us += us;
        ++layers.solves;
        if (eligible) {
          ++layers.eligible;
          if (solved.path == svc::SolvePath::kFull) ++layers.fresh_won;
        }
        tenant.have_previous = true;
        tenant.solved_version = version;
        if (!cached && decompose_solves &&
            layers.noncached++ % kDecomposeEvery == 0 &&
            layers.decomposed < kDecomposedSolves) {
          ++layers.decomposed;
          decompose(instance, layers, spans, origin, request.tag, parent);
        }
        break;
      }
      case svc::Op::kTenantCreate: {
        sim.tenants.emplace(parsed.tenant,
                            TenantSim(sim.config.servers, sim.config.capacity));
        sim.tenant(parsed.tenant).weight = parsed.weight.value_or(1.0);
        sim.policy->on_tenant_created(parsed.tenant, 0.0);
        sim.redivide(layers.divide_us);
        break;
      }
      case svc::Op::kTenantUpdate: {
        if (parsed.weight.has_value()) {
          sim.tenant(parsed.tenant).weight = *parsed.weight;
        }
        sim.redivide(layers.divide_us);
        break;
      }
      default:
        break;  // scrapes have no state effect
    }
  }
}

/// In-process Service::request per request kind (queue, batch, shard,
/// solve, render; no socket).
std::map<Kind, std::vector<double>> replay_service(
    const WorkloadConfig& config,
    const std::vector<std::vector<Request>>& setup,
    const std::vector<Request>& lines, SpanLog& spans,
    Clock::time_point origin) {
  svc::ServiceConfig service_config;
  service_config.num_servers = config.servers;
  service_config.capacity = config.capacity;
  service_config.shards = std::stoul(flag_value(config, "--shards", "1"));
  service_config.workers = std::stoul(flag_value(config, "--workers", "2"));
  service_config.fairness = fairness_of(config);
  // Operators' configuration installs an obs session; bare ones do not.
  std::unique_ptr<aa::obs::Session> session;
  if (config.instrumented) session = std::make_unique<aa::obs::Session>();
  std::map<Kind, std::vector<double>> out;
  {
    svc::Service service(service_config);
    service.start();
    for (const std::vector<Request>& phase : setup) {
      std::atomic<std::size_t> left{phase.size()};
      std::promise<void> done;
      for (const Request& request : phase) {
        service.submit_line(request.line, [&](const std::string&) {
          if (left.fetch_sub(1) == 1) done.set_value();
        });
      }
      done.get_future().wait();
    }
    for (const Request& request : lines) {
      const Clock::time_point start = Clock::now();
      const std::string reply = service.request(request.line);
      const double us = us_since(start);
      out[request.kind].push_back(us);
      spans.add(std::string("service ") + kind_name(request.kind), 3,
                std::chrono::duration<double, std::micro>(start - origin)
                    .count(),
                us, request.tag);
      if (reply.find("\"ok\":true") == std::string::npos) {
        throw std::runtime_error("replay: service refused " + request.tag);
      }
    }
    service.stop();
  }
  return out;
}

struct Transport {
  std::map<Kind, std::vector<double>> rtt_us, parse_us, dump_us;
  std::map<Kind, std::vector<double>> bytes, reply_bytes;
};

/// LineChannel write + read of the workload's own request and reply lines
/// over a socketpair echo, and the reply tree's parse and re-render.
Transport measure_transport(const std::vector<Sample>& samples) {
  Transport out;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  svc::FdHandle client_fd(fds[0]);
  svc::FdHandle echo_fd(fds[1]);
  std::thread echo([&] {
    svc::LineChannel channel(echo_fd.get(), 1u << 24);
    for (const Sample& sample : samples) {
      if (!channel.read_line().has_value()) return;
      if (!svc::send_line(echo_fd.get(), sample.reply)) return;
    }
  });
  svc::LineChannel channel(client_fd.get(), 1u << 24);
  for (const Sample& sample : samples) {
    const Clock::time_point start = Clock::now();
    const bool sent = channel.write_line(sample.line);
    const auto reply = channel.read_line();
    const double us = us_since(start);
    if (!sent || !reply.has_value()) break;
    out.rtt_us[sample.kind].push_back(us);
    out.bytes[sample.kind].push_back(
        static_cast<double>(sample.line.size() + reply->size() + 2));
  }
  client_fd.shutdown_both();
  echo.join();
  for (const Sample& sample : samples) {
    const Clock::time_point parse = Clock::now();
    const aa::support::JsonValue tree = aa::support::json_parse(sample.reply);
    out.parse_us[sample.kind].push_back(us_since(parse));
    const Clock::time_point dump = Clock::now();
    const std::string text = tree.dump();
    out.dump_us[sample.kind].push_back(us_since(dump));
    out.reply_bytes[sample.kind].push_back(static_cast<double>(text.size()));
  }
  return out;
}

double per_kind(const std::map<Kind, std::vector<double>>& by_kind, Kind kind) {
  const auto it = by_kind.find(kind);
  return it == by_kind.end() ? 0.0 : median(it->second);
}

/// Traffic-weighted value of a per-kind figure.
double mixed(const EndToEnd& e2e,
             const std::map<Kind, std::vector<double>>& by_kind) {
  double total = 0.0;
  for (const auto& [kind, share] : e2e.traffic) {
    total += share * per_kind(by_kind, kind);
  }
  return total;
}

std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%9.4f", value);
  return buf;
}

}  // namespace

std::uint64_t SpanLog::add(const std::string& name, int track,
                           double start_us, double dur_us,
                           const std::string& tag, std::uint64_t parent) {
  if (spans_.size() >= kMaxSpans) return 0;
  spans_.push_back({name, track, start_us, dur_us, tag, parent});
  return spans_.size();
}

void SpanLog::write(const std::string& path) const {
  // A replayed request's span is opened before its layer calls are timed;
  // it spans exactly its children.
  std::vector<Span> spans = spans_;
  std::vector<double> first(spans.size(), 0.0);
  std::vector<double> last(spans.size(), -1.0);
  for (const Span& span : spans_) {
    if (span.parent == 0) continue;
    const std::size_t p = span.parent - 1;
    const double end = span.start_us + span.dur_us;
    first[p] = last[p] < 0.0 ? span.start_us : std::min(first[p], span.start_us);
    last[p] = std::max(last[p], end);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (last[i] < 0.0) continue;
    spans[i].start_us = first[i];
    spans[i].dur_us = last[i] - first[i];
  }
  aa::support::JsonValue::Array events;
  const char* tracks[] = {"", "client round trips (aa_serve)",
                          "in-process layer replay", "in-process Service"};
  for (int track = 1; track <= 3; ++track) {
    aa::support::JsonValue meta;
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", track);
    aa::support::JsonValue args;
    args.set("name", tracks[track]);
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    aa::support::JsonValue event;
    event.set("name", span.name);
    event.set("ph", "X");
    event.set("pid", 1);
    event.set("tid", span.track);
    event.set("ts", span.start_us);
    event.set("dur", span.dur_us);
    aa::support::JsonValue args;
    args.set("tag", span.tag);
    args.set("span", i + 1);
    if (span.parent != 0) args.set("parent", span.parent);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  aa::support::JsonValue doc;
  doc.set("traceEvents", aa::support::JsonValue(std::move(events)));
  std::ofstream(path) << doc.dump() << "\n";
}

void replay_layers(const WorkloadConfig& config, std::uint64_t seed,
                   double budget_s, const EndToEnd& e2e, SpanLog& spans,
                   Values& values, std::ostream& out) {
  const Clock::time_point origin = Clock::now();
  Stream stream(config, seed);
  const std::vector<std::vector<Request>> setup = stream.setup();

  // Set-up state, shared by every pass (parse and apply still timed).
  Sim loaded(config);
  Layers layers;
  for (const std::vector<Request>& phase : setup) {
    replay(loaded, phase, layers, false, nullptr, origin);
  }

  // Pass 1, bare and traced: the stream's first requests, as many as it
  // gets through in budget_s (open loop: budget_s of the offered
  // timeline). Set-up's first solves are not part of the traffic.
  layers.solves = 0;
  layers.solve_total_us = 0.0;
  layers.path_us.clear();
  layers.to_instance_us.clear();
  std::vector<Request> lines;
  Sim bare(loaded);
  const Clock::time_point pass_start = Clock::now();
  while (seconds_between(pass_start, Clock::now()) < budget_s) {
    std::vector<Request> chunk;
    if (config.open_loop) {
      chunk = stream.timeline(0.0, budget_s);
    } else {
      for (int i = 0; i < 16; ++i) chunk.push_back(stream.next());
    }
    replay(bare, chunk, layers, true, &spans, origin);
    std::move(chunk.begin(), chunk.end(), std::back_inserter(lines));
    if (config.open_loop) break;
  }

  // Pass 2: the same requests with an obs::Session installed — its
  // counters give calls per solve, its solve time the session overhead.
  Layers counted;
  aa::obs::Metrics session_metrics;
  std::vector<double> bisect_iterations;
  {
    Sim instrumented(loaded);
    {
      const aa::obs::Session session;
      replay(instrumented, lines, counted, false, nullptr, origin);
      session_metrics = session.metrics();
    }
    // Iterations of the bisection on the current instances (the SoA
    // variant is the one that counts them; its output is bit-identical).
    for (auto& [name, tenant] : instrumented.tenants) {
      if (tenant.state.num_threads() == 0) continue;
      const aa::obs::Session session;
      const aa::core::Instance instance = tenant.state.to_instance();
      (void)aa::alloc::super_optimal_parallel(
          instance.threads, instance.num_servers, instance.capacity);
      bisect_iterations.push_back(static_cast<double>(
          session.metrics().counter(
              aa::obs::metric::kSuperOptimalBisectIterations)));
    }
    std::vector<double> divide_only;
    const std::vector<svc::TenantDemand> demands = instrumented.demands();
    for (int i = 0; i < kDivideCalls; ++i) {
      const Clock::time_point start = Clock::now();
      (void)instrumented.policy->divide(instrumented.pool(), demands);
      divide_only.push_back(us_since(start));
    }
    values["svc.fairness.divide_us"] = median(divide_only);
  }

  // Pass 3: the in-process Service.
  const std::map<Kind, std::vector<double>> service_us =
      replay_service(config, setup, lines, spans, origin);

  const Transport transport = measure_transport(e2e.samples);

  // ---- Per-layer values -------------------------------------------------
  const double solves = static_cast<double>(std::max<std::size_t>(1, layers.solves));
  const auto timer_count = [&](std::string_view name) {
    const aa::obs::TimerStat* timer = session_metrics.timer(name);
    return timer == nullptr ? 0.0 : static_cast<double>(timer->wall_ms.count());
  };
  const auto path_median = [&](const char* path) {
    const auto it = layers.path_us.find(path);
    return it == layers.path_us.end() ? 0.0 : median(it->second);
  };
  const auto path_count = [&](const char* path) {
    const auto it = layers.path_us.find(path);
    return it == layers.path_us.end() ? 0.0
                                      : static_cast<double>(it->second.size());
  };
  values["svc.channel.rtt_us"] = mixed(e2e, transport.rtt_us);
  values["svc.channel.bytes_per_req"] = mixed(e2e, transport.bytes);
  values["svc.protocol.parse_add_us"] = per_kind(layers.parse_us, Kind::kAdd);
  {
    std::vector<double> deltas = layers.parse_us[Kind::kUpdate];
    const std::vector<double>& removes = layers.parse_us[Kind::kRemove];
    deltas.insert(deltas.end(), removes.begin(), removes.end());
    values["svc.protocol.parse_delta_us"] = median(deltas);
  }
  values["svc.protocol.parse_solve_us"] =
      per_kind(layers.parse_us, Kind::kSolve);
  values["svc.state.apply_us"] = median(layers.apply_us);
  values["svc.state.to_instance_us"] = median(layers.to_instance_us);
  values["svc.warm_start.cached_us"] = path_median("cached");
  values["svc.warm_start.warm_us"] = path_median("warm");
  values["svc.warm_start.full_us"] = path_median("full");
  values["svc.warm_start.cached"] = path_count("cached");
  values["svc.warm_start.warm"] = path_count("warm");
  values["svc.warm_start.full"] = path_count("full");
  values["svc.warm_start.fresh_used_ratio"] =
      layers.eligible == 0 ? 0.0
                           : static_cast<double>(layers.fresh_won) /
                                 static_cast<double>(layers.eligible);
  values["alloc.super_optimal_us"] = median(layers.super_optimal_us);
  values["alloc.calls_per_solve"] =
      static_cast<double>(session_metrics.counter(
          aa::obs::metric::kSuperOptimalCalls)) / solves;
  values["alloc.bisect_iters_per_call"] = mean(bisect_iterations);
  values["utility.linearize_us"] = median(layers.linearize_us);
  values["aa.assign_us"] = median(layers.assign_us);
  values["aa.refine_us"] = median(layers.refine_us);
  values["aa.refine.calls_per_solve"] =
      timer_count(aa::obs::metric::kPhaseRefineReoptimize) / solves;
  values["aa.certify_us"] = median(layers.certify_us);
  values["aa.certify.checks_per_solve"] =
      static_cast<double>(session_metrics.counter(
          aa::obs::metric::kCertificateChecks)) / solves;
  values["support.json.dump_us"] = mixed(e2e, transport.dump_us);
  values["support.json.parse_us"] = mixed(e2e, transport.parse_us);
  values["support.json.reply_bytes"] = mixed(e2e, transport.reply_bytes);
  values["svc.service.request_us"] = mixed(e2e, service_us);
  values["obs.session_overhead_ratio"] =
      layers.solve_total_us > 0.0
          ? counted.solve_total_us / layers.solve_total_us
          : 0.0;
  if (!config.instrumented) values["obs.export_s"] = 0.0;

  // ---- Ledger -----------------------------------------------------------
  // Each layer's share of one request of a kind is its per-call time times
  // its calls per request. The solve column splits solve_p50_ms; the req
  // column splits req_p50_ms with the kinds weighted by their share of the
  // requests around the median round trip (a mean over the whole traffic
  // would be dominated by the rare slow kind the median never sees).
  const double alloc_calls = values["alloc.calls_per_solve"];
  const double refine_calls = values["aa.refine.calls_per_solve"];
  const double assign_calls =
      timer_count(aa::obs::metric::kPhaseAlg2Assign) / solves;
  const double certify_calls = values["aa.certify.checks_per_solve"];
  const double noncached =
      static_cast<double>(layers.to_instance_us.size()) / solves;
  const double solve_mean_us = layers.solve_total_us / solves;
  const double overhead = values["obs.session_overhead_ratio"];

  const std::vector<std::string> rows = {
      "svc.channel", "svc.protocol", "svc.state", "svc.warm_start",
      "alloc",       "utility",      "aa.assign", "aa.refine",
      "aa.certify",  "support.json", "svc.fairness", "svc.service",
      "obs"};
  const auto composition = [&](Kind kind) {
    std::map<std::string, double> us;
    const double parse = per_kind(layers.parse_us, kind);
    const double dump = per_kind(transport.dump_us, kind);
    us["svc.channel"] = per_kind(transport.rtt_us, kind);
    us["svc.protocol"] = parse;
    us["support.json"] = dump;
    double work = 0.0;
    if (kind == Kind::kAdd || kind == Kind::kUpdate || kind == Kind::kRemove) {
      us["svc.state"] = median(layers.apply_us);
      work = us["svc.state"];
    } else if (kind == Kind::kSolve) {
      us["svc.state"] = median(layers.to_instance_us) * noncached;
      us["alloc"] = median(layers.super_optimal_us) * alloc_calls;
      us["utility"] = median(layers.linearize_us) * alloc_calls;
      us["aa.assign"] = median(layers.assign_us) * assign_calls;
      us["aa.refine"] = median(layers.refine_us) * refine_calls;
      us["aa.certify"] = median(layers.certify_us) * certify_calls;
      us["svc.warm_start"] = solve_mean_us - us["svc.state"] - us["alloc"] -
                             us["utility"] - us["aa.assign"] -
                             us["aa.refine"] - us["aa.certify"];
      work = solve_mean_us;
      if (config.instrumented) us["obs"] = (overhead - 1.0) * solve_mean_us;
    } else if (kind == Kind::kTenantAdmin) {
      us["svc.fairness"] = values["svc.fairness.divide_us"];
      work = us["svc.fairness"];
    }
    us["svc.service"] =
        per_kind(service_us, kind) - parse - work - dump - us["obs"];
    return us;
  };

  std::map<std::string, double> solve_row = composition(Kind::kSolve);
  std::map<std::string, double> mix_row;
  double self_mix = 0.0;
  for (const auto& [kind, share] : e2e.traffic) {
    self_mix += share * composition(kind).at("svc.service");
  }
  for (const auto& [kind, share] : e2e.median_mix) {
    for (const auto& [layer, us] : composition(kind)) {
      mix_row[layer] += share * us;
    }
  }
  values["svc.service.self_us"] = self_mix;

  double solve_sum = 0.0;
  double mix_sum = 0.0;
  for (const std::string& row : rows) {
    solve_sum += solve_row[row] / 1000.0;
    mix_sum += mix_row[row] / 1000.0;
  }
  const double solve_rest = e2e.solve_p50_ms - solve_sum;
  const double mix_rest = e2e.req_p50_ms - mix_sum;
  values["ledger.solve_unattributed_ms"] = solve_rest;
  values["ledger.req_unattributed_ms"] = mix_rest;

  out << "perfbench: ledger for workload=" << config.name
      << " (ms per request; share of the p50)\n";
  out << "perfbench:   layer            solve_p50_ms   share     "
         "req_p50_ms   share\n";
  const auto line = [&](const std::string& name, double solve_ms,
                        double mix_ms) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "perfbench:   %-16s %s  %6.1f%%    %s  %6.1f%%\n",
                  name.c_str(), fmt(solve_ms).c_str(),
                  e2e.solve_p50_ms > 0 ? 100.0 * solve_ms / e2e.solve_p50_ms
                                       : 0.0,
                  fmt(mix_ms).c_str(),
                  e2e.req_p50_ms > 0 ? 100.0 * mix_ms / e2e.req_p50_ms : 0.0);
    out << buf;
  };
  for (const std::string& row : rows) {
    line(row, solve_row[row] / 1000.0, mix_row[row] / 1000.0);
  }
  line("unattributed", solve_rest, mix_rest);
  line("total (= p50)", e2e.solve_p50_ms, e2e.req_p50_ms);
  out << "perfbench:   replayed " << lines.size() << " requests ("
      << layers.solves << " solves); calls per solve: alloc " << alloc_calls
      << ", assign " << assign_calls << ", refine " << refine_calls
      << ", certify " << certify_calls << "\n";
}

}  // namespace perfbench
