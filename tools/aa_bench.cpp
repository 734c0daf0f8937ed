// aa_bench: the unified benchmark driver and regression gate
// (docs/BENCHMARKS.md).
//
//   aa_bench [--suite quick|full] [--filter SUBSTR] [--out FILE]
//            [--list 1] [--seed S] [--min-reps N] [--max-reps N]
//            [--target-rel-stderr X] [--max-case-seconds X]
//   aa_bench --compare BASELINE.json [CURRENT.json] [--threshold X]
//            [--warn-only 1] [--require-all 1] [other run flags]
//
// Run mode executes the selected suite — solver latency across an
// n x m x C grid (alg1 incremental vs. the literal-pseudocode
// alg1_reference, alg2, alg2h), the super-optimal allocator, the
// warm-start cached/warm/full re-solve paths, and end-to-end svc request
// latency through an in-process Service — each case repeated until its
// mean converges (benchkit::run_case), and writes a schema-versioned
// BENCH_<host>_<date>.json. Compare mode loads a committed baseline and
// either a second report file or a fresh run of the same suite, and exits
// nonzero when any case's median regressed by more than the threshold
// (benchkit::compare_reports) unless --warn-only 1.
//
// Exit codes: 0 success, 1 regression (or check mismatch), 2 usage/input
// error.

#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/heterogeneous.hpp"
#include "aa/problem.hpp"
#include "alloc/super_optimal.hpp"
#include "benchkit/compare.hpp"
#include "benchkit/report.hpp"
#include "benchkit/runner.hpp"
#include "io/instance_io.hpp"
#include "sim/workload.hpp"
#include "support/args.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "svc/instance_state.hpp"
#include "svc/service.hpp"
#include "svc/warm_start.hpp"
#include "utility/generator.hpp"
#include "utility/linearized.hpp"

namespace {

using aa::benchkit::CaseResult;
using aa::benchkit::Report;
using aa::support::JsonValue;

/// One suite entry. `make` runs the (untimed) setup and returns the body
/// that run_case() measures; captured state keeps the workload alive and
/// identical across repetitions.
struct BenchCase {
  std::string name;
  std::string group;
  bool quick = false;  ///< Member of the CI `quick` suite.
  std::function<std::function<double()>()> make;
};

aa::core::Instance make_instance(std::size_t n, std::uint64_t seed) {
  aa::sim::WorkloadConfig config;
  config.num_servers = 8;
  config.capacity = 1000;
  config.beta = static_cast<double>(n) / 8.0;
  // Stream keyed by n: alg1 / alg1_reference / alg2 at the same n solve
  // the identical instance, so their check utilities are comparable.
  aa::support::Rng rng = aa::support::Rng::child(seed, n);
  return aa::sim::generate_instance(config, rng);
}

std::vector<BenchCase> build_suite(std::uint64_t seed) {
  std::vector<BenchCase> cases;

  const std::size_t grid[] = {64, 256, 512, 1024};
  for (const std::size_t n : grid) {
    const bool quick = n <= 256;
    const std::string shape = "n" + std::to_string(n) + "_m8_c1000";
    cases.push_back(
        {"alg1/solve/" + shape, "alg1", quick, [n, seed] {
           auto instance =
               std::make_shared<aa::core::Instance>(make_instance(n, seed));
           return [instance] {
             return aa::core::solve_algorithm1(*instance).utility;
           };
         }});
    cases.push_back(
        {"alg1_reference/solve/" + shape, "alg1_reference", quick, [n, seed] {
           auto instance =
               std::make_shared<aa::core::Instance>(make_instance(n, seed));
           // The pre-optimization pipeline: identical super-optimal +
           // linearization stages, literal O(m n^2) assignment rounds.
           return [instance] {
             aa::alloc::SuperOptimalResult so = aa::alloc::super_optimal(
                 instance->threads, instance->num_servers, instance->capacity);
             const std::vector<aa::util::Linearized> linearized =
                 aa::util::linearize(instance->threads, so.c_hat);
             const aa::core::Assignment assignment =
                 aa::core::assign_algorithm1_reference(*instance, linearized);
             return aa::core::total_utility(*instance, assignment);
           };
         }});
    cases.push_back(
        {"alg2/solve/" + shape, "alg2", quick, [n, seed] {
           auto instance =
               std::make_shared<aa::core::Instance>(make_instance(n, seed));
           return [instance] {
             return aa::core::solve_algorithm2(*instance).utility;
           };
         }});
  }

  cases.push_back(
      {"alg2h/solve/n512_m8_het", "alg2h", false, [seed] {
         auto hetero = std::make_shared<aa::core::HeteroInstance>();
         for (std::size_t j = 0; j < 8; ++j) {
           hetero->capacities.push_back(800 +
                                        50 * static_cast<aa::util::Resource>(j));
         }
         aa::support::DistributionParams dist;
         aa::support::Rng rng = aa::support::Rng::child(seed, 9001);
         hetero->threads = aa::util::generate_utilities(
             512, hetero->max_capacity(), dist, rng);
         return [hetero] {
           return aa::core::solve_algorithm2_hetero(*hetero).utility;
         };
       }});

  cases.push_back(
      {"super_optimal/n1024_m8_c1000", "super_optimal", false, [seed] {
         auto instance =
             std::make_shared<aa::core::Instance>(make_instance(1024, seed));
         return [instance] {
           return aa::alloc::super_optimal(instance->threads,
                                           instance->num_servers,
                                           instance->capacity)
               .utility;
         };
       }});

  // Strategy-seam grid (docs/ALGORITHMS.md "Strategy seam"): the serial
  // reference vs. the bit-identical SoA/parallel rewrite vs. price
  // discovery, on the same instance per (n, C) so medians are directly
  // comparable. n = 10^4 rides in the quick suite as the CI regression
  // gate; 10^5 and 10^6 (smaller grids, or setup would dominate) belong to
  // the full suite and back the committed-baseline speedup claims.
  struct SoShape {
    std::size_t n;
    aa::util::Resource capacity;
    bool quick;
  };
  const SoShape so_shapes[] = {
      {10'000, 1000, true}, {100'000, 1000, false}, {1'000'000, 128, false}};
  for (const SoShape& shape : so_shapes) {
    const std::string suffix = "/n" + std::to_string(shape.n) + "_m8_c" +
                               std::to_string(shape.capacity);
    const auto make_threads = [shape, seed] {
      aa::support::DistributionParams dist;
      aa::support::Rng rng = aa::support::Rng::child(seed, shape.n);
      return std::make_shared<const std::vector<aa::util::UtilityPtr>>(
          aa::util::generate_utilities(shape.n, shape.capacity, dist, rng));
    };
    cases.push_back({"super_optimal_serial" + suffix, "super_optimal_serial",
                     shape.quick, [make_threads, shape] {
                       auto threads = make_threads();
                       return [threads, shape] {
                         return aa::alloc::super_optimal(*threads, 8,
                                                         shape.capacity)
                             .utility;
                       };
                     }});
    cases.push_back({"super_optimal_parallel" + suffix,
                     "super_optimal_parallel", shape.quick,
                     [make_threads, shape] {
                       auto threads = make_threads();
                       return [threads, shape] {
                         return aa::alloc::super_optimal_parallel(
                                    *threads, 8, shape.capacity)
                             .utility;
                       };
                     }});
    cases.push_back({"super_optimal_price" + suffix, "super_optimal_price",
                     shape.quick, [make_threads, shape] {
                       auto threads = make_threads();
                       return [threads, shape] {
                         return aa::alloc::super_optimal_price(
                                    *threads, 8, shape.capacity)
                             .utility;
                       };
                     }});
  }

  // Warm-start paths (svc/warm_start.hpp): one shared state per case; the
  // paths differ only in what happened since the previous solve.
  const auto make_warm_state = [seed] {
    auto state = std::make_shared<aa::svc::InstanceState>(8, 1000);
    aa::support::DistributionParams dist;
    aa::support::Rng rng = aa::support::Rng::child(seed, 9002);
    for (std::size_t i = 0; i < 256; ++i) {
      state->add_thread(aa::util::generate_utility(1000, dist, rng));
    }
    return state;
  };
  cases.push_back(
      {"warm_start/cached/n256_m8_c1000", "warm_start", true,
       [make_warm_state] {
         auto state = make_warm_state();
         auto solver = std::make_shared<aa::svc::WarmStartSolver>();
         static_cast<void>(solver->solve(*state));  // Prime the cache.
         return [state, solver] {
           return solver->solve(*state).result.utility;
         };
       }});
  cases.push_back(
      {"warm_start/warm/n256_m8_c1000", "warm_start", false,
       [make_warm_state] {
         auto state = make_warm_state();
         auto solver = std::make_shared<aa::svc::WarmStartSolver>();
         static_cast<void>(solver->solve(*state));
         return [state, solver] {
           // Factor-1 scale: bumps the version (one delta -> warm path)
           // without changing the workload between repetitions.
           state->scale_utility(1, 1.0);
           return solver->solve(*state).result.utility;
         };
       }});
  cases.push_back(
      {"warm_start/full/n256_m8_c1000", "warm_start", false,
       [make_warm_state] {
         auto state = make_warm_state();
         auto solver = std::make_shared<aa::svc::WarmStartSolver>();
         return [state, solver] {
           solver->reset();
           return solver->solve(*state).result.utility;
         };
       }});

  // End-to-end service latency: full request -> parse -> queue -> batch ->
  // solve -> render round trip through Service::request.
  const auto make_service = [seed](std::size_t threads) {
    aa::svc::ServiceConfig config;
    config.num_servers = 8;
    config.capacity = 1000;
    config.workers = 1;
    auto service = std::make_shared<aa::svc::Service>(config);
    service->start();
    aa::support::DistributionParams dist;
    aa::support::Rng rng = aa::support::Rng::child(seed, 9003);
    for (std::size_t i = 0; i < threads; ++i) {
      const aa::util::UtilityPtr utility =
          aa::util::generate_utility(1000, dist, rng);
      JsonValue request{JsonValue::Object{}};
      request.set("op", "add_thread");
      request.set("thread", aa::io::utility_to_json(*utility));
      static_cast<void>(service->request(request.dump()));
    }
    return service;
  };
  const auto solve_utility = [](const std::string& reply) {
    const JsonValue parsed = aa::support::json_parse(reply);
    const JsonValue* utility = parsed.find("utility");
    return utility == nullptr ? 0.0 : utility->as_number();
  };
  cases.push_back(
      {"svc/request/solve_cached_n64", "svc", true,
       [make_service, solve_utility] {
         auto service = make_service(64);
         static_cast<void>(service->request(R"({"op": "solve"})"));
         return [service, solve_utility] {
           return solve_utility(service->request(R"({"op": "solve"})"));
         };
       }});
  cases.push_back(
      {"svc/request/delta_solve_n64", "svc", false,
       [make_service, solve_utility] {
         auto service = make_service(64);
         static_cast<void>(service->request(R"({"op": "solve"})"));
         return [service, solve_utility] {
           static_cast<void>(service->request(
               R"({"op": "update_utility", "id": 1, "factor": 1.0})"));
           return solve_utility(service->request(R"({"op": "solve"})"));
         };
       }});

  // The reply layer: at n=4096 a cached solve costs the solver a few
  // microseconds, so this times rendering and delivering the ~134 KB
  // reply. The check is the assignment's byte length, found without
  // parsing the reply (solve_ms and rid vary in length between calls).
  cases.push_back(
      {"svc/request/solve_cached_n4096", "svc", false, [make_service] {
         auto service = make_service(4096);
         static_cast<void>(service->request(R"({"op": "solve"})"));
         return [service] {
           const std::string reply = service->request(R"({"op": "solve"})");
           return static_cast<double>(reply.rfind(",\"rid\":") -
                                      reply.find("\"assignment\":"));
         };
       }});

  // Multi-tenant request latency (docs/SERVICE.md "Multi-tenant
  // sharding"): T tenants over 4 shards, 4 threads each, cached solves
  // round-robined across the tenants. The 1-vs-16 pair is the sharding
  // regression bar — hosting 16 tenants must not tax one tenant's
  // request path (acceptance: 16-tenant median within 1.3x of
  // 1-tenant's).
  const auto make_tenant_service = [seed](std::size_t tenants) {
    aa::svc::ServiceConfig config;
    config.num_servers = 8;
    config.capacity = 1000;
    config.workers = 4;
    config.shards = 4;
    auto service = std::make_shared<aa::svc::Service>(config);
    service->start();
    aa::support::DistributionParams dist;
    aa::support::Rng rng = aa::support::Rng::child(seed, 9004);
    for (std::size_t t = 0; t < tenants; ++t) {
      const std::string tenant = "bench" + std::to_string(t);
      JsonValue create{JsonValue::Object{}};
      create.set("op", "tenant_create");
      create.set("tenant", tenant);
      static_cast<void>(service->request(create.dump()));
      for (std::size_t i = 0; i < 4; ++i) {
        const aa::util::UtilityPtr utility =
            aa::util::generate_utility(1000, dist, rng);
        JsonValue request{JsonValue::Object{}};
        request.set("op", "add_thread");
        request.set("tenant", tenant);
        request.set("thread", aa::io::utility_to_json(*utility));
        static_cast<void>(service->request(request.dump()));
      }
      // Prime the cached path so the measured solves never re-solve.
      JsonValue solve{JsonValue::Object{}};
      solve.set("op", "solve");
      solve.set("tenant", tenant);
      static_cast<void>(service->request(solve.dump()));
    }
    return service;
  };
  const auto tenant_case = [make_tenant_service,
                            solve_utility](std::size_t tenants) {
    return [make_tenant_service, solve_utility, tenants] {
      auto service = make_tenant_service(tenants);
      auto next = std::make_shared<std::size_t>(0);
      return [service, solve_utility, tenants, next] {
        const std::string tenant =
            "bench" + std::to_string(*next % tenants);
        ++*next;
        return solve_utility(service->request(
            R"({"op": "solve", "tenant": ")" + tenant + "\"}"));
      };
    };
  };
  cases.push_back({"svc/tenant_request/solve_1_tenant", "svc", true,
                   tenant_case(1)});
  cases.push_back({"svc/tenant_request/solve_16_tenants", "svc", true,
                   tenant_case(16)});

  return cases;
}

std::string host_name() {
  char buffer[256] = {};
  if (gethostname(buffer, sizeof buffer - 1) != 0) return "unknown";
  return buffer[0] == '\0' ? "unknown" : std::string(buffer);
}

std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm utc = {};
  gmtime_r(&now, &utc);
  char buffer[16];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%d", &utc);
  return buffer;
}

std::string git_sha() {
  FILE* pipe = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[64] = {};
  const bool got = std::fgets(buffer, sizeof buffer, pipe) != nullptr;
  if (pclose(pipe) != 0 || !got) return "unknown";
  std::string sha(buffer);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

Report run_suite(const std::string& suite, const std::string& filter,
                 std::uint64_t seed,
                 const aa::benchkit::RunnerOptions& options) {
  Report report;
  report.host = host_name();
  report.date_utc = utc_date();
  report.git_sha = git_sha();
  report.compiler = __VERSION__;
#ifdef AA_BENCH_BUILD_TYPE
  report.build_type = AA_BENCH_BUILD_TYPE;
#else
  report.build_type = "unknown";
#endif
  report.suite = suite;
  report.seed = seed;

  for (const BenchCase& bench : build_suite(seed)) {
    if (suite == "quick" && !bench.quick) continue;
    if (!filter.empty() && bench.name.find(filter) == std::string::npos) {
      continue;
    }
    std::fprintf(stderr, "running %s ...\n", bench.name.c_str());
    CaseResult result =
        aa::benchkit::run_case(bench.name, bench.group, bench.make(), options);
    std::fprintf(stderr, "  median %.4f ms over %zu reps (rel stderr %.3f)\n",
                 result.median_ms, result.repetitions, result.rel_stderr);
    report.cases.push_back(std::move(result));
  }
  return report;
}

int usage() {
  std::cerr
      << "usage: aa_bench [--suite quick|full] [--filter SUBSTR] "
         "[--out FILE] [--list 1]\n"
         "                [--seed S] [--min-reps N] [--max-reps N]\n"
         "                [--target-rel-stderr X] [--max-case-seconds X]\n"
         "       aa_bench --compare BASELINE.json [CURRENT.json] "
         "[--threshold X]\n"
         "                [--warn-only 1] [--require-all 1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const aa::support::Args args(
        argc, argv,
        {"suite", "filter", "out", "list", "seed", "min-reps", "max-reps",
         "target-rel-stderr", "max-case-seconds", "compare", "threshold",
         "warn-only", "require-all"});

    const std::string suite = args.get("suite", "full");
    if (suite != "quick" && suite != "full") return usage();
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

    if (args.get_int("list", 0) != 0) {
      for (const BenchCase& bench : build_suite(seed)) {
        if (suite == "quick" && !bench.quick) continue;
        std::cout << bench.name << "\n";
      }
      return 0;
    }

    aa::benchkit::RunnerOptions options;
    options.min_reps = static_cast<std::size_t>(
        args.get_int("min-reps", static_cast<long long>(options.min_reps)));
    options.max_reps = static_cast<std::size_t>(
        args.get_int("max-reps", static_cast<long long>(options.max_reps)));
    options.target_rel_stderr =
        args.get_double("target-rel-stderr", options.target_rel_stderr);
    options.max_case_seconds =
        args.get_double("max-case-seconds", options.max_case_seconds);

    const std::string baseline_path = args.get("compare", "");
    if (baseline_path.empty() && !args.positional().empty()) return usage();

    if (!baseline_path.empty()) {
      if (args.positional().size() > 1) return usage();
      const Report baseline = aa::benchkit::report_from_json(
          aa::support::json_parse(aa::io::read_file(baseline_path)));
      Report current;
      if (args.positional().size() == 1) {
        current = aa::benchkit::report_from_json(
            aa::support::json_parse(aa::io::read_file(args.positional()[0])));
      } else {
        current = run_suite(baseline.suite, args.get("filter", ""), seed,
                            options);
      }
      aa::benchkit::CompareOptions compare;
      compare.threshold = args.get_double("threshold", compare.threshold);
      compare.require_all = args.get_int("require-all", 0) != 0;
      const aa::benchkit::CompareResult result =
          aa::benchkit::compare_reports(baseline, current, compare);
      std::cout << aa::benchkit::format_compare(result, compare);
      if (!result.ok() && args.get_int("warn-only", 0) != 0) {
        std::cout << "warn-only: regressions reported but not failing the "
                     "run\n";
        return 0;
      }
      return result.ok() ? 0 : 1;
    }

    const Report report =
        run_suite(suite, args.get("filter", ""), seed, options);
    const std::string default_out =
        "BENCH_" + report.host + "_" + report.date_utc + ".json";
    const std::string out_path = args.get("out", default_out);
    const JsonValue json = aa::benchkit::report_to_json(report);
    aa::io::write_file(out_path, json.dump(2) + "\n");
    std::cout << "wrote " << report.cases.size() << " cases to " << out_path
              << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "aa_bench: " << error.what() << "\n";
    return 2;
  }
}
