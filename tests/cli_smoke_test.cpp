// CLI smoke tests: drive the real aa_gen, aa_solve and aa_serve binaries
// (paths baked in by CMake via AA_GEN_BIN / AA_SOLVE_BIN / AA_SERVE_BIN)
// through the generate -> solve round-trip and schema-validate what comes
// back — the instance document, the assignment document, and the --metrics
// observability blob — plus the shared --so-strategy / --so-price-tol flags.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "support/json.hpp"

namespace aa {
namespace {

/// Runs a shell command, captures stdout, and reports the exit status.
struct CommandResult {
  int status = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, read);
  }
  result.status = ::pclose(pipe);
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A temp file private to the running test: ctest runs each test as its
/// own process, in parallel, so a shared name would race.
std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "aa_cli_smoke_" + test->name() + "_" + name;
}

constexpr const char* kGen = AA_GEN_BIN;
constexpr const char* kSolve = AA_SOLVE_BIN;
constexpr const char* kServe = AA_SERVE_BIN;

class CliSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_path_ = temp_path("instance.json");
    const CommandResult gen = run_command(
        std::string(kGen) + " --threads 12 --servers 3 --capacity 60"
                            " --seed 7 --out " + instance_path_ +
        " 2>/dev/null");
    ASSERT_EQ(gen.status, 0);
  }

  std::string instance_path_;
};

TEST_F(CliSmoke, GenEmitsAValidInstanceDocument) {
  const support::JsonValue instance =
      support::json_parse(slurp(instance_path_));
  EXPECT_EQ(instance.at("num_servers").as_int(), 3);
  EXPECT_EQ(instance.at("capacity").as_int(), 60);
  ASSERT_EQ(instance.at("threads").as_array().size(), 12u);
  for (const support::JsonValue& thread : instance.at("threads").as_array()) {
    EXPECT_TRUE(thread.at("type").is_string());
  }
}

TEST_F(CliSmoke, SolveRoundTripsToAValidAssignment) {
  const CommandResult solve =
      run_command(std::string(kSolve) + " " + instance_path_ +
                  " --format json");
  ASSERT_EQ(solve.status, 0);
  const support::JsonValue assignment = support::json_parse(solve.output);
  ASSERT_EQ(assignment.at("server").as_array().size(), 12u);
  ASSERT_EQ(assignment.at("alloc").as_array().size(), 12u);
  EXPECT_EQ(assignment.at("algorithm").as_string(), "alg2");
  EXPECT_GT(assignment.at("utility").as_number(), 0.0);
  EXPECT_GE(assignment.at("super_optimal_utility").as_number(),
            assignment.at("utility").as_number() - 1e-9);
  for (const support::JsonValue& server : assignment.at("server").as_array()) {
    EXPECT_GE(server.as_int(), 0);
    EXPECT_LT(server.as_int(), 3);
  }
}

TEST_F(CliSmoke, MetricsBlobMatchesTheDocumentedSchema) {
  const std::string assignment_path = temp_path("assignment.json");
  const CommandResult solve = run_command(
      std::string(kSolve) + " " + instance_path_ + " --metrics -" +
      " --format json --out " + assignment_path);
  ASSERT_EQ(solve.status, 0);

  // stdout carries exactly one JSON document: the metrics blob.
  const support::JsonValue metrics = support::json_parse(solve.output);
  EXPECT_EQ(metrics.at("solver").as_string(), "algorithm2_refined");
  EXPECT_TRUE(metrics.at("certificate_ok").as_bool());
  EXPECT_GT(metrics.at("f_alg").as_number(), 0.0);
  EXPECT_GE(metrics.at("f_super_optimal").as_number(),
            metrics.at("f_alg").as_number() - 1e-9);
  EXPECT_NEAR(metrics.at("alpha").as_number(), 0.8284271247461901, 1e-12);

  const support::JsonValue& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("alg2/solves").as_int(), 1);
  EXPECT_EQ(counters.at("alg2/threads_assigned").as_int(), 12);
  EXPECT_EQ(counters.at("certificate/checks").as_int(), 1);
  EXPECT_EQ(counters.find("certificate/failures"), nullptr);

  // Phase timings for the documented pipeline phases.
  const support::JsonValue& timers = metrics.at("timers");
  for (const char* phase :
       {"alg2/solve", "super_optimal", "linearize", "alg2/assign",
        "refine/reoptimize"}) {
    ASSERT_NE(timers.find(phase), nullptr) << phase;
    EXPECT_GE(timers.at(phase).at("count").as_int(), 1) << phase;
    EXPECT_GE(timers.at(phase).at("wall_ms_total").as_number(), 0.0) << phase;
  }
  EXPECT_FALSE(metrics.at("trace").as_array().empty());
  ASSERT_EQ(metrics.at("certificates").as_array().size(), 1u);

  // The solution written alongside agrees with the certified utility.
  const support::JsonValue assignment =
      support::json_parse(slurp(assignment_path));
  EXPECT_NEAR(assignment.at("utility").as_number(),
              metrics.at("f_alg").as_number(), 1e-9);
}

TEST_F(CliSmoke, MetricsFileFlagWritesTheBlob) {
  const std::string metrics_path = temp_path("metrics.json");
  const CommandResult solve = run_command(
      std::string(kSolve) + " " + instance_path_ + " --algorithm alg1" +
      " --metrics " + metrics_path + " --out /dev/null");
  ASSERT_EQ(solve.status, 0);
  const support::JsonValue metrics = support::json_parse(slurp(metrics_path));
  EXPECT_EQ(metrics.at("solver").as_string(), "algorithm1_refined");
  EXPECT_TRUE(metrics.at("certificate_ok").as_bool());
  const auto counter = [&](const char* name) -> std::int64_t {
    const support::JsonValue* value = metrics.at("counters").find(name);
    return value == nullptr ? 0 : value->as_int();
  };
  EXPECT_EQ(counter("alg1/solves"), 1);
  EXPECT_EQ(counter("alg1/full_picks") + counter("alg1/unfull_picks"), 12);
}

TEST_F(CliSmoke, ServePriceStrategyReachesTheSolver) {
  const std::string metrics_path = temp_path("serve_metrics.json");
  const std::string script =
      R"({"op": "add_thread", "thread": {"type": "log", "scale": 2.0, "rate": 0.1}})"
      "\\n"
      R"({"op": "add_thread", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})"
      "\\n"
      R"({"op": "solve"})"
      "\\n"
      R"({"op": "shutdown"})";
  const CommandResult serve = run_command(
      "printf '" + script + "\\n' | " + kServe +
      " --capacity 32 --so-strategy price --metrics " + metrics_path);
  ASSERT_EQ(serve.status, 0) << serve.output;
  const support::JsonValue metrics = support::json_parse(slurp(metrics_path));
  const support::JsonValue& counters = metrics.at("counters");
  ASSERT_NE(counters.find("super_optimal/price_calls"), nullptr);
  EXPECT_GT(counters.at("super_optimal/price_calls").as_int(), 0);
  // One full solve, one certificate: the reply's.
  EXPECT_EQ(counters.at("certificate/checks").as_int(), 1);
  EXPECT_EQ(metrics.at("certificates").as_array().size(), 1u);
}

TEST_F(CliSmoke, PriceToleranceOutsideTheOpenUnitIntervalFails) {
  for (const char* tol : {"0", "1", "2.5", "-1e-3", "nan", "inf", "x"}) {
    const std::string flag = std::string(" --so-price-tol ") + tol;
    const CommandResult solve =
        run_command(std::string(kSolve) + " " + instance_path_ +
                    " --so-strategy price" + flag + " 2>&1");
    EXPECT_NE(solve.status, 0) << tol;
    EXPECT_NE(solve.output.find("--so-price-tol"), std::string::npos)
        << solve.output;
    const CommandResult serve = run_command(
        "printf '' | " + std::string(kServe) + flag + " 2>&1");
    EXPECT_NE(serve.status, 0) << tol;
    EXPECT_NE(serve.output.find("--so-price-tol"), std::string::npos)
        << serve.output;
  }
  const CommandResult valid =
      run_command(std::string(kSolve) + " " + instance_path_ +
                  " --so-strategy price --so-price-tol 1e-6 --out /dev/null");
  EXPECT_EQ(valid.status, 0);
}

TEST_F(CliSmoke, UnknownAlgorithmFailsLoudly) {
  const CommandResult solve = run_command(
      std::string(kSolve) + " " + instance_path_ +
      " --algorithm nonsense 2>/dev/null");
  EXPECT_NE(solve.status, 0);
}

}  // namespace
}  // namespace aa
