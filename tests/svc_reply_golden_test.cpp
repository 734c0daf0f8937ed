// Pins the bytes of every reply the service writes (svc/service.hpp) over a
// few scripted sessions: a full solve at n=4096, full/cached/warm solves at
// n=300, an empty-instance solve, a tenant-addressed solve, error replies,
// one coalesced batch of three tagged solves, and a solve whose certificate
// fails. Each reply is reduced to an FNV-1a digest of its exact text with
// only the two per-run values masked: `solve_ms` (wall time) and `rid`
// (process-unique, so it depends on which tests ran before). Any change to
// key order, number formatting, escaping or the solve itself fails here.
// If a change here is INTENTIONAL, regenerate the tables from the failure
// message and say why in the changelog.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/instance_io.hpp"
#include "sim/workload.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"

namespace aa::svc {
namespace {

using support::JsonValue;
using support::json_parse;

/// `text` with the number after every `"key":` replaced by 0.
std::string masked(const std::string& text, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  std::string out;
  out.reserve(text.size());
  std::size_t copied = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, copied)) {
    const std::size_t begin = at + needle.size();
    std::size_t end = begin;
    while (end < text.size() && text[end] != ',' && text[end] != '}' &&
           text[end] != ']') {
      ++end;
    }
    out.append(text, copied, begin - copied).append("0");
    copied = end;
  }
  out.append(text, copied);
  return out;
}

std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = 14695981039346656037ull) {
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// One pinned line per step: label, masked byte count, masked digest.
/// A step may cover many replies (bulk deltas); their texts are chained
/// into one digest, each followed by a newline.
class Transcript {
 public:
  explicit Transcript(Service& service) : service_(service) {}

  /// Sends `line`, records its reply as its own step, returns the reply.
  JsonValue ask(const std::string& label, const std::string& line) {
    const std::string reply = service_.request(line);
    record(label, {reply});
    return json_parse(reply);
  }

  /// Sends every line in order and records all replies as one step.
  void bulk(const std::string& label, const std::vector<std::string>& lines) {
    std::vector<std::string> replies;
    replies.reserve(lines.size());
    for (const std::string& line : lines) {
      replies.push_back(service_.request(line));
    }
    record(label, replies);
  }

  void record(const std::string& label,
              const std::vector<std::string>& replies) {
    std::uint64_t hash = fnv1a({});
    std::size_t bytes = 0;
    for (const std::string& reply : replies) {
      const std::string text = masked(masked(reply, "solve_ms"), "rid");
      bytes += text.size() + 1;
      hash = fnv1a(text + "\n", hash);
    }
    char line[160];
    std::snprintf(line, sizeof line, "%s %zu %016llx", label.c_str(), bytes,
                  static_cast<unsigned long long>(hash));
    lines_.emplace_back(line);
  }

  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }

 private:
  Service& service_;
  std::vector<std::string> lines_;
};

void expect_golden(const Transcript& transcript,
                   const std::vector<std::string>& golden) {
  std::string actual;
  for (const std::string& line : transcript.lines()) {
    actual += "      \"" + line + "\",\n";
  }
  EXPECT_EQ(transcript.lines(), golden) << "actual transcript:\n" << actual;
}

std::string add_line(const JsonValue& utility, const std::string& tenant) {
  JsonValue request;
  request.set("op", "add_thread");
  if (!tenant.empty()) request.set("tenant", tenant);
  request.set("thread", utility);
  return request.dump();
}

/// `count` power-utility add_thread lines with seeded parameters.
std::vector<std::string> power_adds(std::uint64_t seed, std::size_t count,
                                    const std::string& tenant = {}) {
  support::Rng rng(seed);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    JsonValue utility;
    utility.set("type", "power");
    utility.set("scale", rng.uniform(0.5, 2.0));
    utility.set("beta", rng.uniform(0.2, 0.9));
    lines.push_back(add_line(utility, tenant));
  }
  return lines;
}

ServiceConfig wide_config() {
  ServiceConfig config;
  config.num_servers = 8;
  config.capacity = 1000;
  config.workers = 1;
  return config;
}

// A full solve at n=4096, then the same tenant shrunk to n=300 and solved
// along every path: full (too many deltas), cached (no deltas), warm (a
// few drifted threads), cached again.
TEST(ReplyGolden, FullWarmAndCachedSolves) {
  Service service(wide_config());
  service.start();
  Transcript transcript(service);
  transcript.bulk("add x4096", power_adds(11, 4096));
  const JsonValue full = transcript.ask("solve n=4096", R"({"op": "solve"})");
  EXPECT_EQ(full.at("path").as_string(), "full");
  EXPECT_EQ(full.at("assignment").as_array().size(), 4096u);

  std::vector<std::string> removes;
  for (int id = 300; id < 4096; ++id) {
    removes.push_back(R"({"op": "remove_thread", "id": )" +
                      std::to_string(id) + "}");
  }
  transcript.bulk("remove x3796", removes);
  EXPECT_EQ(transcript.ask("solve n=300", R"({"op": "solve", "tag": "a"})")
                .at("path")
                .as_string(),
            "full");
  EXPECT_EQ(transcript.ask("solve cached", R"({"op": "solve", "tag": "b"})")
                .at("path")
                .as_string(),
            "cached");
  transcript.bulk(
      "drift x3",
      {R"({"op": "update_utility", "id": 7, "factor": 1.25})",
       R"({"op": "update_utility", "id": 42, "factor": 0.5})",
       R"({"op": "update_utility", "id": 299, "factor": 3.0})"});
  EXPECT_EQ(transcript.ask("solve warm", R"({"op": "solve", "tag": "c"})")
                .at("path")
                .as_string(),
            "warm");
  EXPECT_EQ(transcript.ask("solve cached again",
                           R"({"op": "solve", "mode": "auto", "tag": "d"})")
                .at("path")
                .as_string(),
            "cached");
  service.stop();
  expect_golden(transcript, {
      "add x4096 255834 2d82bfad38084bd3",
      "solve n=4096 134491 dbb01a56455ba4d6",
      "remove x3796 249136 f9411fed5301a19d",
      "solve n=300 9869 7126d41eb45c4d26",
      "solve cached 9869 747fa3c56a6536aa",
      "drift x3 150 9889191bceca983b",
      "solve warm 9867 f40e322ebf5ecbda",
      "solve cached again 9869 5ce3707f1dd29f98",
  });
}

// Solving nothing, the error kinds a client can provoke, and a solve
// addressed to a named tenant (the reply echoes the tenant).
TEST(ReplyGolden, EmptyErrorsAndTenantSolves) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  service.start();
  Transcript transcript(service);
  const JsonValue empty =
      transcript.ask("solve empty", R"({"op": "solve", "tag": "none"})");
  EXPECT_TRUE(empty.at("assignment").as_array().empty());
  transcript.ask("parse error", "this is not json");
  transcript.ask("unknown op", R"({"op": "sideways", "tag": "x"})");
  transcript.ask("missing id", R"({"op": "remove_thread", "id": 99})");
  transcript.ask("bad thread",
                 R"({"op": "add_thread", "thread": {"type": "nope"}})");
  transcript.ask("no tenant", R"({"op": "solve", "tenant": "ghost"})");
  transcript.ask("create acme",
                 R"({"op": "tenant_create", "tenant": "acme", "weight": 2})");
  transcript.bulk("add acme x24", power_adds(5, 24, "acme"));
  const JsonValue solved = transcript.ask(
      "solve acme", R"({"op": "solve", "tenant": "acme", "tag": "t\"q"})");
  EXPECT_EQ(solved.at("tenant").as_string(), "acme");
  EXPECT_EQ(solved.at("tag").as_string(), "t\"q");
  service.stop();
  expect_golden(transcript, {
      "solve empty 246 4c01178d72a40ce2",
      "parse error 88 44d2b56ce2196e53",
      "unknown op 73 3b3a8b1ad1f2d42a",
      "missing id 92 8c9f1638a4ae769e",
      "bad thread 111 f1b86822ef362a26",
      "no tenant 88 63b34fd5dbed5fe5",
      "create acme 143 2efa99f590d03211",
      "add acme x24 1782 02d72495c8f31d99",
      "solve acme 1069 7275e728898a90d6",
  });
}

// Three tagged solves drained in one batch share one coalesced solve; only
// their tag, tenant echo and rid differ. Shard 0's single worker is parked
// delivering a `trace` reply while they queue, so the batch is exact.
TEST(ReplyGolden, CoalescedSolveGroup) {
  Service service(wide_config());
  service.start();
  Transcript transcript(service);
  transcript.bulk("add x40", power_adds(3, 40));

  auto parked = std::make_shared<std::promise<void>>();
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  service.submit_line(R"({"op": "trace"})",
                      [parked, open](const std::string&) {
                        parked->set_value();
                        open.wait();
                      });
  parked->get_future().wait();
  const std::vector<std::string> lines = {
      R"({"op": "solve", "tag": "g1"})",
      R"({"op": "solve", "tenant": "default", "tag": "g2"})",
      R"({"op": "solve", "mode": "full", "tag": "g3"})",
  };
  std::vector<std::future<std::string>> replies;
  for (const std::string& line : lines) {
    auto done = std::make_shared<std::promise<std::string>>();
    replies.push_back(done->get_future());
    service.submit_line(
        line, [done](const std::string& text) { done->set_value(text); });
  }
  gate.set_value();
  std::vector<std::string> texts;
  for (std::future<std::string>& reply : replies) texts.push_back(reply.get());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    transcript.record("coalesced " + std::to_string(i + 1), {texts[i]});
  }
  const JsonValue stats = json_parse(service.request(R"({"op": "stats"})"));
  EXPECT_EQ(stats.at("solves").at("coalesced").as_int(), 2);
  service.stop();
  expect_golden(transcript, {
      "add x40 2342 86899c7fd3775511",
      "coalesced 1 1586 35abdbf930f75557",
      "coalesced 2 1605 490ab11136346e19",
      "coalesced 3 1586 f3b9a5fd15f32ffd",
  });
}

// The price strategy at a loose tolerance on aa_gen-shaped input (seed 1,
// 64 threads, m=8, C=1000) serves an answer its certificate rejects; the
// reply carries `certificate_ok: false` and the `violations` list.
TEST(ReplyGolden, FailedCertificateCarriesViolations) {
  ServiceConfig config = wide_config();
  config.warm.super_optimal = {alloc::SuperOptimalStrategy::kPrice, 0.1};
  Service service(config);
  service.start();
  Transcript transcript(service);

  sim::WorkloadConfig workload;
  workload.num_servers = 8;
  workload.capacity = 1000;
  workload.beta = 64.0 / 8.0;
  support::Rng rng(1);
  const core::Instance instance = sim::generate_instance(workload, rng);
  std::vector<std::string> adds;
  for (const util::UtilityPtr& thread : instance.threads) {
    adds.push_back(add_line(io::utility_to_json(*thread), {}));
  }
  transcript.bulk("add x64", adds);
  const JsonValue solved =
      transcript.ask("solve price 0.1", R"({"op": "solve", "tag": "p"})");
  EXPECT_FALSE(solved.at("certificate_ok").as_bool());
  EXPECT_FALSE(solved.at("violations").as_array().empty());
  service.stop();
  expect_golden(transcript, {
      "add x64 3758 b42796c3e8e58829",
      "solve price 0.1 2414 22143accb4d15eff",
  });
}

}  // namespace
}  // namespace aa::svc
