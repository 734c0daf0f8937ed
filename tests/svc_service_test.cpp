// Tests for the transport-independent service core (svc/service.hpp):
// batching/coalescing, deadlines, error replies, shutdown semantics, and
// concurrent clients.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "alloc/super_optimal.hpp"
#include "obs/session.hpp"
#include "support/json.hpp"

namespace aa::svc {
namespace {

using support::JsonValue;
using support::json_parse;

constexpr const char* kAddPower =
    R"({"op": "add_thread", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})";

JsonValue ask(Service& service, const std::string& line) {
  return json_parse(service.request(line));
}

TEST(Service, BasicRoundTrip) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue added = ask(service, kAddPower);
  EXPECT_TRUE(added.at("ok").as_bool());
  EXPECT_EQ(added.at("id").as_int(), 1);
  EXPECT_EQ(added.at("threads").as_int(), 1);

  const JsonValue solved = ask(service, R"({"op": "solve", "tag": "s1"})");
  EXPECT_TRUE(solved.at("ok").as_bool());
  EXPECT_EQ(solved.at("tag").as_string(), "s1");
  EXPECT_TRUE(solved.at("certificate_ok").as_bool());
  EXPECT_EQ(solved.at("path").as_string(), "full");
  ASSERT_EQ(solved.at("assignment").as_array().size(), 1u);
  EXPECT_EQ(solved.at("assignment").as_array()[0].at("id").as_int(), 1);

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("threads").as_int(), 1);
  EXPECT_EQ(stats.at("servers").as_int(), 2);
  EXPECT_EQ(stats.at("capacity").as_int(), 64);
  service.stop();
}

TEST(Service, SolveOnEmptyInstance) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue solved = ask(service, R"({"op": "solve"})");
  EXPECT_TRUE(solved.at("ok").as_bool());
  EXPECT_TRUE(solved.at("certificate_ok").as_bool());
  EXPECT_DOUBLE_EQ(solved.at("utility").as_number(), 0.0);
  EXPECT_TRUE(solved.at("assignment").as_array().empty());
  service.stop();
}

TEST(Service, FullSolveRecordsOneCertificate) {
  obs::Session session;
  Service service(ServiceConfig{});
  service.start();
  ASSERT_TRUE(ask(service, kAddPower).at("ok").as_bool());
  const JsonValue solved = ask(service, R"({"op": "solve"})");
  service.stop();
  EXPECT_EQ(solved.at("path").as_string(), "full");
  // The reply's certificate, and no other.
  EXPECT_EQ(session.metrics().counter("certificate/checks"), 1);
  const auto certificates = session.certificates();
  ASSERT_EQ(certificates.size(), 1u);
  EXPECT_EQ(certificates[0].input.solver, "svc_full");
  EXPECT_TRUE(certificates[0].ok());
}

// WarmStartConfig::super_optimal reaches every solve (full and warm) and
// every fairness demand: under kParallel the replies are bit-identical to
// the serial reference, and every super-optimal call took the SoA path.
TEST(Service, ParallelSuperOptimalMatchesSerialBitForBit) {
  const std::vector<std::string> script = {
      kAddPower,
      R"({"op": "add_thread", "thread": {"type": "log", "scale": 2.0, "rate": 0.1}})",
      R"({"op": "add_thread", "thread": {"type": "power", "scale": 3.0, "beta": 0.3}})",
      R"({"op": "solve"})",
      R"({"op": "update_utility", "id": 2, "factor": 1.03})",
      R"({"op": "solve"})",
      R"({"op": "tenant_create", "tenant": "b", "weight": 2})",
      R"({"op": "add_thread", "tenant": "b", "thread": {"type": "log", "scale": 1.0, "rate": 0.2}})",
      R"({"op": "solve", "tenant": "b"})",
      R"({"op": "solve", "mode": "full"})",
      R"({"op": "tenant_list"})",
  };
  struct Run {
    std::vector<std::string> replies;
    std::int64_t calls = 0;
    std::int64_t parallel_calls = 0;
    std::int64_t solves = 0;
  };
  const auto run = [&](alloc::SuperOptimalStrategy strategy) {
    ServiceConfig config;
    config.warm.super_optimal.strategy = strategy;
    Run out;
    obs::Session session;
    Service service(config);
    service.start();
    // Request ids and solve timings differ run to run; nothing else may.
    const std::regex varying(R"re(,"(rid|solve_ms)":[-+.0-9e]+)re");
    for (const std::string& line : script) {
      out.replies.push_back(
          std::regex_replace(service.request(line), varying, ""));
    }
    service.stop();
    const obs::Metrics metrics = session.metrics();
    out.calls = metrics.counter("super_optimal/calls");
    out.parallel_calls = metrics.counter("super_optimal/parallel_calls");
    out.solves = metrics.counter("svc/solve_full") +
                 metrics.counter("svc/solve_warm");
    return out;
  };
  const Run serial = run(alloc::SuperOptimalStrategy::kSerial);
  const Run parallel = run(alloc::SuperOptimalStrategy::kParallel);
  EXPECT_EQ(parallel.replies, serial.replies);
  EXPECT_EQ(serial.parallel_calls, 0);
  EXPECT_EQ(parallel.parallel_calls, parallel.calls);
  EXPECT_EQ(parallel.calls, serial.calls);
  // More calls than solves: the tenant_create re-division computed the
  // default tenant's demand through the same options.
  EXPECT_GT(parallel.parallel_calls, parallel.solves);
}

// Requests submitted before start() form one deterministic batch: the
// three solves coalesce into a single re-solve of the final state.
TEST(Service, PreStartBatchCoalescesSolves) {
  ServiceConfig config;
  config.workers = 1;
  config.batch_max = 64;
  Service service(config);

  std::vector<std::future<std::string>> replies;
  const auto submit = [&](const std::string& line) {
    auto done = std::make_shared<std::promise<std::string>>();
    replies.push_back(done->get_future());
    service.submit_line(
        line, [done](const std::string& text) { done->set_value(text); });
  };
  submit(kAddPower);
  submit(R"({"op": "solve", "tag": "a"})");
  submit(kAddPower);
  submit(R"({"op": "solve", "tag": "b"})");
  submit(R"({"op": "solve", "tag": "c"})");

  service.start();
  std::vector<JsonValue> parsed;
  for (auto& reply : replies) parsed.push_back(json_parse(reply.get()));

  // All solve replies describe the same (final) state: both threads placed.
  for (const std::size_t solve_index : {1u, 3u, 4u}) {
    const JsonValue& solved = parsed[solve_index];
    EXPECT_TRUE(solved.at("ok").as_bool());
    EXPECT_TRUE(solved.at("certificate_ok").as_bool());
    EXPECT_EQ(solved.at("threads").as_int(), 2);
    EXPECT_DOUBLE_EQ(solved.at("utility").as_number(),
                     parsed[1].at("utility").as_number());
  }
  EXPECT_EQ(parsed[1].at("tag").as_string(), "a");
  EXPECT_EQ(parsed[4].at("tag").as_string(), "c");

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  const JsonValue& solves = stats.at("solves");
  EXPECT_EQ(solves.at("coalesced").as_int(), 2);
  EXPECT_EQ(solves.at("full").as_int() + solves.at("warm").as_int() +
                solves.at("cached").as_int(),
            1);
  EXPECT_GE(stats.at("batching").at("max_size").as_number(), 5.0);
  service.stop();
}

TEST(Service, ExpiredDeadlineGetsTimeoutReply) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  // Enqueue before start() so the deadline is long gone when a worker
  // finally picks the request up.
  auto done = std::make_shared<std::promise<std::string>>();
  service.submit_line(
      R"({"op": "solve", "deadline_ms": 1.0, "tag": "late"})",
      [done](const std::string& text) { done->set_value(text); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.start();
  const JsonValue reply = json_parse(done->get_future().get());
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "timeout");
  EXPECT_EQ(reply.at("tag").as_string(), "late");

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_EQ(stats.at("timeouts").as_int(), 1);
  service.stop();
}

TEST(Service, UnknownIdsGetNotFound) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue removed =
      ask(service, R"({"op": "remove_thread", "id": 42})");
  EXPECT_FALSE(removed.at("ok").as_bool());
  EXPECT_EQ(removed.at("code").as_string(), "not_found");
  const JsonValue updated =
      ask(service, R"({"op": "update_utility", "id": 42, "factor": 1.1})");
  EXPECT_EQ(updated.at("code").as_string(), "not_found");
  service.stop();
}

TEST(Service, ParseErrorsGetStructuredReplies) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue reply = ask(service, "this is not json");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "parse_error");
  const JsonValue unknown = ask(service, R"({"op": "sideways"})");
  EXPECT_EQ(unknown.at("code").as_string(), "unknown_op");
  service.stop();
}

TEST(Service, ErrorRepliesKeepRequestOrder) {
  // A protocol error must flow through the queue with everything else: its
  // reply may not overtake replies to earlier valid requests.
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  std::mutex order_mutex;
  std::vector<std::string> codes;
  const auto record = [&order_mutex, &codes](const std::string& text) {
    const JsonValue reply = json_parse(text);
    const JsonValue* code = reply.find("code");
    std::lock_guard lock(order_mutex);
    codes.push_back(code != nullptr ? code->as_string() : "ok");
  };
  // Enqueued before start() so all four land in one deterministic batch.
  service.submit_line(kAddPower, record);
  service.submit_line(R"({"op": "solve"})", record);
  service.submit_line(R"({"op": "bogus"})", record);
  service.submit_line(R"({"op": "stats"})", record);
  service.start();
  const JsonValue last = ask(service, R"({"op": "stats"})");
  EXPECT_TRUE(last.at("ok").as_bool());
  {
    std::lock_guard lock(order_mutex);
    ASSERT_EQ(codes.size(), 4u);
    EXPECT_EQ(codes[0], "ok");
    EXPECT_EQ(codes[1], "ok");
    EXPECT_EQ(codes[2], "unknown_op");
    EXPECT_EQ(codes[3], "ok");
  }
  service.stop();
}

TEST(Service, QueueOverflowIsAnsweredInline) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 1;
  Service service(config);
  auto first = std::make_shared<std::promise<std::string>>();
  service.submit_line(kAddPower, [first](const std::string& text) {
    first->set_value(text);
  });
  const JsonValue overflow = ask(service, R"({"op": "solve"})");
  EXPECT_FALSE(overflow.at("ok").as_bool());
  EXPECT_EQ(overflow.at("code").as_string(), "overflow");
  service.start();
  EXPECT_TRUE(json_parse(first->get_future().get()).at("ok").as_bool());
  service.stop();
}

TEST(Service, ShutdownStopsAcceptingRequests) {
  Service service(ServiceConfig{});
  service.start();
  EXPECT_FALSE(service.shutdown_requested());
  const JsonValue reply = ask(service, R"({"op": "shutdown"})");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
  const JsonValue refused = ask(service, R"({"op": "stats"})");
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(refused.at("code").as_string(), "shutting_down");
  service.stop();
}

TEST(Service, StopIsIdempotentAndSafeWithoutStart) {
  Service service(ServiceConfig{});
  service.stop();
  service.stop();
}

// Several client threads hammer one service; every reply must arrive, be
// well-formed, and every solve must certify. Exercises the worker pool,
// the batching turn, and the ordered delivery under real contention (the
// TSan CI job runs this binary).
TEST(Service, ConcurrentClients) {
  ServiceConfig config;
  config.workers = 4;
  config.batch_max = 16;
  config.batch_linger_ms = 0.1;
  Service service(config);
  service.start();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::atomic<int> solve_failures{0};
  std::atomic<int> reply_failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::int64_t> ids;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        JsonValue reply;
        if (i % 5 == 4) {
          reply = ask(service, R"({"op": "solve"})");
          if (!reply.at("ok").as_bool() ||
              !reply.at("certificate_ok").as_bool()) {
            ++solve_failures;
          }
          continue;
        }
        if (ids.size() < 3 || i % 3 == 0) {
          reply = ask(service, kAddPower);
          if (reply.at("ok").as_bool()) {
            ids.push_back(reply.at("id").as_int());
          } else {
            ++reply_failures;
          }
        } else {
          const std::int64_t id =
              ids[static_cast<std::size_t>(c + i) % ids.size()];
          reply = ask(service,
                      R"({"op": "update_utility", "id": )" +
                          std::to_string(id) + R"(, "factor": 1.01})");
          if (!reply.at("ok").as_bool()) ++reply_failures;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(solve_failures.load(), 0);
  EXPECT_EQ(reply_failures.load(), 0);

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_GE(stats.at("requests_total").as_int(),
            kClients * kRequestsPerClient);
  EXPECT_EQ(stats.at("errors_total").as_int(), 0);
  service.stop();
}

}  // namespace
}  // namespace aa::svc
