#pragma once

// Transport-independent core of the allocation service.
//
// Connections (Unix socket, stdio, or tests) feed raw request lines into
// submit_line(); replies come back through a per-request callback. The
// service is multi-tenant and sharded: tenants (svc/tenant.hpp) are
// distributed over `shards` shards by a stable hash of the tenant id, and
// each shard owns a bounded FIFO request queue, its tenants' state, and a
// reply sequencer of its own:
//
//   - Every drain worker is pinned to exactly one shard (worker i drains
//     shard i mod shards), and a shard's state is only ever touched under
//     that shard's turn lock — so steady-state traffic for tenants on
//     different shards never contends on any lock (the acceptance
//     property behind the TSan soak in CI).
//   - Within a shard, workers take strict turns draining: one worker pops
//     a *batch* of up to `batch_max` requests (lingering `batch_linger_ms`
//     after the first so bursts coalesce), applies every delta in arrival
//     order, and answers all solve requests in the batch — per tenant —
//     with ONE re-solve of that tenant's final state (coalescing). The
//     solve's assignment is written as JSON text once, under the turn,
//     and shared by every reply of the group; the rest of reply
//     *rendering* happens outside the turn, so JSON serialization
//     overlaps the next batch's solve; a per-shard sequencer delivers
//     batches in order, preserving FIFO per shard (and therefore per
//     tenant; requests for different shards may be answered out of
//     submission order).
//   - Tenant-less control requests (stats, metrics, shutdown, and the
//     tenant_* admin verbs) are routed to shard 0; the ones that must see
//     every shard briefly acquire the other shards' turn locks in
//     ascending order — only the shard-0 worker ever holds more than one
//     turn lock, so the ordering is deadlock-free. Tenant churn
//     (create/update/delete) re-divides the global capacity pool across
//     tenants through the configured FairnessPolicy (svc/fairness.hpp)
//     and publishes each tenant's slice as its InstanceState solve
//     capacity, feeding the existing warm-start cached/warm/full paths.
//   - Requests carry optional deadlines (request `deadline_ms` overriding
//     the config default); a request picked up past its deadline gets a
//     structured `timeout` error instead of being executed.
//   - Solves go through the tenant's WarmStartSolver: cached / warm
//     (placement pinned, zero migrations) / full Algorithm 2, every reply
//     carrying the 0.828-approximation certificate verdict for that
//     tenant's sliced instance.
//
// Statistics live in svc::Telemetry (svc/telemetry.hpp), which accounts
// each finished request once and renders the read verbs from one snapshot
// of every tenant. The service itself adds the svc/batch, svc/solve and
// svc/render phase timers and queue-wait spans on the obs trace rings.
//
// Lock hierarchy (machine-checked through the support/sync.hpp
// annotations under Clang -Werror=thread-safety; the table in
// docs/ARCHITECTURE.md mirrors this comment):
//
//   shard.turn_mutex       shard 0's first, then the others ascending
//     -> shard.queue_mutex (AllShardsTurnLock; only the shard-0 worker
//                           ever holds more than one turn lock)
//   Telemetry::mutex_      leaf: taken only inside Telemetry's methods
//   shard.deliver_mutex    independent: held alone while replies drain
//
// queue_mutex is also taken on its own by submit_line (producers never
// touch a turn lock), and no reply callback runs under it. The
// Telemetry mutex nests under any of the others and nothing is acquired
// under it. The inexpressible "every shard's turn lock" set is named by the
// all_turns_ phantom capability: AllShardsTurnLock really locks the
// other shards' turns and acquires the phantom, and the cross-shard
// *_locked()/control helpers declare AA_REQUIRES(all_turns_).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/sync.hpp"
#include "support/thread_pool.hpp"
#include "svc/fairness.hpp"
#include "svc/instance_state.hpp"
#include "svc/protocol.hpp"
#include "svc/telemetry.hpp"
#include "svc/tenant.hpp"
#include "svc/warm_start.hpp"

namespace aa::svc {

struct ServiceConfig {
  std::size_t num_servers = 2;
  util::Resource capacity = 64;
  /// Drain workers; each is pinned to shard (index mod shards). Raised to
  /// `shards` when smaller so every shard has at least one worker.
  std::size_t workers = 2;
  /// Requests coalesced into one drain turn.
  std::size_t batch_max = 64;
  /// After the first pop, wait this long for stragglers to join the batch.
  double batch_linger_ms = 0.0;
  /// Applied when a request has no deadline_ms of its own; <= 0 disables.
  double default_deadline_ms = 0.0;
  /// Enqueue beyond this depth (per shard) is answered with `overflow`.
  std::size_t max_queue = 4096;
  WarmStartConfig warm;
  /// Tenant shards; 1 keeps the single-lock behavior of old.
  std::size_t shards = 1;
  /// How the global pool (num_servers * capacity units) is divided across
  /// tenants on churn (svc/fairness.hpp).
  FairnessPolicyKind fairness = FairnessPolicyKind::kStaticQuota;
  /// Karma opening balance for tenants created without "credits".
  double karma_opening_credits = 0.0;
  /// Requests slower than this (enqueue -> reply built, ms) emit a
  /// svc/slow_request structured-log event; <= 0 disables slow logging
  /// (the tail capture of the slowest requests is always on).
  double slow_ms = 0.0;
  /// Per-request latency objective for SLO accounting: a finished request
  /// is a deadline miss when it errored with `timeout` or took longer
  /// than this; <= 0 means only timeouts count as misses.
  double slo_ms = 0.0;
  /// Target good-request fraction; the error budget is 1 - slo_objective
  /// and burn rates are miss ratios divided by that budget.
  double slo_objective = 0.999;
};

/// Capacity units the fairness policy divides: num_servers * capacity.
[[nodiscard]] double pool_units(const ServiceConfig& config) noexcept;

class Service {
 public:
  using ReplyFn = std::function<void(const std::string&)>;

  explicit Service(ServiceConfig config);
  /// stop()s if still running.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Spawns the drain workers. Requests submitted before start() queue up
  /// and are processed once workers run (tests use this for deterministic
  /// batching).
  void start();

  /// Stops accepting requests, drains the queues, and joins the workers.
  /// Safe to call repeatedly; never call from a worker callback.
  void stop();

  /// True once a shutdown request was processed (or stop() was called);
  /// transports use this to leave their accept/read loops.
  [[nodiscard]] bool shutdown_requested() const noexcept;

  /// Parses and enqueues one request line. Exactly one reply line (no
  /// trailing newline) is delivered through `reply`. Protocol errors are
  /// enqueued like any other request so replies keep request order; only
  /// queue overflow and post-shutdown submissions are answered inline
  /// (they cannot join the queue by definition), after every lock is
  /// released. Thread-safe.
  void submit_line(const std::string& line, ReplyFn reply);

  /// Synchronous round trip (submit_line + wait); used by tests.
  [[nodiscard]] std::string request(const std::string& line);

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// Tail-based capture snapshot: the K slowest and the K most recent
  /// errored requests with their rid, tenant, outcome, and span chain.
  /// Served by the `trace` verb and dumped by aa_serve --slow-trace-out
  /// at shutdown. Thread-safe.
  [[nodiscard]] support::JsonValue tail_json() const {
    return telemetry_.tail_json();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request request;
    ReplyFn reply;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< Clock::time_point::max() when none.
    /// Process-unique request id, assigned at parse time; carried on the
    /// reply as "rid" and stamped onto every trace span recorded while
    /// the request is being processed (obs::TraceRidScope).
    std::uint64_t rid = 0;
    /// Set when the line failed to parse: the request carries its error
    /// reply through the queue so delivery stays in request order.
    std::optional<support::JsonValue> error_reply;
  };

  /// Rendered-later reply: the JSON tree plus its destination.
  struct Outgoing {
    ReplyFn reply;
    support::JsonValue value;
  };

  /// One tenant shard: its own queue, turn lock, tenants, and sequencer.
  struct Shard {
    // Drain turn: one batch at a time per shard, in pop order. Held
    // across pop + tenant mutation + solve; rendering happens outside.
    // Guards `tenants` — cross-shard readers (stats/metrics/tenant_list)
    // and tenant churn take every shard's turn lock in ascending order
    // (AllShardsTurnLock + the all_turns_ phantom).
    // Lock order: root — taken before queue_mutex.
    support::Mutex turn_mutex;
    std::uint64_t next_batch_seq AA_GUARDED_BY(turn_mutex) = 0;
    // Ordered by tenant id: iteration feeds the fairness division and the
    // exposition, both of which must be deterministic. The map is guarded
    // by turn_mutex; the Tenant objects behind the unique_ptrs are too
    // (the analysis cannot see through the map — svc/tenant.hpp).
    std::map<std::string, std::unique_ptr<Tenant>, std::less<>> tenants
        AA_GUARDED_BY(turn_mutex);

    // Lock order: after this shard's turn_mutex (pop_batch pops under a
    // drain turn; submit_line takes it alone).
    support::Mutex queue_mutex AA_ACQUIRED_AFTER(turn_mutex);
    support::CondVar queue_cv;
    std::deque<Pending> queue AA_GUARDED_BY(queue_mutex);
    bool stopping AA_GUARDED_BY(queue_mutex) = false;

    // Ordered delivery of rendered batches.
    // Lock order: independent — held alone (replies drain outside every
    // other lock).
    support::Mutex deliver_mutex;
    support::CondVar deliver_cv;
    std::uint64_t delivered_seq AA_GUARDED_BY(deliver_mutex) = 0;
  };

  /// The tenant whose state a parsed request addresses (kDefaultTenant
  /// when it names none), routing it to that tenant's shard; empty for
  /// control ops and unparseable lines, which go to shard 0.
  [[nodiscard]] static std::string_view addressed_tenant(
      const Pending& pending) noexcept;

  void worker_loop(std::size_t shard_index);
  /// Non-blocking pop of the next batch (plus bounded linger). Caller
  /// holds the shard's turn lock and has already observed work; an empty
  /// result means a same-shard peer raced us to the queue.
  [[nodiscard]] std::vector<Pending> pop_batch(Shard& shard)
      AA_REQUIRES(shard.turn_mutex);
  /// Applies one batch to the shard's tenants and builds the reply trees.
  [[nodiscard]] std::vector<Outgoing> process_batch(
      Shard& shard, std::vector<Pending> batch)
      AA_REQUIRES(shard.turn_mutex);
  void deliver_in_order(Shard& shard, std::uint64_t seq,
                        std::vector<Outgoing> outgoing)
      AA_EXCLUDES(shard.deliver_mutex);

  /// Scoped "every shard's turn lock" acquisition: locks every shard's
  /// turn but shard 0's, ascending, and acquires the all_turns_ phantom
  /// that names the full set. Only constructed while the caller (the
  /// shard-0 worker) holds shard 0's turn lock, so the global lock order
  /// is strictly ascending and deadlock-free.
  class AA_SCOPED_CAPABILITY AllShardsTurnLock {
   public:
    explicit AllShardsTurnLock(Service& service)
        AA_ACQUIRE(service.all_turns_);
    ~AllShardsTurnLock() AA_RELEASE();

    AllShardsTurnLock(const AllShardsTurnLock&) = delete;
    AllShardsTurnLock& operator=(const AllShardsTurnLock&) = delete;

   private:
    Service& service_;
  };

  /// Re-introduces a dynamically-acquired turn lock to the analysis:
  /// inside a cross-shard loop running under all_turns_, each shard's
  /// turn really is held (by AllShardsTurnLock, or by the shard-0 worker
  /// for its own shard), but only as an element of the phantom set.
  void assert_turn_held([[maybe_unused]] const Shard& shard) const
      AA_ASSERT_CAPABILITY(shard.turn_mutex) {}

  [[nodiscard]] Tenant* find_tenant(std::string_view name)
      AA_REQUIRES(all_turns_);

  /// Re-divides the global pool across all tenants through the fairness
  /// policy and publishes the slices as per-tenant solve capacities.
  void redivide_pool_locked() AA_REQUIRES(all_turns_);

  /// Handles one tenant_* admin request.
  [[nodiscard]] support::JsonValue tenant_admin(const Request& request)
      AA_REQUIRES(all_turns_);
  /// Every tenant's row and the totals, copied under AllShardsTurnLock.
  /// Called by the shard-0 worker, which holds shard 0's turn.
  [[nodiscard]] ServiceSnapshot snapshot() AA_EXCLUDES(all_turns_);
  /// The members every reply of one coalesced solve shares; the
  /// assignment is a pre-serialised fragment (support/json.hpp).
  [[nodiscard]] support::JsonValue solve_payload(
      const ServiceSolveResult& solved, double solve_ms) const;

  ServiceConfig config_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Names the "every shard's turn lock" set, which the analysis cannot
  /// express over a dynamic shard vector. Really acquired/released by
  /// AllShardsTurnLock (and briefly by the single-threaded constructor).
  // Lock order: stands for the ascending turn-lock sweep — after shard
  // 0's turn_mutex.
  support::PhantomMutex all_turns_;
  /// Cross-tenant division policy; its credit books are only touched
  /// under all turn locks (tenant churn), never on the request fast path.
  std::unique_ptr<FairnessPolicy> policy_ AA_PT_GUARDED_BY(all_turns_);

  Telemetry telemetry_;

  std::atomic<bool> shutdown_requested_{false};
  std::unique_ptr<support::ThreadPool> pool_;
  std::vector<std::future<void>> workers_;
};

}  // namespace aa::svc
