#include "svc/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/sync.hpp"

namespace aa::svc {

namespace {

using support::JsonValue;

/// Request ids are process-unique (not per-Service) so rids stay unique in
/// tests and tools that run several services in one process.
std::atomic<std::uint64_t> g_next_rid{1};

/// Copies every member of `payload` onto `reply`.
void merge_into(JsonValue& reply, const JsonValue& payload) {
  for (const auto& [key, value] : payload.as_object()) {
    reply.set(key, value);
  }
}

JsonValue tenant_list_json(const ServiceSnapshot& snapshot,
                           const ServiceConfig& config) {
  JsonValue::Array tenants;
  for (const TenantRow& row : snapshot.tenants) {
    JsonValue entry;
    entry.set("tenant", row.name);
    entry.set("shard", shard_of(row.name, config.shards));
    entry.set("weight", row.quota.weight);
    entry.set("quota_units", row.quota.quota_units);
    entry.set("max_threads", row.quota.max_threads);
    entry.set("threads", row.threads);
    entry.set("slice_units", row.slice_units);
    entry.set("demand_units", row.demand_units);
    entry.set("solve_capacity", row.solve_capacity);
    entry.set("credits", row.credits);
    tenants.push_back(std::move(entry));
  }
  JsonValue payload;
  payload.set("policy", fairness_policy_name(config.fairness));
  payload.set("pool_units", pool_units(config));
  payload.set("tenants", JsonValue(std::move(tenants)));
  payload.set("tenant_count", snapshot.tenants.size());
  return payload;
}

}  // namespace

std::string_view Service::addressed_tenant(const Pending& pending) noexcept {
  if (pending.error_reply) return {};
  switch (pending.request.op) {
    case Op::kAddThread:
    case Op::kRemoveThread:
    case Op::kUpdateUtility:
    case Op::kSolve:
      return pending.request.tenant.empty()
                 ? kDefaultTenant
                 : std::string_view(pending.request.tenant);
    case Op::kStats:
    case Op::kMetrics:
    case Op::kTrace:
    case Op::kSlo:
    case Op::kShutdown:
    case Op::kTenantCreate:
    case Op::kTenantUpdate:
    case Op::kTenantDelete:
    case Op::kTenantList:
      return {};
  }
  return {};
}

double pool_units(const ServiceConfig& config) noexcept {
  return static_cast<double>(config.num_servers) *
         static_cast<double>(config.capacity);
}

Service::Service(ServiceConfig config) : config_(config), telemetry_(config_) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  if (config_.shards == 0) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  policy_ = FairnessPolicy::create(config_.fairness);

  // The default tenant exists from the start (single-tenant clients never
  // name a tenant) and owns the whole pool until others are created.
  // Single-threaded here (no workers yet), so the locks below are
  // uncontended; they are taken anyway to satisfy the declared contracts.
  const std::string name(kDefaultTenant);
  Shard& home = *shards_[shard_of(name, config_.shards)];
  const support::MutexLock home_turn(home.turn_mutex);
  home.tenants.emplace(
      name, std::make_unique<Tenant>(name, TenantQuota{},
                                     config_.num_servers, config_.capacity,
                                     config_.warm));
  all_turns_.acquire();
  policy_->on_tenant_created(name, config_.karma_opening_credits);
  redivide_pool_locked();
  all_turns_.release();
}

Service::~Service() { stop(); }

void Service::start() {
  if (pool_ != nullptr) return;
  // Every shard needs at least one pinned worker.
  const std::size_t total = std::max(config_.workers, config_.shards);
  pool_ = std::make_unique<support::ThreadPool>(total);
  workers_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t shard_index = i % config_.shards;
    workers_.push_back(
        pool_->submit([this, shard_index] { worker_loop(shard_index); }));
  }
}

void Service::stop() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    {
      const support::MutexLock lock(shard->queue_mutex);
      shard->stopping = true;
    }
    shard->queue_cv.notify_all();
  }
  for (std::future<void>& worker : workers_) worker.get();
  workers_.clear();
  pool_.reset();
  shutdown_requested_.store(true, std::memory_order_release);
}

bool Service::shutdown_requested() const noexcept {
  return shutdown_requested_.load(std::memory_order_acquire);
}

void Service::submit_line(const std::string& line, ReplyFn reply) {
  const Clock::time_point now = Clock::now();
  obs::count(obs::metric::kSvcRequests);

  Pending pending;
  pending.reply = std::move(reply);
  pending.enqueued = now;
  pending.deadline = Clock::time_point::max();
  pending.rid = g_next_rid.fetch_add(1, std::memory_order_relaxed);
  std::optional<Op> op;
  try {
    pending.request = parse_request(line, config_.capacity);
    op = pending.request.op;
    const double deadline_ms =
        pending.request.deadline_ms.value_or(config_.default_deadline_ms);
    if (deadline_ms > 0.0) {
      pending.deadline =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
    }
  } catch (const ProtocolError& error) {
    // Queued, not answered inline: the error reply must not overtake
    // replies to requests submitted before this line.
    obs::count(obs::metric::kSvcErrors);
    pending.error_reply = make_error_reply(error.code(), error.what());
  }

  // Tenant-scoped requests go to their tenant's shard; control requests
  // (and unparseable lines, which name no tenant) go to shard 0.
  const std::string_view tenant = addressed_tenant(pending);
  Shard& shard =
      *shards_[tenant.empty() ? 0 : shard_of(tenant, config_.shards)];

  // Decide under the queue lock; a rejected request is answered and
  // accounted only after it is released, so a stalled client's reply
  // callback cannot hold up the shard's producers or the workers.
  std::string_view reject;  // The error code when not queued.
  std::size_t depth = 0;
  {
    const support::MutexLock lock(shard.queue_mutex);
    if (shard.stopping || shutdown_requested()) {
      reject = error_code::kShuttingDown;
    } else if (shard.queue.size() >= config_.max_queue) {
      reject = error_code::kOverflow;
    } else {
      shard.queue.push_back(std::move(pending));
      depth = shard.queue.size();
    }
  }
  if (reject.empty()) {
    shard.queue_cv.notify_one();
    telemetry_.enqueued(op, depth);
    return;
  }

  JsonValue rejection =
      pending.error_reply
          ? std::move(*pending.error_reply)
          : make_error_reply(reject,
                             reject == error_code::kOverflow
                                 ? "request queue is full"
                                 : "service is shutting down",
                             op_name(pending.request.op), pending.request.tag);
  rejection.set("rid", static_cast<std::int64_t>(pending.rid));
  telemetry_.finish({.rid = pending.rid,
                     .tenant = tenant,
                     .enqueued = now,
                     .started = now,
                     .finished = now,
                     .shed = true},
                    rejection);
  pending.reply(rejection.dump());
}

std::string Service::request(const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = done->get_future();
  submit_line(line,
              [done](const std::string& text) { done->set_value(text); });
  return future.get();
}

std::vector<Service::Pending> Service::pop_batch(Shard& shard) {
  // Never blocks indefinitely: the caller already saw work (or stop) and
  // holds the shard's turn lock — an unbounded wait here would hold that
  // lock against cross-shard control ops (tenant churn, stats). A peer
  // worker may have raced us to the queue, in which case return empty.
  const support::MutexLock lock(shard.queue_mutex);
  if (shard.queue.empty()) return {};

  if (config_.batch_linger_ms > 0.0 &&
      shard.queue.size() < config_.batch_max) {
    const auto linger_until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               config_.batch_linger_ms));
    // Manual predicate loop (not a lambda) so the guarded reads stay in
    // this function's analysis context — support/sync.hpp.
    while (!shard.stopping && shard.queue.size() < config_.batch_max) {
      if (shard.queue_cv.wait_until(shard.queue_mutex, linger_until) ==
          std::cv_status::timeout) {
        break;
      }
    }
  }

  std::vector<Pending> batch;
  const std::size_t take = std::min(shard.queue.size(), config_.batch_max);
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(shard.queue.front()));
    shard.queue.pop_front();
  }
  return batch;
}

void Service::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    // Wait for work WITHOUT the turn lock: an idle shard's turn must stay
    // available to the shard-0 worker's cross-shard ops (AllShardsTurnLock
    // would otherwise deadlock against a parked worker).
    {
      const support::MutexLock lock(shard.queue_mutex);
      while (!shard.stopping && shard.queue.empty()) {
        shard.queue_cv.wait(shard.queue_mutex);
      }
      if (shard.queue.empty()) return;  // Stopping and drained.
    }
    std::vector<Pending> batch;
    std::vector<Outgoing> outgoing;
    std::uint64_t seq = 0;
    {
      const support::MutexLock turn(shard.turn_mutex);
      batch = pop_batch(shard);
      if (batch.empty()) continue;  // A peer on this shard raced us to it.
      seq = shard.next_batch_seq++;
      outgoing = process_batch(shard, std::move(batch));
    }
    deliver_in_order(shard, seq, std::move(outgoing));
  }
}

void Service::deliver_in_order(Shard& shard, std::uint64_t seq,
                               std::vector<Outgoing> outgoing) {
  // Render outside both the turn and the delivery lock: serialization of
  // batch k overlaps the processing of batch k+1.
  std::vector<std::pair<ReplyFn, std::string>> rendered;
  rendered.reserve(outgoing.size());
  for (Outgoing& out : outgoing) {
    rendered.emplace_back(std::move(out.reply), out.value.dump());
  }

  support::MutexLock lock(shard.deliver_mutex);
  while (shard.delivered_seq != seq) shard.deliver_cv.wait(shard.deliver_mutex);
  for (auto& [reply, text] : rendered) {
    try {
      reply(text);
    } catch (...) {
      // A dead connection must not take the service down.
      obs::count(obs::metric::kSvcReplyFailures);
    }
  }
  shard.delivered_seq = seq + 1;
  lock.unlock();
  shard.deliver_cv.notify_all();
}

// The constituent turn locks live behind a dynamic vector the analysis
// cannot enumerate, so the bodies are unanalyzed; the attributes on the
// declarations (acquire/release of the all_turns_ phantom) carry the
// contract to callers.
Service::AllShardsTurnLock::AllShardsTurnLock(Service& service)
    AA_NO_THREAD_SAFETY_ANALYSIS : service_(service) {
  for (std::size_t i = 1; i < service_.shards_.size(); ++i) {
    service_.shards_[i]->turn_mutex.lock();
  }
  service_.all_turns_.acquire();
}

Service::AllShardsTurnLock::~AllShardsTurnLock()
    AA_NO_THREAD_SAFETY_ANALYSIS {
  service_.all_turns_.release();
  // Descending, mirroring acquisition.
  for (std::size_t i = service_.shards_.size(); i-- > 1;) {
    service_.shards_[i]->turn_mutex.unlock();
  }
}

Tenant* Service::find_tenant(std::string_view name) {
  Shard& shard = *shards_[shard_of(name, config_.shards)];
  assert_turn_held(shard);
  const auto it = shard.tenants.find(name);
  return it == shard.tenants.end() ? nullptr : it->second.get();
}

void Service::redivide_pool_locked() {
  std::vector<TenantDemand> demands;
  std::vector<Tenant*> order;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    assert_turn_held(shard);
    for (const auto& [name, tenant] : shard.tenants) {
      TenantDemand demand;
      demand.id = name;
      demand.weight = tenant->quota.weight;
      demand.quota = tenant->quota.quota_units;
      demand.demand =
          tenant_demand_units(tenant->state, config_.warm.super_optimal);
      demands.push_back(std::move(demand));
      order.push_back(tenant.get());
    }
  }
  const std::vector<double> slices =
      policy_->divide(pool_units(config_), demands);
  for (std::size_t i = 0; i < order.size(); ++i) {
    Tenant& tenant = *order[i];
    tenant.slice_units = slices[i];
    tenant.demand_units = demands[i].demand;
    const auto per_server = static_cast<util::Resource>(
        std::floor(slices[i] / static_cast<double>(config_.num_servers)));
    tenant.state.set_solve_capacity(std::max<util::Resource>(1, per_server));
  }
  telemetry_.redivided();
}

JsonValue Service::tenant_admin(const Request& request) {
  const std::string name = request.tenant;
  Shard& home = *shards_[shard_of(name, config_.shards)];
  assert_turn_held(home);
  switch (request.op) {
    case Op::kTenantCreate: {
      if (home.tenants.find(name) != home.tenants.end()) {
        return make_error_reply(error_code::kTenantExists,
                                "tenant '" + name + "' already exists",
                                op_name(request.op), request.tag);
      }
      TenantQuota quota;
      quota.weight = request.weight.value_or(1.0);
      quota.quota_units = request.quota.value_or(0.0);
      quota.max_threads = request.max_threads.value_or(0);
      auto tenant = std::make_unique<Tenant>(name, quota,
                                             config_.num_servers,
                                             config_.capacity, config_.warm);
      Tenant* created = tenant.get();
      home.tenants.emplace(name, std::move(tenant));
      policy_->on_tenant_created(
          name, request.credits.value_or(config_.karma_opening_credits));
      telemetry_.tenant_changed(request.op);
      redivide_pool_locked();
      JsonValue reply = make_ok_reply(request.op, request.tag);
      reply.set("tenant", name);
      reply.set("shard", shard_of(name, config_.shards));
      reply.set("weight", created->quota.weight);
      reply.set("quota_units", created->quota.quota_units);
      reply.set("max_threads", created->quota.max_threads);
      reply.set("slice_units", created->slice_units);
      return reply;
    }
    case Op::kTenantUpdate: {
      Tenant* tenant = find_tenant(name);
      if (tenant == nullptr) {
        return make_error_reply(error_code::kTenantNotFound,
                                "no tenant '" + name + "'",
                                op_name(request.op), request.tag);
      }
      if (request.weight) tenant->quota.weight = *request.weight;
      if (request.quota) tenant->quota.quota_units = *request.quota;
      if (request.max_threads) tenant->quota.max_threads = *request.max_threads;
      telemetry_.tenant_changed(request.op);
      redivide_pool_locked();
      JsonValue reply = make_ok_reply(request.op, request.tag);
      reply.set("tenant", name);
      reply.set("weight", tenant->quota.weight);
      reply.set("quota_units", tenant->quota.quota_units);
      reply.set("max_threads", tenant->quota.max_threads);
      reply.set("slice_units", tenant->slice_units);
      return reply;
    }
    case Op::kTenantDelete: {
      if (name == kDefaultTenant) {
        return make_error_reply(error_code::kBadTenant,
                                "the default tenant cannot be deleted",
                                op_name(request.op), request.tag);
      }
      const auto it = home.tenants.find(name);
      if (it == home.tenants.end()) {
        return make_error_reply(error_code::kTenantNotFound,
                                "no tenant '" + name + "'",
                                op_name(request.op), request.tag);
      }
      const std::size_t threads_removed = it->second->state.num_threads();
      home.tenants.erase(it);
      policy_->on_tenant_deleted(name);
      telemetry_.tenant_changed(request.op);
      redivide_pool_locked();
      JsonValue reply = make_ok_reply(request.op, request.tag);
      reply.set("tenant", name);
      reply.set("threads_removed", threads_removed);
      return reply;
    }
    default:
      return make_error_reply(error_code::kInternal,
                              "not a tenant admin op",
                              op_name(request.op), request.tag);
  }
}

ServiceSnapshot Service::snapshot() {
  const AllShardsTurnLock guards(*this);
  ServiceSnapshot snapshot;
  const Clock::time_point now = Clock::now();
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    assert_turn_held(shard);
    for (const auto& [name, tenant] : shard.tenants) {
      TenantRow row = telemetry_.tenant_row(*tenant, now);
      row.credits = policy_->credits(name);
      snapshot.threads += row.threads;
      snapshot.version += tenant->state.version();
      snapshot.tenants.push_back(std::move(row));
    }
    const support::MutexLock lock(shard.queue_mutex);
    snapshot.queue_depth += shard.queue.size();
  }
  return snapshot;
}

std::vector<Service::Outgoing> Service::process_batch(
    Shard& shard, std::vector<Pending> batch) {
  const obs::ScopedPhase phase(obs::metric::kPhaseSvcBatch);
  telemetry_.batch(batch.size());

  std::vector<Outgoing> out;
  out.reserve(batch.size());
  /// Per-tenant deferred solves: every solve in the batch for one tenant
  /// shares one re-solve of that tenant's final state.
  struct SolveGroup {
    std::vector<std::size_t> slots;
    bool force_full = false;
  };
  std::map<std::string, SolveGroup, std::less<>> solve_groups;

  const Clock::time_point started = Clock::now();
  for (Pending& pending : batch) {
    const Request& request = pending.request;
    // Every span recorded while this request is handled (queue wait, any
    // in-switch work) carries its rid.
    const obs::TraceRidScope rid_scope(pending.rid);
    obs::span_ending_now(obs::metric::kEventSvcQueueWait,
                         ms_between(pending.enqueued, started));
    const auto error = [&request](std::string_view code,
                                  const std::string& message) {
      return make_error_reply(code, message, op_name(request.op),
                              request.tag);
    };
    JsonValue reply;
    try {
      if (pending.error_reply) {
        reply = std::move(*pending.error_reply);
      } else if (shutdown_requested()) {
        reply = error(error_code::kShuttingDown, "service is shutting down");
      } else if (started > pending.deadline) {
        reply = error(error_code::kTimeout,
                      "deadline expired before processing");
      } else if (const std::string_view name = addressed_tenant(pending);
                 !name.empty()) {
        const auto it = shard.tenants.find(name);
        Tenant* tenant =
            it == shard.tenants.end() ? nullptr : it->second.get();
        if (tenant == nullptr) {
          reply = error(error_code::kTenantNotFound,
                        "no tenant '" + std::string(name) + "'");
        } else {
          switch (request.op) {
            case Op::kAddThread: {
              if (tenant->quota.max_threads > 0 &&
                  static_cast<std::int64_t>(tenant->state.num_threads()) >=
                      tenant->quota.max_threads) {
                reply = error(error_code::kQuotaExceeded,
                              "tenant '" + std::string(name) + "' is at its " +
                                  std::to_string(tenant->quota.max_threads) +
                                  "-thread quota");
                break;
              }
              const ThreadId id = tenant->state.add_thread(request.utility);
              reply = make_ok_reply(request.op, request.tag);
              reply.set("id", id);
              reply.set("threads", tenant->state.num_threads());
              if (!request.tenant.empty()) {
                reply.set("tenant", request.tenant);
              }
              break;
            }
            case Op::kRemoveThread: {
              if (tenant->state.remove_thread(*request.id)) {
                reply = make_ok_reply(request.op, request.tag);
                reply.set("id", *request.id);
                reply.set("threads", tenant->state.num_threads());
                if (!request.tenant.empty()) {
                  reply.set("tenant", request.tenant);
                }
              } else {
                reply = error(error_code::kNotFound,
                              "no thread with id " +
                                  std::to_string(*request.id));
              }
              break;
            }
            case Op::kUpdateUtility: {
              const bool found =
                  request.utility != nullptr
                      ? tenant->state.update_utility(*request.id,
                                                     request.utility)
                      : tenant->state.scale_utility(*request.id,
                                                    *request.factor);
              if (found) {
                reply = make_ok_reply(request.op, request.tag);
                reply.set("id", *request.id);
                if (!request.tenant.empty()) {
                  reply.set("tenant", request.tenant);
                }
              } else {
                reply = error(error_code::kNotFound,
                              "no thread with id " +
                                  std::to_string(*request.id));
              }
              break;
            }
            case Op::kSolve: {
              // Deferred: all solves for this tenant in the batch share
              // one re-solve of its final state below.
              SolveGroup& group = solve_groups[std::string(name)];
              group.slots.push_back(out.size());
              group.force_full = group.force_full || request.full_solve;
              break;
            }
            default:
              break;
          }
        }
      } else {
        switch (request.op) {
          case Op::kStats:
          case Op::kMetrics:
          case Op::kSlo:
          case Op::kTenantList: {
            // Rendered after the snapshot released the other turn locks.
            const ServiceSnapshot rows = snapshot();
            reply = make_ok_reply(request.op, request.tag);
            if (request.op == Op::kMetrics) {
              reply.set("content_type", "text/plain; version=0.0.4");
              reply.set("body", telemetry_.metrics_text(rows));
            } else if (request.op == Op::kStats) {
              merge_into(reply, telemetry_.stats_json(rows));
            } else if (request.op == Op::kSlo) {
              merge_into(reply, telemetry_.slo_json(rows));
            } else {
              merge_into(reply, tenant_list_json(rows, config_));
            }
            break;
          }
          case Op::kTrace: {
            reply = make_ok_reply(request.op, request.tag);
            merge_into(reply, telemetry_.tail_json());
            break;
          }
          case Op::kShutdown: {
            shutdown_requested_.store(true, std::memory_order_release);
            for (const std::unique_ptr<Shard>& other : shards_) {
              {
                const support::MutexLock lock(other->queue_mutex);
                other->stopping = true;
              }
              other->queue_cv.notify_all();
            }
            obs::count(obs::metric::kSvcShutdowns);
            reply = make_ok_reply(request.op, request.tag);
            break;
          }
          case Op::kTenantCreate:
          case Op::kTenantUpdate:
          case Op::kTenantDelete: {
            const AllShardsTurnLock guards(*this);
            reply = tenant_admin(request);
            break;
          }
          default:
            break;
        }
      }
    } catch (const std::exception& failure) {
      reply = error(error_code::kInternal, failure.what());
      obs::count(obs::metric::kSvcInternalErrors);
    }
    out.push_back(Outgoing{pending.reply, std::move(reply)});
  }

  /// Answers every solve in `slots` with the same error.
  const auto fail_solves = [&out, &batch](
                               const std::vector<std::size_t>& slots,
                               std::string_view code,
                               const std::string& message) {
    for (const std::size_t slot : slots) {
      out[slot].value = make_error_reply(code, message, op_name(Op::kSolve),
                                         batch[slot].request.tag);
    }
  };
  for (auto& [name, group] : solve_groups) {
    const auto it = shard.tenants.find(name);
    Tenant* tenant = it == shard.tenants.end() ? nullptr : it->second.get();
    if (tenant == nullptr) {
      // Deleted by an admin op later in this very batch.
      fail_solves(group.slots, error_code::kTenantNotFound,
                  "no tenant '" + name + "'");
      continue;
    }
    // The coalesced solve serves every slot in the group; its solver
    // phase spans and path instants are stamped with the first slot's rid
    // (the request whose arrival triggered the work).
    const obs::TraceRidScope rid_scope(batch[group.slots.front()].rid);
    try {
      const Clock::time_point solve_start = Clock::now();
      ServiceSolveResult solved =
          tenant->solver.solve(tenant->state, group.force_full);
      const double solve_ms = ms_between(solve_start, Clock::now());
      ++tenant->counters.solves_by_path[static_cast<std::size_t>(solved.path)];
      telemetry_.solved(solved.path, group.slots.size(), solved.migrations,
                        solved.certificate.ok(), solve_ms);
      const obs::ScopedPhase render(obs::metric::kPhaseSvcRender);
      const JsonValue payload = solve_payload(solved, solve_ms);
      for (const std::size_t slot : group.slots) {
        JsonValue reply = make_ok_reply(Op::kSolve, batch[slot].request.tag);
        merge_into(reply, payload);
        if (!batch[slot].request.tenant.empty()) {
          reply.set("tenant", batch[slot].request.tenant);
        }
        out[slot].value = std::move(reply);
      }
    } catch (const std::exception& error) {
      obs::count(obs::metric::kSvcInternalErrors);
      fail_solves(group.slots, error_code::kInternal, error.what());
    }
  }

  // The single accounting point: every request in the batch is booked
  // once, globally and — when it addressed a live tenant — on the tenant.
  const Clock::time_point finished = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& pending = batch[i];
    out[i].value.set("rid", static_cast<std::int64_t>(pending.rid));
    const std::string_view tenant = addressed_tenant(pending);
    const auto it = shard.tenants.find(tenant);
    telemetry_.finish(
        {.rid = pending.rid,
         .tenant = tenant,
         .booked = it == shard.tenants.end() ? nullptr : it->second.get(),
         .enqueued = pending.enqueued,
         .started = started,
         .finished = finished},
        out[i].value);
  }
  return out;
}

JsonValue Service::solve_payload(const ServiceSolveResult& solved,
                                 double solve_ms) const {
  const obs::Certificate& certificate = solved.certificate;
  JsonValue payload;
  payload.set("path", solve_path_name(solved.path));
  payload.set("threads", solved.ids.size());
  payload.set("utility", solved.result.utility);
  payload.set("super_optimal_utility", solved.result.super_optimal_utility);
  payload.set("linearized_utility", solved.result.linearized_utility);
  payload.set("alpha", certificate.input.alpha);
  payload.set("achieved_ratio", certificate.achieved_ratio);
  payload.set("certificate_ok", certificate.ok());
  if (!certificate.ok()) {
    JsonValue::Array violations;
    for (const std::string& violation : certificate.violations) {
      violations.emplace_back(violation);
    }
    payload.set("violations", JsonValue(std::move(violations)));
  }
  payload.set("migrations", solved.migrations);
  payload.set("solve_ms", solve_ms);
  // The placement is most of the reply (~33 bytes per thread): written as
  // text once here and shared, not copied, by every slot's reply tree.
  const core::Assignment& placed = solved.result.assignment;
  std::string assignment;
  assignment.reserve(2 + 40 * solved.ids.size());
  assignment += '[';
  for (std::size_t i = 0; i < solved.ids.size(); ++i) {
    assignment += i == 0 ? "{\"id\":" : ",{\"id\":";
    support::append_json_number(static_cast<double>(solved.ids[i]),
                                assignment);
    assignment += ",\"server\":";
    support::append_json_number(static_cast<double>(placed.server[i]),
                                assignment);
    assignment += ",\"alloc\":";
    support::append_json_number(placed.alloc[i], assignment);
    assignment += '}';
  }
  assignment += ']';
  payload.set("assignment", JsonValue::fragment(std::move(assignment)));
  return payload;
}

}  // namespace aa::svc
