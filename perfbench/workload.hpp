#pragma once

// Seeded request streams of the three benchmark workloads (README.md).
//
// A stream is a pure function of (workload, seed): the client sends the
// lines it yields and nothing else, so the same seed gives a byte-identical
// request stream. Thread ids are per tenant, start at 1 and are never
// reused by aa_serve, and every tenant's requests travel in order on one
// connection, so the generator predicts each add_thread reply's id and
// every closed-loop solve's thread set without reading a reply.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/prng.hpp"

namespace perfbench {

enum class Kind { kAdd, kUpdate, kRemove, kSolve, kScrape, kTenantAdmin };

[[nodiscard]] const char* kind_name(Kind kind) noexcept;

/// One request line plus what the validator expects of its reply.
struct Request {
  std::string line;  ///< JSON, no trailing newline.
  std::string tag;
  Kind kind = Kind::kSolve;
  std::size_t conn = 0;    ///< Connection index it must travel on.
  std::size_t tenant = 0;  ///< Tenant index (0 for single-tenant).
  std::uint64_t id = 0;    ///< add: predicted id; update/remove: target.
  /// Closed loop only: live ids of the tenant when a solve is answered
  /// (empty when replies may be coalesced and so are not predictable).
  std::shared_ptr<const std::vector<std::uint64_t>> live;
  double due_s = 0.0;  ///< Open loop: send time from phase start.
};

struct WorkloadConfig {
  std::string name;
  std::size_t servers = 8;
  long capacity = 1000;
  std::size_t tenants = 1;  ///< 1 = the built-in default tenant only.
  std::size_t threads_per_tenant = 256;
  std::size_t connections = 1;
  bool open_loop = false;
  double rate_rps = 0.0;  ///< Open loop offered rate.
  /// Solves answered in closed loop are predictable and digested.
  bool digest = false;
  /// aa_serve flags besides --socket. File arguments are relative to the
  /// run directory, which is the server's working directory.
  std::vector<std::string> server_flags;
  /// The server runs as operators run it (--metrics, --trace-out,
  /// --log-level info), so shutdown exports a session.
  bool instrumented = false;
};

/// drift | tenants | replan; throws std::invalid_argument otherwise.
[[nodiscard]] WorkloadConfig workload_config(const std::string& name);

/// Deterministic stream of one workload: setup() first, then next() for
/// the measured traffic (closed loop) or timeline() (open loop).
class Stream {
 public:
  Stream(WorkloadConfig config, std::uint64_t seed);

  [[nodiscard]] const WorkloadConfig& config() const noexcept {
    return config_;
  }

  /// The lines that load the seeded initial state, as phases the client
  /// completes one after another (a tenant must exist before its threads
  /// arrive, whatever connection carries them). The last phase is one
  /// solve per tenant: set-up ends when the first solve is answered.
  [[nodiscard]] std::vector<std::vector<Request>> setup();

  /// Next request of the closed-loop traffic.
  [[nodiscard]] Request next();

  /// Open-loop traffic for `seconds`, due times measured from the start
  /// of the phase. Calls next() for the regular requests and merges the
  /// periodic `metrics` scrapes and tenant_update redivides in.
  [[nodiscard]] std::vector<Request> timeline(double start_s, double seconds);

  /// Scrape request (metrics verb) on connection 0.
  [[nodiscard]] Request scrape();

 private:
  struct TenantState {
    std::string name;  ///< Empty for the default tenant.
    std::vector<std::uint64_t> live;
    std::uint64_t next_id = 1;
    std::size_t requests = 0;
  };

  [[nodiscard]] std::string fresh_tag();
  [[nodiscard]] std::string thread_spec(bool tabulated);
  [[nodiscard]] Request make(Kind kind, std::size_t tenant,
                             std::string body);
  [[nodiscard]] Request add(std::size_t tenant, bool tabulated);
  [[nodiscard]] Request update(std::size_t tenant, std::uint64_t id);
  [[nodiscard]] Request remove(std::size_t tenant);
  [[nodiscard]] Request solve(std::size_t tenant);
  [[nodiscard]] Request delta(std::size_t tenant);
  [[nodiscard]] Request tenant_update();
  [[nodiscard]] std::size_t pick_tenant();

  WorkloadConfig config_;
  aa::support::Rng rng_;
  std::vector<TenantState> tenants_;
  std::vector<double> zipf_cdf_;
  std::uint64_t tag_seq_ = 0;
  std::size_t sequence_ = 0;          ///< Closed-loop requests issued.
  std::vector<std::uint64_t> epoch_;  ///< replan: ids left this epoch.
  bool epoch_open_ = false;
};

}  // namespace perfbench
