// perfbench — end-to-end benchmark of aa_serve (README.md).
//
//   perfbench --server BIN --workdir DIR --workload drift|tenants|replan
//                    --seed N --seconds S --trace 0|1
//   perfbench --emit-stream N --workload W --seed N
//   perfbench --list-metrics 1
//
// Sizing the open-loop rate (README.md), not part of the benchmark's runs:
// --probe-capacity S measures the closed-loop capacity over S seconds (one
// client per connection) instead of running the benchmark.
//
// Spawns the Release aa_serve, loads the seeded initial state over its
// Unix socket (several times: set-up time is a median), drives the
// workload for S seconds with tracing off, validates every reply, and
// prints the end-to-end metrics. With --trace 1 it instead measures the
// layers: the same stream runs once untraced (the ledger's medians) and
// once with client spans, is replayed in-process through the layer
// functions, and the per-layer ledger is printed and the span dump written
// to DIR/trace-<workload>-<seed>.json. The last stdout line is the JSON
// result; diagnostics go to stderr.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "support/args.hpp"
#include "support/json.hpp"
#include "validate.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 5;           // set-up time is their median
/// The measured phase is cut into this many equal windows, and its
/// figures are taken over the quieter half of them (by steal share), so
/// the hypervisor serving another guest moves them little.
constexpr int kWindows = 10;
constexpr int kQuietWindows = 5;
constexpr double kWarmupS = 1.0;        // untimed traffic before measuring
constexpr int kIdleScrapes = 100;       // drift/replan scrape_p50_ms
constexpr double kMaxSchedLagMs = 10.0;  // open loop: generator kept up
constexpr unsigned kWatchdogS = 170;    // hard stop below the 180 s limit
constexpr std::size_t kSamplesPerKind = 400;
/// Solve replies digested, counted from the start of the stream.
constexpr std::size_t kDigestSolves = 64;
/// Trace mode bounds its phases so the whole run stays well inside the
/// time limit: the untraced phase (the ledger's medians), the traced phase
/// and each replay pass.
constexpr double kTraceUntracedS = 10.0;
constexpr double kTracePassS = 5.0;

volatile pid_t g_server_pid = -1;

/// SIGALRM (the watchdog), SIGTERM and SIGINT: the server must not
/// outlive the benchmark.
void on_stop_signal(int) {
  if (g_server_pid > 0) ::kill(g_server_pid, SIGKILL);
  static const char kMsg[] = "perfbench: stopped by a signal\n";
  (void)!::write(STDERR_FILENO, kMsg, sizeof kMsg - 1);
  ::_exit(3);
}

struct Options {
  std::string server;
  std::string workdir;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double probe_s = 0.0;   ///< > 0: measure closed-loop capacity instead.
};

/// One completed request of a measured phase.
struct Timed {
  double at_s;  ///< Send (open loop: due) time from the phase start.
  double ms;    ///< Round trip (open loop: from the due time).
  Kind kind;
};

/// What one measured phase saw.
struct Tally {
  std::vector<Timed> timed;
  std::vector<double> req_ms;
  std::vector<double> solve_ms;
  std::vector<double> scrape_ms;
  std::vector<double> lag_ms;
  std::vector<double> ratios;
  std::vector<double> migrations;
  std::map<Kind, std::vector<Sample>> samples;
  Clock::time_point start;
  double wall_s = 0.0;    ///< Phase length.
  double active_s = 0.0;  ///< Open loop: until the last reply.
  std::size_t completed = 0;
  /// Steal share of each window, from a StealSampler.
  std::vector<double> window_steal;
};

struct Live {
  std::unique_ptr<Server> server;
  std::vector<Conn> conns;
};

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      hash ^= static_cast<unsigned char>(buf[i]);
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Samples the machine's `steal` time (/proc/stat: CPU time the
/// hypervisor gave to someone else) every few milliseconds, so the share
/// stolen during any interval of the run can be read afterwards.
class StealSampler {
 public:
  StealSampler() : thread_([this] { loop(); }) {}
  ~StealSampler() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Stolen share of all CPU time between two moments (0 when unknown).
  [[nodiscard]] double share(Clock::time_point from,
                             Clock::time_point to) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Sample* a = nullptr;
    const Sample* b = nullptr;
    for (const Sample& sample : samples_) {
      if (sample.at <= from) a = &sample;
      if (b == nullptr && sample.at >= to) b = &sample;
    }
    if (a == nullptr || b == nullptr || b->total <= a->total) return 0.0;
    return (b->steal - a->steal) / (b->total - a->total);
  }

 private:
  struct Sample {
    Clock::time_point at;
    double steal = 0.0;
    double total = 0.0;
  };

  static Sample read() {
    Sample out{Clock::now()};
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    for (int field = 0; field < 8; ++field) {  // guest time is in user
      double ticks = 0.0;
      if (!(stat >> ticks)) break;
      out.total += ticks;
      if (field == 7) out.steal = ticks;
    }
    return out;
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      const Sample sample = read();
      lock.lock();
      samples_.push_back(sample);
      wake_.wait_for(lock, std::chrono::milliseconds(20));
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Sample> samples_;
  bool stop_ = false;
  std::thread thread_;
};

/// A figure of the measured phase over its kQuietWindows quietest windows
/// (by steal share; ties keep the earlier window). With q >= 0 it is the
/// q-quantile of those windows' round trips (of one kind, when given);
/// with q < 0 their requests completed per second of round-trip time.
double quiet(const Tally& tally, std::optional<Kind> kind, double q) {
  std::vector<int> order(kWindows);
  for (int w = 0; w < kWindows; ++w) order[static_cast<std::size_t>(w)] = w;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return tally.window_steal[static_cast<std::size_t>(a)] <
           tally.window_steal[static_cast<std::size_t>(b)];
  });
  std::vector<bool> kept(kWindows, false);
  for (int i = 0; i < kQuietWindows; ++i) {
    kept[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = true;
  }
  const double width = tally.wall_s / kWindows;
  std::vector<double> ms;
  for (const Timed& entry : tally.timed) {
    if (kind.has_value() && entry.kind != *kind) continue;
    const auto w = static_cast<std::size_t>(
        std::clamp(static_cast<int>(entry.at_s / width), 0, kWindows - 1));
    if (kept[w]) ms.push_back(entry.ms);
  }
  if (q >= 0.0) return quantile(ms, q);
  double busy_ms = 0.0;
  for (const double one : ms) busy_ms += one;
  return busy_ms > 0.0 ? static_cast<double>(ms.size()) * 1000.0 / busy_ms
                       : 0.0;
}

/// Request kinds among the requests around the median round trip (40th to
/// 60th percentile): the mix whose layers make up req_p50_ms.
std::map<Kind, double> median_mix(const Tally& tally) {
  const double lo = quantile(tally.req_ms, 0.4);
  const double hi = quantile(tally.req_ms, 0.6);
  std::map<Kind, double> mix;
  double total = 0.0;
  for (const Timed& entry : tally.timed) {
    if (entry.ms < lo || entry.ms > hi) continue;
    mix[entry.kind] += 1.0;
    total += 1.0;
  }
  for (auto& [kind, share] : mix) share /= total;
  return mix;
}

class Bench {
 public:
  explicit Bench(Options options)
      : options_(std::move(options)),
        config_(workload_config(options_.workload)),
        stream_(config_, options_.seed),
        validator_(config_.capacity) {}

  int run();

 private:
  double setup_once(Live& live, int index);
  void closed_phase(Live& live, double seconds, Tally* tally,
                    SpanLog* spans);
  void open_phase(Live& live, double seconds, Tally* tally, SpanLog* spans);
  void measured_phase(Live& live, double seconds, Tally& tally,
                      SpanLog* spans);
  void check(const Request& request, const std::string& reply,
             Tally* tally);
  void record(const Request& request, double at_s, double start_ms,
              double ms, const std::string& reply, Tally* tally,
              SpanLog* spans);
  void finish(Live& live, Tally& tally);
  [[nodiscard]] double probe_capacity(Live& live, double seconds);
  [[nodiscard]] bool digest_repeats();

  Options options_;
  WorkloadConfig config_;
  Stream stream_;
  Validator validator_;
  std::vector<std::vector<Request>> setup_;
  std::size_t attempted_ = 0;
  Digest digest_;
  std::vector<double> first_setup_utilities_;
  bool setups_agree_ = true;
  Values values_;
  Clock::time_point origin_ = Clock::now();
  std::unique_ptr<StealSampler> steal_;
};

double Bench::setup_once(Live& live, int index) {
  const std::string run_dir = options_.workdir + "/run-" + config_.name +
                              "-" + std::to_string(::getpid()) + "-" +
                              std::to_string(index);
  const Clock::time_point start = Clock::now();
  live.server = std::make_unique<Server>(options_.server, run_dir,
                                         config_.server_flags);
  g_server_pid = live.server->pid();
  live.conns.clear();
  for (std::size_t c = 0; c < config_.connections; ++c) {
    live.conns.emplace_back(live.server->connect(30.0));
  }
  std::vector<std::vector<Exchange>> results;
  for (const std::vector<Request>& phase : setup_) {
    results.push_back(drive(live.conns, phase, false, Clock::now(), 120.0));
  }
  const double elapsed = seconds_between(start, Clock::now());

  std::vector<double> utilities;
  for (std::size_t p = 0; p < setup_.size(); ++p) {
    for (std::size_t i = 0; i < setup_[p].size(); ++i) {
      ++attempted_;
      SolveReply solve;
      if (validator_.record(setup_[p][i], results[p][i].reply, &solve) &&
          setup_[p][i].kind == Kind::kSolve) {
        utilities.push_back(solve.utility);
      }
    }
  }
  if (index == 0) {
    first_setup_utilities_ = utilities;
    if (config_.digest) {
      for (const double u : utilities) digest_.add(u);
    }
  } else if (utilities != first_setup_utilities_) {
    setups_agree_ = false;
  }
  return elapsed;
}

void Bench::check(const Request& request, const std::string& reply,
                  Tally* tally) {
  ++attempted_;
  SolveReply solve;
  if (!validator_.record(request, reply, &solve)) return;
  if (request.kind != Kind::kSolve) return;
  if (config_.digest && digest_.count() < kDigestSolves + 1) {
    digest_.add(solve.utility);
  }
  if (tally == nullptr) return;
  tally->ratios.push_back(solve.achieved_ratio);
  if (solve.path != "cached") tally->migrations.push_back(solve.migrations);
}

void Bench::record(const Request& request, double at_s, double start_ms,
                   double ms, const std::string& reply, Tally* tally,
                   SpanLog* spans) {
  if (spans != nullptr) {
    spans->add(std::string("client ") + kind_name(request.kind), 1,
               start_ms * 1000.0, ms * 1000.0, request.tag);
  }
  if (tally == nullptr) return;
  ++tally->completed;
  tally->timed.push_back({at_s, ms, request.kind});
  tally->req_ms.push_back(ms);
  if (request.kind == Kind::kSolve) tally->solve_ms.push_back(ms);
  if (request.kind == Kind::kScrape) tally->scrape_ms.push_back(ms);
  std::vector<Sample>& kept = tally->samples[request.kind];
  if (kept.size() < kSamplesPerKind) {
    kept.push_back({request.kind, request.line, reply});
  }
}

void Bench::closed_phase(Live& live, double seconds, Tally* tally,
                         SpanLog* spans) {
  // Closed loop: the next request leaves when the reply arrived.
  // Validation in between is the client's own work, outside every round
  // trip.
  const Clock::time_point start = Clock::now();
  if (tally != nullptr) tally->start = start;
  while (seconds_between(start, Clock::now()) < seconds) {
    const Request request = stream_.next();
    const Clock::time_point sent = Clock::now();
    const std::string reply = round_trip(live.conns[request.conn],
                                         request.line);
    const double rtt = seconds_between(sent, Clock::now());
    record(request, seconds_between(start, sent),
           seconds_between(origin_, sent) * 1000.0, rtt * 1000.0, reply,
           tally, spans);
    check(request, reply, tally);
  }
  if (tally != nullptr) tally->wall_s = seconds_between(start, Clock::now());
}

void Bench::open_phase(Live& live, double seconds, Tally* tally,
                       SpanLog* spans) {
  // Open loop: requests leave at their due times whatever the replies do,
  // and each is timed from its due time.
  const std::vector<Request> requests = stream_.timeline(0.0, seconds);
  const Clock::time_point start = Clock::now();
  if (tally != nullptr) tally->start = start;
  const std::vector<Exchange> exchanges =
      drive(live.conns, requests, true, start, 30.0);
  const double offset_ms = seconds_between(origin_, start) * 1000.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Exchange& exchange = exchanges[i];
    if (exchange.done_s >= 0.0) {
      record(requests[i], exchange.due_s, offset_ms + exchange.due_s * 1000.0,
             (exchange.done_s - exchange.due_s) * 1000.0, exchange.reply,
             tally, spans);
      if (tally != nullptr) {
        tally->lag_ms.push_back((exchange.sent_s - exchange.due_s) * 1000.0);
      }
    }
    check(requests[i], exchange.reply, tally);
  }
  if (tally != nullptr) {
    // Offered for `seconds`; done when the last reply arrived.
    tally->wall_s = seconds;
    tally->active_s = seconds;
    for (const Exchange& exchange : exchanges) {
      tally->active_s = std::max(tally->active_s, exchange.done_s);
    }
  }
}

void Bench::measured_phase(Live& live, double seconds, Tally& tally,
                           SpanLog* spans) {
  const auto steal_per_window = [&] {
    const double width = tally.wall_s / kWindows;
    for (int w = 0; w < kWindows; ++w) {
      const auto at = [&](double s) {
        return tally.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(s));
      };
      tally.window_steal.push_back(
          steal_->share(at(w * width), at((w + 1) * width)));
    }
  };
  if (!config_.open_loop) {
    closed_phase(live, seconds, &tally, spans);
    steal_per_window();
    return;
  }
  // A generator that fell behind its schedule measures itself, not the
  // server: such a phase is discarded and run once more, and a second
  // miss makes the run invalid.
  for (int attempt = 0; attempt < 2; ++attempt) {
    tally = Tally{};
    open_phase(live, seconds, &tally, spans);
    const double lag = quantile(tally.lag_ms, 0.99);
    if (lag <= kMaxSchedLagMs) {
      steal_per_window();
      return;
    }
    std::cerr << "perfbench: generator fell behind (sched_lag_p99_ms="
              << lag << ")\n";
  }
  throw std::runtime_error(
      "run invalid: the open-loop generator could not keep its schedule");
}

void Bench::finish(Live& live, Tally& tally) {
  if (!config_.open_loop) {
    // Closed-loop workloads scrape an idle server after measuring.
    for (int i = 0; i < kIdleScrapes; ++i) {
      const Request request = stream_.scrape();
      const Clock::time_point sent = Clock::now();
      const std::string reply = round_trip(live.conns[0], request.line);
      tally.scrape_ms.push_back(seconds_between(sent, Clock::now()) * 1000.0);
      check(request, reply, nullptr);
    }
  }
  const aa::support::JsonValue stats = aa::support::json_parse(
      round_trip(live.conns[0], "{\"op\":\"stats\",\"tag\":\"stats\"}"));
  values_["svc.batches"] = stats.at("batches").as_number();
  values_["svc.batch_size_mean"] =
      stats.at("batching").at("mean_size").as_number();
  values_["svc.queue_peak"] = stats.at("queue_peak").as_number();
  values_["svc.solves_coalesced"] =
      stats.at("solves").at("coalesced").as_number();
  values_["svc.server_request_p50_ms"] =
      stats.at("request_latency").at("p50_ms").as_number();
  values_["peak_rss_mb"] = live.server->peak_rss_mb();

  const std::string bye =
      round_trip(live.conns[0], "{\"op\":\"shutdown\",\"tag\":\"bye\"}");
  if (bye.find("\"ok\":true") == std::string::npos) {
    throw std::runtime_error("shutdown refused: " + bye);
  }
  const Clock::time_point asked = Clock::now();
  live.conns.clear();
  live.server->wait_exit(60.0);
  values_["obs.export_s"] = seconds_between(asked, Clock::now());
  g_server_pid = -1;
  std::filesystem::remove_all(live.server->run_dir());
}

bool Bench::digest_repeats() {
  // Runs of one seed against one aa_serve binary must answer the same
  // solve utilities; the first run of a (seed, solve count, binary)
  // triple records them. Short runs digest fewer solves.
  const std::string dir = options_.workdir + "/digests";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + config_.name + "-" +
                           std::to_string(options_.seed) + "-" +
                           std::to_string(digest_.count()) + "-" +
                           hex(file_hash(options_.server)) + ".txt";
  const std::string mine = hex(digest_.value());
  std::ifstream in(path);
  std::string seen;
  if (std::getline(in, seen)) {
    if (seen != mine) {
      std::cerr << "perfbench: solve digest " << mine
                << " differs from an earlier run's " << seen << "\n";
      return false;
    }
    return true;
  }
  std::ofstream(path) << mine << "\n";
  return true;
}

double Bench::probe_capacity(Live& live, double seconds) {
  // One closed-loop client per connection: a request in flight per
  // connection, the next one leaving when a reply arrives.
  const std::size_t window = config_.connections;
  std::map<std::string, Request> in_flight;
  std::vector<std::string> lines;
  std::size_t completed = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (!in_flight.empty() || elapsed < seconds) {
    elapsed = seconds_between(start, Clock::now());
    while (elapsed < seconds && in_flight.size() < window) {
      Request request = stream_.next();
      live.conns[request.conn].queue(request.line);
      in_flight.emplace(request.tag, std::move(request));
    }
    for (Conn& conn : live.conns) {
      if (!conn.flush()) throw std::runtime_error("probe: send failed");
      lines.clear();
      if (!conn.read_available(lines)) {
        throw std::runtime_error("probe: connection closed");
      }
      for (const std::string& line : lines) {
        const auto it = in_flight.find(reply_tag(line));
        if (it == in_flight.end()) continue;
        check(it->second, line, nullptr);
        in_flight.erase(it);
        if (elapsed < seconds) ++completed;
      }
    }
  }
  return static_cast<double>(completed) / seconds;
}

int Bench::run() {
  setup_ = stream_.setup();
  auto cpus = std::make_unique<CpuSplit>();
  Live live;
  std::vector<double> setup_times;
  const int setups = options_.trace ? 1 : kSetupRuns;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) {
      Tally unused;
      finish(live, unused);
    }
    setup_times.push_back(setup_once(live, i));
  }

  if (options_.probe_s > 0.0) {
    // Sizing aid for the open-loop rate (README.md), not a benchmark run.
    (void)probe_capacity(live, kWarmupS);
    const double capacity = probe_capacity(live, options_.probe_s);
    Tally unused;
    finish(live, unused);
    std::cout << "perfbench: closed-loop capacity " << capacity
              << " req/s (" << config_.connections << " clients, failed "
              << validator_.failures() << ")\n";
    return validator_.failures() == 0 ? 0 : 1;
  }
  if (config_.open_loop) {
    open_phase(live, kWarmupS, nullptr, nullptr);
  } else {
    closed_phase(live, kWarmupS, nullptr, nullptr);
  }
  Tally tally;
  steal_ = std::make_unique<StealSampler>();
  const double measured_s = options_.trace
                                ? std::min(options_.seconds, kTraceUntracedS)
                                : options_.seconds;
  const double pass_s = std::min(options_.seconds / 2.0, kTracePassS);
  measured_phase(live, measured_s, tally, nullptr);

  SpanLog spans;
  Tally traced;
  if (options_.trace) {
    measured_phase(live, pass_s, traced, &spans);
  }
  finish(live, tally);
  steal_.reset();
  cpus.reset();  // the in-process replay uses every CPU

  const bool digest_ok = !config_.digest || digest_repeats();
  if (!setups_agree_) {
    std::cerr << "perfbench: set-up solves differ between server runs\n";
  }
  const std::size_t failed = validator_.failures();
  for (const std::string& sample : validator_.samples()) {
    std::cerr << "perfbench: failed " << sample << "\n";
  }

  values_["setup_s"] = quantile(setup_times, 0.5);
  const bool open = config_.open_loop;
  values_["req_p50_ms"] = quiet(tally, {}, 0.5);
  values_["req_p99_ms"] = quiet(tally, {}, 0.99);
  values_["solve_p50_ms"] = quiet(tally, Kind::kSolve, 0.5);
  values_["solve_p99_ms"] = quiet(tally, Kind::kSolve, 0.99);
  values_["throughput_rps"] =
      open ? static_cast<double>(tally.completed) / tally.active_s
           : quiet(tally, {}, -1.0);
  values_["quality_ratio"] = mean(tally.ratios);
  values_["scrape_p50_ms"] = open ? quiet(tally, Kind::kScrape, 0.5)
                                  : quantile(tally.scrape_ms, 0.5);
  values_["migrations_per_solve"] = mean(tally.migrations);
  values_["bench.sched_lag_p99_ms"] = quantile(tally.lag_ms, 0.99);

  std::cout << "perfbench: workload=" << config_.name
            << " seed=" << options_.seed << " requests=" << tally.completed
            << " solves=" << tally.solve_ms.size()
            << " attempted=" << attempted_ << " failed=" << failed
            << " sched_lag_p99_ms=" << values_["bench.sched_lag_p99_ms"]
            << " fail_ratio="
            << static_cast<double>(failed) / static_cast<double>(attempted_)
            << " setup_runs_s=[";
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    std::cout << (i ? "," : "") << setup_times[i];
  }
  std::cout << "] req_p99_ms=" << values_["req_p99_ms"]
            << " solve_p99_ms=" << values_["solve_p99_ms"]
            << " scrape_p50_ms=" << values_["scrape_p50_ms"];
  std::cout << " steal_per_window=[";
  for (std::size_t w = 0; w < tally.window_steal.size(); ++w) {
    std::cout << (w ? "," : "") << tally.window_steal[w];
  }
  std::cout << "]";
  if (config_.digest) {
    std::cout << " digest=" << hex(digest_.value()) << " ("
              << digest_.count() << " solves)";
  }
  std::cout << "\n";

  if (options_.trace) {
    values_["bench.trace_overhead_ratio"] =
        quantile(traced.req_ms, 0.5) / quantile(tally.req_ms, 0.5);
    EndToEnd e2e;
    e2e.req_p50_ms = values_["req_p50_ms"];
    e2e.solve_p50_ms = values_["solve_p50_ms"];
    e2e.median_mix = median_mix(tally);
    for (const Timed& entry : tally.timed) e2e.traffic[entry.kind] += 1.0;
    for (auto& [kind, share] : e2e.traffic) {
      share /= static_cast<double>(tally.timed.size());
    }
    for (auto& [kind, kept] : tally.samples) {
      std::move(kept.begin(), kept.end(), std::back_inserter(e2e.samples));
    }
    replay_layers(config_, options_.seed, pass_s, e2e, spans, values_,
                  std::cout);
    const std::string trace_path = options_.workdir + "/trace-" +
                                   config_.name + "-" +
                                   std::to_string(options_.seed) + ".json";
    spans.write(trace_path);
    std::cout << "perfbench: span dump " << trace_path << "\n";
  }

  const bool correct = failed == 0 && digest_ok && setups_agree_;
  std::cout << result_line(correct, attempted_, failed, values_,
                           options_.trace)
            << std::endl;
  return 0;
}

void emit_stream(const std::string& workload, std::uint64_t seed,
                 std::size_t count) {
  Stream stream(workload_config(workload), seed);
  for (const std::vector<Request>& phase : stream.setup()) {
    for (const Request& request : phase) std::cout << request.line << "\n";
  }
  if (stream.config().open_loop) {
    const double seconds =
        static_cast<double>(count) / stream.config().rate_rps;
    for (const Request& request : stream.timeline(0.0, seconds)) {
      std::cout << request.line << "\n";
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::cout << stream.next().line << "\n";
    }
  }
}

void list_metrics() {
  aa::support::JsonValue out;
  for (const bool layer : {false, true}) {
    aa::support::JsonValue::Array list;
    const auto add = [&](const MetricSpec& spec) {
      aa::support::JsonValue entry;
      entry.set("name", spec.name);
      entry.set("unit", spec.unit);
      list.push_back(std::move(entry));
    };
    if (layer) {
      for (const MetricSpec& spec : kPerLayer) add(spec);
    } else {
      for (const MetricSpec& spec : kEndToEnd) add(spec);
    }
    out.set(layer ? "per_layer" : "end_to_end",
            aa::support::JsonValue(std::move(list)));
  }
  std::cout << out.dump() << "\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const aa::support::Args args(
        argc, argv,
        {"server", "workdir", "workload", "seed", "seconds", "trace",
         "emit-stream", "list-metrics", "probe-capacity"});
    if (args.get_int("list-metrics", 0) != 0) {
      list_metrics();
      return 0;
    }
    Options options;
    options.workload = args.get("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    if (const long long count = args.get_int("emit-stream", 0); count > 0) {
      emit_stream(options.workload, options.seed,
                  static_cast<std::size_t>(count));
      return 0;
    }
    options.server = args.get("server", "");
    options.workdir = args.get("workdir", "");
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.probe_s = args.get_double("probe-capacity", 0.0);
    if (options.server.empty() || options.workdir.empty() ||
        options.seconds <= 0.0) {
      std::cerr << "usage: perfbench --server BIN --workdir DIR "
                   "--workload drift|tenants|replan --seed N --seconds S "
                   "--trace 0|1\n";
      return 2;
    }
    std::filesystem::create_directories(options.workdir);
    ::signal(SIGPIPE, SIG_IGN);
    for (const int stop : {SIGALRM, SIGTERM, SIGINT}) {
      ::signal(stop, on_stop_signal);
    }
    ::alarm(kWatchdogS);
    Bench bench(options);
    return bench.run();
  } catch (const std::exception& error) {
    if (g_server_pid > 0) ::kill(g_server_pid, SIGKILL);
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
