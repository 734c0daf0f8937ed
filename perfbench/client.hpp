#pragma once

// The benchmark's side of the socket: spawning aa_serve, non-blocking
// line connections, and the closed-loop, pipelined and open-loop ways of
// driving them. Reply bytes are only collected here; validation happens
// outside every timed region (validate.hpp).

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <cstddef>
#include <string>
#include <vector>

#include "svc/channel.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One aa_serve process running in `run_dir` (its working directory),
/// listening on run_dir/aa.sock. The destructor kills a server that is
/// still running and reaps it.
class Server {
 public:
  Server(const std::string& binary, const std::string& run_dir,
         const std::vector<std::string>& flags);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& run_dir() const noexcept {
    return run_dir_;
  }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }

  /// Connects to the server's socket, retrying while it comes up. Throws
  /// when the process exits first or `timeout_s` passes.
  [[nodiscard]] aa::svc::FdHandle connect(double timeout_s) const;

  /// VmHWM of the live process, in MiB.
  [[nodiscard]] double peak_rss_mb() const;

  /// Waits for the process to exit (after a `shutdown` request). Throws
  /// when it does not exit within `timeout_s` or exits unsuccessfully.
  void wait_exit(double timeout_s);

 private:
  pid_t pid_ = -1;
  std::string run_dir_;
  std::string socket_path_;
};

/// Splits the CPUs this process may use: the client keeps the first,
/// servers spawned afterwards get the rest (when there are at least
/// three), so client and server do not preempt each other. Each server
/// CPU also runs a spinning SCHED_IDLE thread: the server preempts it at
/// once, but the virtual CPU never halts, and waking a halted vCPU costs
/// a wait that depends on the host's load, not on aa_serve. Destruction
/// stops the spinners and restores the full set.
class CpuSplit {
 public:
  CpuSplit();
  ~CpuSplit();
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

 private:
  cpu_set_t all_;
  bool split_ = false;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> idlers_;  ///< One per server CPU.
};

/// Non-blocking client connection with line framing.
class Conn {
 public:
  explicit Conn(aa::svc::FdHandle fd);

  /// Appends `line` + '\n' to the send buffer.
  void queue(const std::string& line);
  /// Writes what the socket takes now; false on a write error.
  [[nodiscard]] bool flush();
  [[nodiscard]] bool wants_write() const noexcept {
    return out_pos_ < out_.size();
  }
  /// Reads what is available and appends complete lines to `lines`;
  /// false on EOF or error.
  [[nodiscard]] bool read_available(std::vector<std::string>& lines);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

 private:
  aa::svc::FdHandle fd_;
  std::string out_;
  std::size_t out_pos_ = 0;
  std::string in_;
  std::size_t scanned_ = 0;
};

/// Sends `line` on `conn` and waits for one reply line. Throws on a
/// transport failure or when no reply arrives within `timeout_s`.
[[nodiscard]] std::string round_trip(Conn& conn, const std::string& line,
                                     double timeout_s = 60.0);

/// One request's fate in a pipelined or open-loop phase.
struct Exchange {
  double due_s = 0.0;   ///< Scheduled send, from the phase start.
  double sent_s = 0.0;  ///< Actual send, from the phase start.
  double done_s = -1.0; ///< Reply received; < 0 when none arrived.
  std::string reply;
};

/// Sends `requests` on their connections and matches replies by tag.
/// With `paced`, request i is sent at start + requests[i].due_s (open
/// loop); otherwise everything is sent as fast as the sockets take it.
/// Returns once every reply arrived, a connection failed, or `timeout_s`
/// passed since the last due time; missing replies keep done_s < 0.
[[nodiscard]] std::vector<Exchange> drive(std::vector<Conn>& conns,
                                          const std::vector<Request>& requests,
                                          bool paced, Clock::time_point start,
                                          double timeout_s);

/// Extracts the "tag" string of a compact reply line ("" when absent).
[[nodiscard]] std::string reply_tag(const std::string& reply);

}  // namespace perfbench
