#include "client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// CPUs servers run on while a CpuSplit is alive (empty: no split).
cpu_set_t g_server_cpus;
bool g_server_cpus_set = false;

}  // namespace

CpuSplit::CpuSplit() {
  CPU_ZERO(&all_);
  if (::sched_getaffinity(0, sizeof all_, &all_) != 0 ||
      CPU_COUNT(&all_) < 3) {
    return;
  }
  cpu_set_t client;
  CPU_ZERO(&client);
  CPU_ZERO(&g_server_cpus);
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all_)) continue;
    CPU_SET(cpu, first ? &client : &g_server_cpus);
    first = false;
  }
  split_ = ::sched_setaffinity(0, sizeof client, &client) == 0;
  g_server_cpus_set = split_;
  if (!split_) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &g_server_cpus)) continue;
    idlers_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)::sched_setaffinity(0, sizeof one, &one);
      sched_param param{};
      (void)::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

CpuSplit::~CpuSplit() {
  stop_.store(true);
  for (std::thread& idler : idlers_) idler.join();
  if (!split_) return;
  (void)::sched_setaffinity(0, sizeof all_, &all_);
  g_server_cpus_set = false;
}

Server::Server(const std::string& binary, const std::string& run_dir,
               const std::vector<std::string>& flags)
    : run_dir_(run_dir), socket_path_(run_dir + "/aa.sock") {
  ::mkdir(run_dir.c_str(), 0755);
  ::unlink(socket_path_.c_str());
  std::vector<std::string> args = {
      std::filesystem::absolute(binary).string(), "--socket", "aa.sock"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: the run directory is the server's working directory, so the
    // socket and the files of --metrics/--trace-out/--log-out land there.
    // Dies with the benchmark, whatever ends it.
    (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::chdir(run_dir.c_str()) != 0) ::_exit(126);
    if (g_server_cpus_set) {
      (void)::sched_setaffinity(0, sizeof g_server_cpus, &g_server_cpus);
    }
    const int out = ::open("server.out", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out >= 0) {
      ::dup2(out, STDOUT_FILENO);
      ::dup2(out, STDERR_FILENO);
      ::close(out);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

Server::~Server() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

aa::svc::FdHandle Server::connect(double timeout_s) const {
  const Clock::time_point start = Clock::now();
  while (true) {
    try {
      return aa::svc::connect_unix(socket_path_, 0);
    } catch (const std::runtime_error&) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        throw std::runtime_error("aa_serve exited before listening (see " +
                                 socket_path_.substr(0, socket_path_.size() - 7) +
                                 "server.out)");
      }
      if (seconds_between(start, Clock::now()) > timeout_s) throw;
      sleep_s(0.001);
    }
  }
}

double Server::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  throw std::runtime_error("no VmHWM for aa_serve");
}

void Server::wait_exit(double timeout_s) {
  const Clock::time_point start = Clock::now();
  while (true) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("aa_serve exited unsuccessfully");
      }
      return;
    }
    if (seconds_between(start, Clock::now()) > timeout_s) {
      throw std::runtime_error("aa_serve did not exit after shutdown");
    }
    sleep_s(0.0005);
  }
}

Conn::Conn(aa::svc::FdHandle fd) : fd_(std::move(fd)) {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  ::fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK);
}

void Conn::queue(const std::string& line) {
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
  out_ += line;
  out_ += '\n';
}

bool Conn::flush() {
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(fd_.get(), out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Conn::read_available(std::vector<std::string>& lines) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(fd_.get(), buf, sizeof buf, 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  std::size_t begin = 0;
  while (true) {
    const std::size_t newline = in_.find('\n', scanned_);
    if (newline == std::string::npos) break;
    lines.emplace_back(in_, begin, newline - begin);
    begin = newline + 1;
    scanned_ = begin;
  }
  if (begin > 0) {
    in_.erase(0, begin);
    scanned_ -= begin;
  }
  scanned_ = in_.size();
  return true;
}

std::string round_trip(Conn& conn, const std::string& line,
                       double timeout_s) {
  conn.queue(line);
  std::vector<std::string> lines;
  const Clock::time_point start = Clock::now();
  while (true) {
    if (!conn.flush()) throw std::runtime_error("send to aa_serve failed");
    if (!conn.read_available(lines)) {
      throw std::runtime_error("aa_serve closed the connection");
    }
    if (!lines.empty()) {
      if (lines.size() > 1) {
        throw std::runtime_error("unexpected extra reply line");
      }
      return std::move(lines.front());
    }
    pollfd pfd{conn.fd(), static_cast<short>(
                              POLLIN | (conn.wants_write() ? POLLOUT : 0)),
               0};
    ::poll(&pfd, 1, 0);  // spin: see drive()
    if (seconds_between(start, Clock::now()) > timeout_s) {
      throw std::runtime_error("no reply from aa_serve within timeout");
    }
  }
}

std::string reply_tag(const std::string& reply) {
  static const std::string kKey = "\"tag\":\"";
  const std::size_t at = reply.find(kKey);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + kKey.size();
  const std::size_t end = reply.find('"', begin);
  if (end == std::string::npos) return {};
  return reply.substr(begin, end - begin);
}

std::vector<Exchange> drive(std::vector<Conn>& conns,
                            const std::vector<Request>& requests, bool paced,
                            Clock::time_point start, double timeout_s) {
  std::vector<Exchange> out(requests.size());
  std::map<std::string, std::size_t> pending;
  std::size_t next = 0;
  std::size_t received = 0;
  std::vector<std::string> lines;
  std::vector<pollfd> pfds(conns.size());
  const double last_due =
      requests.empty() ? 0.0 : std::max(0.0, requests.back().due_s);
  bool failed = false;
  while (received < requests.size() && !failed) {
    const double now = seconds_between(start, Clock::now());
    // Send everything that is due (open loop) or everything (pipelined).
    while (next < requests.size() &&
           (!paced || requests[next].due_s <= now)) {
      const Request& request = requests[next];
      out[next].due_s = paced ? request.due_s : now;
      out[next].sent_s = now;
      pending.emplace(request.tag, next);
      conns[request.conn].queue(request.line);
      ++next;
      if (!paced && next % 64 == 0) break;  // let replies drain
    }
    for (Conn& conn : conns) {
      if (!conn.flush()) failed = true;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c] = {conns[c].fd(),
                 static_cast<short>(POLLIN |
                                    (conns[c].wants_write() ? POLLOUT : 0)),
                 0};
    }
    if (next == requests.size() && now > last_due + timeout_s) break;
    // Spin rather than sleep until the next due time or reply: on a
    // virtual machine a halted vCPU can take milliseconds to wake, which
    // would read as generator lag and reply latency. The client has a CPU
    // of its own while it drives a server (CpuSplit).
    ::poll(pfds.data(), pfds.size(), 0);
    const double got = seconds_between(start, Clock::now());
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      lines.clear();
      if (!conns[c].read_available(lines)) failed = true;
      for (std::string& line : lines) {
        const auto it = pending.find(reply_tag(line));
        if (it == pending.end()) continue;  // unmatched: counted as missing
        out[it->second].done_s = got;
        out[it->second].reply = std::move(line);
        pending.erase(it);
        ++received;
      }
    }
  }
  return out;
}

}  // namespace perfbench
