#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>

#include "support/sync.hpp"
#include "svc/protocol.hpp"

namespace aa::svc {

namespace {

std::string too_large_message(std::size_t max_line_bytes) {
  return "request line exceeds " + std::to_string(max_line_bytes) + " bytes";
}

}  // namespace

/// Shared between the reader thread and reply callbacks: the callbacks may
/// outlive the connection (a worker can still hold one while the batch
/// drains), so the fd lives here and is only closed once the last
/// shared_ptr drops.
struct SocketServer::Connection {
  FdHandle fd;
  // Lock order: leaf — serializes reply writes; nothing is acquired
  // while held.
  support::Mutex write_mutex;
  bool open AA_GUARDED_BY(write_mutex) = true;
  // Lock order: leaf, never nested with write_mutex — a reply can sit in a
  // blocking send() holding write_mutex while shutdown waits on this one.
  support::Mutex replies_mutex;
  support::CondVar replies_cv;
  /// Lines handed to the service whose reply has not been written yet.
  std::size_t owed AA_GUARDED_BY(replies_mutex) = 0;
  /// Set by the reader thread as its last step: the accept loop may join it.
  std::atomic<bool> finished{false};

  bool send(const std::string& line) AA_EXCLUDES(write_mutex) {
    const support::MutexLock lock(write_mutex);
    if (!open) return false;
    return send_line(fd.get(), line);
  }

  void close() noexcept AA_EXCLUDES(write_mutex) {
    // Shutdown before taking the mutex: it unblocks a send() stuck on a
    // full socket (which holds the mutex) instead of deadlocking behind it.
    fd.shutdown_both();
    const support::MutexLock lock(write_mutex);
    open = false;
  }

  /// Called before a line goes to the service: one more reply is owed.
  void expect_reply() AA_EXCLUDES(replies_mutex) {
    const support::MutexLock lock(replies_mutex);
    ++owed;
  }

  /// The service's reply callback: writes the line (or drops it on a
  /// closed connection), then settles the debt.
  void reply(const std::string& line)
      AA_EXCLUDES(write_mutex, replies_mutex) {
    (void)send(line);
    {
      const support::MutexLock lock(replies_mutex);
      --owed;
    }
    replies_cv.notify_all();
  }

  /// Returns once every owed reply was handed over, or at `deadline`.
  void await_replies(std::chrono::steady_clock::time_point deadline)
      AA_EXCLUDES(replies_mutex) {
    const support::MutexLock lock(replies_mutex);
    while (owed > 0) {
      if (replies_cv.wait_until(replies_mutex, deadline) ==
          std::cv_status::timeout) {
        return;
      }
    }
  }
};

SocketServer::SocketServer(Service& service, std::string socket_path,
                           std::size_t max_line_bytes)
    : service_(service),
      socket_path_(std::move(socket_path)),
      max_line_bytes_(max_line_bytes),
      listener_(listen_unix(socket_path_)) {}

SocketServer::~SocketServer() {
  shutdown_connections();
  listener_.reset();
  ::unlink(socket_path_.c_str());
}

void SocketServer::run() {
  pollfd poll_set{};
  poll_set.fd = listener_.get();
  poll_set.events = POLLIN;
  while (!service_.shutdown_requested()) {
    const int ready = ::poll(&poll_set, 1, /*timeout_ms=*/100);
    reap_finished();
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    FdHandle client(::accept(listener_.get(), nullptr, nullptr));
    if (!client.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto connection = std::make_shared<Connection>();
    connection->fd = std::move(client);
    const support::MutexLock lock(connections_mutex_);
    std::thread thread(&SocketServer::connection_loop, this, connection);
    readers_.push_back({std::move(connection), std::move(thread)});
  }
  // The service set the flag while processing the shutdown request, before
  // its reply (and those of requests batched with it) went out: closing now
  // could cut them off.
  await_replies(std::chrono::steady_clock::now() + kShutdownReplyGrace);
  shutdown_connections();
}

void SocketServer::connection_loop(std::shared_ptr<Connection> connection) {
  LineChannel channel(connection->fd.get(), max_line_bytes_);
  for (;;) {
    const std::optional<std::string> line = channel.read_line();
    if (!line.has_value()) {
      if (channel.too_large()) {
        (void)connection->send(
            make_error_reply(error_code::kTooLarge,
                             too_large_message(max_line_bytes_))
                .dump());
      }
      break;  // EOF (possibly mid-line) or error: clean disconnect.
    }
    connection->expect_reply();
    service_.submit_line(*line, [connection](const std::string& reply) {
      connection->reply(reply);
    });
  }
  connection->close();
  connection->finished.store(true, std::memory_order_release);
}

void SocketServer::reap_finished() {
  std::vector<Reader> done;
  {
    const support::MutexLock lock(connections_mutex_);
    const auto first_done =
        std::partition(readers_.begin(), readers_.end(), [](const Reader& r) {
          return !r.connection->finished.load(std::memory_order_acquire);
        });
    done.assign(std::make_move_iterator(first_done),
                std::make_move_iterator(readers_.end()));
    readers_.erase(first_done, readers_.end());
  }
  for (Reader& reader : done) reader.thread.join();
}

void SocketServer::await_replies(
    std::chrono::steady_clock::time_point deadline) {
  std::vector<std::shared_ptr<Connection>> open;
  {
    const support::MutexLock lock(connections_mutex_);
    for (const Reader& reader : readers_) open.push_back(reader.connection);
  }
  for (const auto& connection : open) connection->await_replies(deadline);
}

void SocketServer::shutdown_connections() {
  std::vector<Reader> readers;
  {
    const support::MutexLock lock(connections_mutex_);
    for (const Reader& reader : readers_) reader.connection->close();
    readers.swap(readers_);
  }
  for (Reader& reader : readers) {
    if (reader.thread.joinable()) reader.thread.join();
  }
}

namespace {

/// Reply sink for stdio mode; shared so replies still in flight during
/// Service::stop() keep a live mutex.
struct StdioWriter {
  explicit StdioWriter(std::ostream& stream) : out(stream) {}

  void write(const std::string& line) AA_EXCLUDES(mutex) {
    const support::MutexLock lock(mutex);
    out << line << '\n' << std::flush;
  }

  // Lock order: leaf — serializes reply writes to the shared stream.
  support::Mutex mutex;
  std::ostream& out;
};

}  // namespace

void serve_stdio(Service& service, std::istream& in, std::ostream& out,
                 std::size_t max_line_bytes) {
  auto writer = std::make_shared<StdioWriter>(out);
  std::string line;
  while (!service.shutdown_requested() && std::getline(in, line)) {
    if (line.size() > max_line_bytes) {
      writer->write(make_error_reply(error_code::kTooLarge,
                                     too_large_message(max_line_bytes))
                        .dump());
      break;
    }
    service.submit_line(line, [writer](const std::string& reply) {
      writer->write(reply);
    });
  }
}

}  // namespace aa::svc
