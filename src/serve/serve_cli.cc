#include "serve/serve_cli.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/flags.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace qopt::serve {
namespace {

// Process-wide shutdown plumbing. The handler does two relaxed atomic
// stores (both async-signal-safe); everything else — draining, metric
// flushing — happens on normal threads after the blocked read wakes up
// with EINTR (the handlers are installed without SA_RESTART for exactly
// that reason).
std::atomic<bool> g_shutdown{false};
std::atomic<Server*> g_server{nullptr};

void HandleShutdownSignal(int /*signal*/) {
  g_shutdown.store(true, std::memory_order_relaxed);
  Server* server = g_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestShutdown();
}

void InstallShutdownHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked reads must EINTR out.
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// iostream adapter over raw file descriptors with explicit EINTR
/// handling: a read interrupted by SIGTERM re-checks the shutdown flag
/// and turns into EOF, which is what lets the accept loop drain instead
/// of blocking forever on stdin / the socket.
class FdStreambuf final : public std::streambuf {
 public:
  FdStreambuf(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {
    setg(buffer_, buffer_, buffer_);
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    while (true) {
      if (g_shutdown.load(std::memory_order_relaxed)) {
        return traits_type::eof();
      }
      const ssize_t n = ::read(read_fd_, buffer_, sizeof(buffer_));
      if (n > 0) {
        setg(buffer_, buffer_, buffer_ + n);
        return traits_type::to_int_type(*gptr());
      }
      if (n == 0) return traits_type::eof();
      if (errno == EINTR) continue;  // signal: loop re-checks the flag
      return traits_type::eof();
    }
  }

  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      if (!WriteAll(&c, 1)) return traits_type::eof();
    }
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* data, std::streamsize count) override {
    return WriteAll(data, static_cast<std::size_t>(count)) ? count : 0;
  }

 private:
  bool WriteAll(const char* data, std::size_t count) {
    std::size_t written = 0;
    while (written < count) {
      const ssize_t n =
          ::write(write_fd_, data + written, count - written);
      if (n >= 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      return false;
    }
    return true;
  }

  int read_fd_;
  int write_fd_;
  char buffer_[1 << 16];
};

int Usage() {
  std::fputs(
      "usage: qqo_serve [--socket=PATH] [--queue=N] [--cache=N]\n"
      "                 [--drain-ms=N] [--max-line-bytes=N]\n"
      "                 [--dispatch=serial|race] [--metrics]\n"
      "Long-lived solver daemon: reads line-delimited JSON solve requests\n"
      "from stdin (or an AF_UNIX socket), writes one response line per\n"
      "request in request order. See DESIGN.md \"Serving\" for the\n"
      "protocol, admission/shedding policy and drain semantics.\n"
      "environment: QQO_THREADS (pool size), QQO_FAULTS (fault points)\n",
      stderr);
  return kServeExitUsage;
}

int Fail(int exit_code, const Status& status) {
  std::fprintf(stderr, "qqo_serve: error: %s\n", status.ToString().c_str());
  return exit_code;
}

StatusOr<ServerOptions> MakeServerOptions(const FlagMap& flags) {
  ServerOptions options;
  QOPT_ASSIGN_OR_RETURN(const long long queue,
                        IntFlag(flags, "queue", 64, 0, 100000));
  options.queue_capacity = static_cast<std::size_t>(queue);
  QOPT_ASSIGN_OR_RETURN(const long long cache,
                        IntFlag(flags, "cache", 128, 0, 1000000));
  options.cache_capacity = static_cast<std::size_t>(cache);
  QOPT_ASSIGN_OR_RETURN(
      options.drain_budget_ms,
      IntFlag(flags, "drain-ms", 2000, -1, 24LL * 60 * 60 * 1000));
  QOPT_ASSIGN_OR_RETURN(const long long max_line,
                        IntFlag(flags, "max-line-bytes", 1 << 20, 1, 1 << 30));
  options.max_line_bytes = static_cast<std::size_t>(max_line);
  SolveRequest defaults;
  if (auto it = flags.find("dispatch"); it != flags.end()) {
    QOPT_RETURN_IF_ERROR(
        SetSolveName("dispatch", it->second, "flag --dispatch", &defaults));
  }
  options.default_dispatch = defaults.dispatch;
  return options;
}

/// Final shutdown summary, all on stderr — stdout belongs to the response
/// stream and must stay parseable by the client.
void PrintShutdownSummary(const Server& server, bool want_metrics) {
  const ServerCounters counters = server.Counters();
  std::fprintf(stderr,
               "qqo_serve: drained: lines=%lld admitted=%lld "
               "completed=%lld shed=%lld parse_errors=%lld cancelled=%lld\n",
               counters.lines, counters.admitted, counters.completed,
               counters.shed, counters.parse_errors, counters.cancelled);
  const CacheCounters cache = server.Cache().Counters();
  std::fprintf(stderr,
               "qqo_serve: cache: hits_exact=%lld hits_isomorphic=%lld "
               "misses=%lld insertions=%lld evictions=%lld rejections=%lld\n",
               cache.hits_exact, cache.hits_isomorphic, cache.misses,
               cache.insertions, cache.evictions, cache.rejections);
  if (want_metrics) {
    std::fputs(obs::Metrics::Instance()
                   .TableString(/*include_scheduling=*/true)
                   .c_str(),
               stderr);
  }
}

int ServeOnStdio(Server& server) {
  FdStreambuf buffer(STDIN_FILENO, STDOUT_FILENO);
  std::istream in(&buffer);
  std::ostream out(&buffer);
  const Status status = server.Serve(in, out);
  return status.ok() ? kServeExitOk : Fail(kServeExitError, status);
}

int ServeOnSocket(Server& server, const std::string& path) {
  sockaddr_un address;
  std::memset(&address, 0, sizeof(address));
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    return Fail(kServeExitUsage,
                InvalidArgumentError(StrFormat(
                    "flag --socket: path longer than %zu bytes",
                    sizeof(address.sun_path) - 1)));
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Fail(kServeExitError,
                InternalError(StrFormat("socket(): %s", std::strerror(errno))));
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd, 4) != 0) {
    const int saved_errno = errno;
    ::close(listen_fd);
    return Fail(kServeExitError,
                InternalError(StrFormat("bind/listen on \"%s\": %s",
                                        path.c_str(),
                                        std::strerror(saved_errno))));
  }
  std::fprintf(stderr, "qqo_serve: listening on %s\n", path.c_str());
  // One connection at a time: each accepted client gets a full Serve()
  // session (fresh sequence numbers, shared cache and counters).
  while (!g_shutdown.load(std::memory_order_relaxed)) {
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flag
      ::close(listen_fd);
      ::unlink(path.c_str());
      return Fail(kServeExitError,
                  InternalError(
                      StrFormat("accept(): %s", std::strerror(errno))));
    }
    FdStreambuf buffer(conn_fd, conn_fd);
    std::istream in(&buffer);
    std::ostream out(&buffer);
    server.Serve(in, out).IgnoreError();
    ::close(conn_fd);
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  return kServeExitOk;
}

}  // namespace

int RunQqoServe(int argc, const char* const* argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) args.emplace_back(argv[i]);
  return RunQqoServe(args);
}

int RunQqoServe(const std::vector<std::string>& args) {
  g_shutdown.store(false, std::memory_order_relaxed);  // in-process reruns
  // Environment knobs are validated before any work runs — same contract
  // as the qqo CLI: a typo in QQO_THREADS or QQO_FAULTS is usage misuse
  // (exit 2), never a silent fallback.
  if (const Status env = CheckSolveEnvironment(); !env.ok()) {
    return Fail(kServeExitUsage, env);
  }
  StatusOr<FlagMap> flags = ParseFlags(
      args, 1,
      {{"socket"}, {"queue"}, {"cache"}, {"drain-ms"}, {"dispatch"},
       {"max-line-bytes"}, {"metrics", /*takes_value=*/false}});
  if (!flags.ok()) {
    Fail(kServeExitUsage, flags.status());
    return Usage();
  }
  StatusOr<ServerOptions> options = MakeServerOptions(*flags);
  if (!options.ok()) return Fail(kServeExitUsage, options.status());
  const bool want_metrics = flags->count("metrics") != 0;

  // Metrics are always armed: the "stats" request type snapshots them.
  obs::Metrics::Instance().Reset();
  obs::Metrics::Instance().Enable();
  InstallShutdownHandlers();

  Server server(*options);
  g_server.store(&server, std::memory_order_relaxed);
  int code;
  if (auto it = flags->find("socket"); it != flags->end()) {
    code = ServeOnSocket(server, it->second);
  } else {
    code = ServeOnStdio(server);
  }
  g_server.store(nullptr, std::memory_order_relaxed);
  obs::Metrics::Instance().Disable();
  PrintShutdownSummary(server, want_metrics);
  return code;
}

}  // namespace qopt::serve
