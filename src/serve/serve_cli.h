#pragma once

#include <string>
#include <vector>

namespace qopt::serve {

/// Exit codes of the qqo_serve daemon (documented in README.md). A
/// SIGTERM-triggered graceful drain is a *success*: the daemon stops
/// admitting, finishes or cancels in-flight work within the drain budget,
/// flushes its final metrics snapshot to stderr and exits 0.
inline constexpr int kServeExitOk = 0;
inline constexpr int kServeExitError = 1;  ///< Socket / I-O failure.
inline constexpr int kServeExitUsage = 2;  ///< Flag / environment misuse.

/// Entry point of the `qqo_serve` tool, factored out of main() so tests
/// can drive the real daemon code path in-process. `argv[0]` is the
/// program name, as in main().
///
/// Flags:
///   --socket=PATH       listen on an AF_UNIX socket (one connection at a
///                       time) instead of stdin/stdout
///   --queue=N           admission bound (default 64)
///   --cache=N           solution-cache entries (default 128)
///   --drain-ms=N        graceful-drain budget, -1 waits forever
///                       (default 2000)
///   --max-line-bytes=N  request-line size bound (default 1 MiB)
///   --dispatch=MODE     default dispatch: serial|race (default serial)
///   --metrics           print the final metrics tables to stderr on exit
///
/// Each setting has this one channel. The environment holds only what no
/// flag sets: QQO_THREADS (pool size) and QQO_FAULTS (fault points).
int RunQqoServe(int argc, const char* const* argv);

/// Convenience overload for tests: RunQqoServe({"qqo_serve", "--queue=4"}).
int RunQqoServe(const std::vector<std::string>& args);

}  // namespace qopt::serve
