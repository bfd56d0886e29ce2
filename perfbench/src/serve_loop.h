#pragma once

#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve/server.h"

namespace perfbench {

struct ServeRun {
  std::vector<double> latency_ms;  ///< Due time -> response line; +inf for
                                   ///< failed or shed requests.
  std::vector<double> late_ms;     ///< Sender lateness per line handed to
                                   ///< a waiting accept loop.
  long long failed = 0;     ///< Unexpected errors, sheds, failed checks.
  long long cacheable = 0;  ///< OK solve responses of cache:true requests.
  long long cached = 0;     ///< ... of which answered from the cache.
  std::vector<double> queue_wait_ms;  ///< Admission -> worker start (traced).
  std::vector<std::string> errors;    ///< First few failure descriptions.
};

/// Builds a Server with this cache capacity; with `trace` its
/// test_request_hook timestamps worker starts for the queue-wait rows.
std::unique_ptr<qopt::serve::Server> MakeServer(std::size_t cache_capacity,
                                                bool trace);

/// Open loop: feeds `lines` on a seeded Poisson schedule at the workload's
/// rate into one in-process Server::Serve session (the input stream
/// releases each line at its due time), timestamps every response line and
/// checks it.
ServeRun RunServeStream(const ServeWorkload& workload,
                        const std::vector<ServeLine>& lines,
                        qopt::serve::Server* server, std::uint64_t seed,
                        double seconds);

/// Number of lines RunServeStream will send for these parameters.
std::size_t ServeLineCount(const ServeWorkload& workload, std::uint64_t seed,
                           double seconds);

}  // namespace perfbench
