#ifndef QQO_BENCH_BENCH_UTIL_H_
#define QQO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "common/env.h"

namespace qopt_bench {

/// Reads an integer environment knob with a default, so the paper-scale
/// settings (e.g. 20 instances per point) can be dialled down:
///   QQO_BENCH_SAMPLES  - instances / transpilations / embeddings per point
///   QQO_BENCH_FAST     - set to 1 to shrink sweeps for smoke runs
/// Strict parse: QQO_BENCH_SAMPLES=abc used to atoi to 0 samples and turn
/// every mean into 0/0 = NaN in the emitted tables; garbage, zero,
/// negative and overflowing values now abort with a clear message.
inline int EnvInt(const char* name, int fallback) {
  qopt::StatusOr<std::optional<long long>> parsed =
      qopt::EnvIntOrStatus(name, 1, 1000000);
  QOPT_CHECK_MSG(parsed.ok(), parsed.status().message().c_str());
  return parsed->has_value() ? static_cast<int>(**parsed) : fallback;
}

inline bool FastMode() { return EnvInt("QQO_BENCH_FAST", 0) != 0; }

/// Samples per data point (paper default: 20).
inline int Samples(int fallback) { return EnvInt("QQO_BENCH_SAMPLES", fallback); }

inline void PrintHeader(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

}  // namespace qopt_bench

#endif  // QQO_BENCH_BENCH_UTIL_H_
