#include "common/retry.h"

#include "common/random.h"

namespace qopt {

std::uint64_t AttemptSeed(std::uint64_t seed, std::int64_t attempt) {
  if (attempt <= 1) return seed;
  return Mix64(seed + kSplitMixGamma * static_cast<std::uint64_t>(attempt));
}

bool IsRetryableStatus(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

}  // namespace qopt
