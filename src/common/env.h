#pragma once

#include <optional>
#include <string_view>

#include "common/status.h"

namespace qopt {

/// Strict integer parsing for environment knobs (QQO_THREADS,
/// QQO_BENCH_SAMPLES, ...). Unlike atoi, non-numeric text, trailing
/// garbage, values outside [min_value, max_value], and overflow all come
/// back as kInvalidArgument / kOutOfRange with the variable name in the
/// message — never a silent default and never UB.
StatusOr<long long> ParseEnvInt(std::string_view name, std::string_view text,
                                long long min_value, long long max_value);

/// Reads `name` from the environment. Unset or empty yields nullopt
/// (caller applies its default); anything else must parse strictly.
StatusOr<std::optional<long long>> EnvIntOrStatus(const char* name,
                                                  long long min_value,
                                                  long long max_value);

}  // namespace qopt
