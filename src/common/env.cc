#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <string>

#include "common/table_printer.h"

namespace qopt {

StatusOr<long long> ParseEnvInt(std::string_view name, std::string_view text,
                                long long min_value, long long max_value) {
  const std::string label(name);
  const std::string value(text);
  if (value.empty()) {
    return InvalidArgumentError(
        StrFormat("%s: expected an integer, got an empty value", label.c_str()));
  }
  long long parsed = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  // Order matters: from_chars leaves `parsed` untouched on invalid input,
  // so testing the range first would misreport "abc" as out of range.
  if (ec == std::errc::invalid_argument) {
    return InvalidArgumentError(StrFormat("%s: expected an integer, got '%s'",
                                          label.c_str(), value.c_str()));
  }
  if (ec == std::errc::result_out_of_range) {
    return OutOfRangeError(StrFormat("%s: value '%s' overflows",
                                     label.c_str(), value.c_str()));
  }
  if (ptr != end) {
    return InvalidArgumentError(
        StrFormat("%s: trailing characters after integer in '%s'",
                  label.c_str(), value.c_str()));
  }
  if (parsed < min_value || parsed > max_value) {
    return OutOfRangeError(StrFormat("%s: value %lld out of range [%lld, %lld]",
                                     label.c_str(), parsed, min_value,
                                     max_value));
  }
  return parsed;
}

StatusOr<std::optional<long long>> EnvIntOrStatus(const char* name,
                                                  long long min_value,
                                                  long long max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::optional<long long>();
  QOPT_ASSIGN_OR_RETURN(long long parsed,
                        ParseEnvInt(name, env, min_value, max_value));
  return std::optional<long long>(parsed);
}

}  // namespace qopt
