#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace qopt {

/// One flag a command accepts.
struct FlagSpec {
  std::string name;         ///< Without the leading "--".
  bool takes_value = true;  ///< --name=VALUE; false: a bare switch.
};

/// Parsed flags: name -> value ("" for a switch).
using FlagMap = std::map<std::string, std::string>;

/// The --key[=value] parser of qqo and qqo_serve. Every argument from
/// `args[first]` on must be a flag named in `specs`: an unknown or
/// duplicate flag, a stray positional, a value flag without a non-empty
/// =VALUE and a switch given a value are all kInvalidArgument. So a typo
/// (--sed=5), a bare --seed or --no-fallback=0 never runs with a default.
StatusOr<FlagMap> ParseFlags(const std::vector<std::string>& args,
                             std::size_t first,
                             const std::vector<FlagSpec>& specs);

/// The integer value of flag --`name`, or `fallback` when it was not
/// given. The text goes through the strict parser of every integer knob
/// (ParseEnvInt), so --queries=abc, trailing garbage, overflow and values
/// outside [min, max] are errors naming the flag, never a silent default.
StatusOr<long long> IntFlag(const FlagMap& flags, const std::string& name,
                            long long fallback, long long min, long long max);

}  // namespace qopt
