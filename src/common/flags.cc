#include "common/flags.h"

#include "common/env.h"
#include "common/table_printer.h"

namespace qopt {

StatusOr<FlagMap> ParseFlags(const std::vector<std::string>& args,
                             std::size_t first,
                             const std::vector<FlagSpec>& specs) {
  FlagMap flags;
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return InvalidArgumentError(
          StrFormat("unexpected argument \"%s\"", arg.c_str()));
    }
    const std::size_t eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : specs) {
      if (candidate.name == key) spec = &candidate;
    }
    if (spec == nullptr) {
      std::string known;
      for (const FlagSpec& candidate : specs) {
        known += known.empty() ? "--" : ", --";
        known += candidate.name;
      }
      return InvalidArgumentError(
          StrFormat("unknown flag --%s (known: %s)", key.c_str(),
                    known.empty() ? "none" : known.c_str()));
    }
    if (flags.count(key) != 0) {
      return InvalidArgumentError(
          StrFormat("duplicate flag --%s", key.c_str()));
    }
    if (!spec->takes_value) {
      if (eq != std::string::npos) {
        return InvalidArgumentError(
            StrFormat("flag --%s takes no value", key.c_str()));
      }
      flags[key] = "";
    } else if (eq == std::string::npos || eq + 1 == arg.size()) {
      return InvalidArgumentError(
          StrFormat("flag --%s: expected =VALUE", key.c_str()));
    } else {
      flags[key] = arg.substr(eq + 1);
    }
  }
  return flags;
}

StatusOr<long long> IntFlag(const FlagMap& flags, const std::string& name,
                            long long fallback, long long min, long long max) {
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return ParseEnvInt("flag --" + name, it->second, min, max);
}

}  // namespace qopt
