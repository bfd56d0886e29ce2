// Compile-fail fixture: a dropped Status from a std::function call must
// not compile under -Werror (no token-level rule can see this callee).
#include <functional>

#include "common/status.h"

void DropsCallbackStatus(const std::function<qopt::Status()>& callback) {
  callback();
}
