// Compile-fail fixture: a dropped Status from a free function call must
// not compile under -Werror ([[nodiscard]] on qopt::Status).
#include "common/status.h"

void DropsStatus() { qopt::InvalidArgumentError("dropped"); }
