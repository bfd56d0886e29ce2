// Compile-fail fixture: a dropped StatusOr<T> must not compile under
// -Werror ([[nodiscard]] on qopt::StatusOr).
#include "common/json.h"

void DropsStatusOr() { qopt::JsonValue::ParseOrStatus("{}"); }
