// Compile-pass fixture: the explicit discards, .IgnoreError() and a
// (void) cast, compile clean under -Werror.
#include "common/deadline.h"
#include "common/json.h"

void DiscardsExplicitly(const qopt::Deadline& deadline) {
  deadline.Check().IgnoreError();
  (void)qopt::JsonValue::ParseOrStatus("{}");
}
