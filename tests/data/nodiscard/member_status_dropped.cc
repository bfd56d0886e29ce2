// Compile-fail fixture: a dropped Status from a member call must not
// compile under -Werror.
#include "common/deadline.h"

void DropsMemberStatus(const qopt::Deadline& deadline) { deadline.Check(); }
