// Fixture: a range-for over a member declared only in box.h fires
// qqo-ordered-output in this result-path file.
#include "box.h"

int Box::Total() const {
  int total = 0;
  for (const auto& [cell, value] : cells_) {
    total = total * 31 + cell * value;
  }
  return total;
}
