// Fixture: one NOLINT comment naming two rules suppresses both findings on
// the target line.
#include <cstdlib>

struct Deadline {
  bool expired() const { return false; }
};

int Scramble(const Deadline& deadline, int n) {
  int total = 0;
  // QQO_LOOP(fixture.multirule)
  for (int i = 0; i < n; ++i) {
    if (deadline.expired()) break;
    QQO_COUNT("fixture.iterations", 1);
    // NOLINTNEXTLINE(qqo-hot-loop-alloc, qqo-determinism): fixture exercises multi-rule suppression
    int* cell = new int(rand());
    total += *cell;
    delete cell;
  }
  return total;
}
