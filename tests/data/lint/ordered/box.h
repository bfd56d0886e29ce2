#pragma once
// Fixture: a class whose unordered member is declared here and walked in
// box.cc (same stem), the pair qqo-ordered-output must connect.
#include <unordered_map>

class Box {
 public:
  int Total() const;

 private:
  std::unordered_map<int, int> cells_;
};
