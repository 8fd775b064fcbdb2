// Fixture: every form of ambient nondeterminism the `nondet` rule bans.
// This file is excluded from the repo-wide walk (lint_fixtures/ is a
// skipped directory); analyzer_test feeds it through the analyzer directly.
#include <random>

int SeedFromEntropy() {
  std::random_device rd;
  std::mt19937 gen(rd());
  return static_cast<int>(gen());
}

int AmbientRand() {
  srand(7);
  return rand();
}

long WallClock() {
  return time(nullptr);
}

const char* Environment() {
  return getenv("COYOTE_SEED");
}
