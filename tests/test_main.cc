// The gtest entry point of every test binary: runtime lock-rank checking
// (src/util/lock_rank.h) defaults off under NDEBUG, so it is forced on here
// and every ranked acquisition any test makes is checked against the
// kLockRank* order in every build type.
#include <gtest/gtest.h>

#include "src/util/lock_rank.h"

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  pandia::util::SetLockRankChecking(true);
  return RUN_ALL_TESTS();
}
