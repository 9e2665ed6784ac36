#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/topology/enumerate.h"
#include "src/topology/placement.h"

namespace pandia {
namespace {

MachineTopology SmallTopo() {
  return MachineTopology{.name = "small",
                         .num_sockets = 2,
                         .cores_per_socket = 4,
                         .threads_per_core = 2,
                         .l1_size = 0.032,
                         .l2_size = 0.25,
                         .l3_size = 8.0};
}

TEST(Placement, FromPerCoreVector) {
  const MachineTopology topo = SmallTopo();
  const Placement p(topo, {2, 1, 0, 0, 1, 0, 0, 0});
  EXPECT_EQ(p.TotalThreads(), 4);
  EXPECT_EQ(p.ThreadsOnSocket(0), 3);
  EXPECT_EQ(p.ThreadsOnSocket(1), 1);
  EXPECT_EQ(p.CoresUsedOnSocket(0), 2);
  EXPECT_EQ(p.NumActiveSockets(), 2);
  EXPECT_EQ(p.ThreadsOnCore(0), 2);
}

TEST(Placement, FromSocketLoadsCanonicalLayout) {
  const MachineTopology topo = SmallTopo();
  const std::vector<SocketLoad> loads{{2, 1}, {0, 0}};
  const Placement p = Placement::FromSocketLoads(topo, loads);
  // Doubles occupy the lowest cores, then singles.
  EXPECT_EQ(p.ThreadsOnCore(0), 2);
  EXPECT_EQ(p.ThreadsOnCore(1), 1);
  EXPECT_EQ(p.ThreadsOnCore(2), 1);
  EXPECT_EQ(p.ThreadsOnCore(3), 0);
  EXPECT_EQ(p.TotalThreads(), 4);
}

TEST(Placement, SocketLoadsRoundTrip) {
  const MachineTopology topo = SmallTopo();
  const std::vector<SocketLoad> loads{{1, 2}, {3, 0}};
  const Placement p = Placement::FromSocketLoads(topo, loads);
  const std::vector<SocketLoad> round = p.SocketLoads();
  EXPECT_EQ(round[0], (SocketLoad{1, 2}));
  EXPECT_EQ(round[1], (SocketLoad{3, 0}));
}

TEST(Placement, OnePerCoreSpansSockets) {
  const MachineTopology topo = SmallTopo();
  const Placement p = Placement::OnePerCore(topo, 6);
  EXPECT_EQ(p.ThreadsOnSocket(0), 4);
  EXPECT_EQ(p.ThreadsOnSocket(1), 2);
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(p.ThreadsOnCore(c), 1);
  }
}

TEST(Placement, TwoPerCorePacksTightly) {
  const MachineTopology topo = SmallTopo();
  const Placement p = Placement::TwoPerCore(topo, 5);
  EXPECT_EQ(p.ThreadsOnCore(0), 2);
  EXPECT_EQ(p.ThreadsOnCore(1), 2);
  EXPECT_EQ(p.ThreadsOnCore(2), 1);
  EXPECT_EQ(p.TotalThreads(), 5);
}

TEST(Placement, ThreadLocationsAreDeterministicAndOrdered) {
  const MachineTopology topo = SmallTopo();
  const Placement p(topo, {2, 0, 1, 0, 0, 0, 1, 0});
  const std::vector<ThreadLocation> locations = p.ThreadLocations();
  ASSERT_EQ(locations.size(), 4u);
  EXPECT_EQ(locations[0], (ThreadLocation{0, 0, 0}));
  EXPECT_EQ(locations[1], (ThreadLocation{0, 0, 1}));
  EXPECT_EQ(locations[2], (ThreadLocation{0, 2, 0}));
  EXPECT_EQ(locations[3], (ThreadLocation{1, 6, 0}));
}

TEST(Placement, PaperOrderSortsByTotalThenPerCore) {
  const MachineTopology topo = SmallTopo();
  const Placement one = Placement::OnePerCore(topo, 1);
  const Placement two_spread = Placement::OnePerCore(topo, 2);
  const Placement two_packed = Placement::TwoPerCore(topo, 2);
  EXPECT_TRUE(Placement::PaperOrderLess(one, two_packed));
  // {1,1,0,...} < {2,0,0,...} lexicographically.
  EXPECT_TRUE(Placement::PaperOrderLess(two_spread, two_packed));
  EXPECT_FALSE(Placement::PaperOrderLess(two_packed, two_spread));
}

TEST(Placement, EqualityIsStructural) {
  const MachineTopology topo = SmallTopo();
  EXPECT_TRUE(Placement::OnePerCore(topo, 3) ==
              Placement::FromSocketLoads(topo, std::vector<SocketLoad>{{3, 0}, {0, 0}}));
}

TEST(Placement, ToStringMentionsLoads) {
  const MachineTopology topo = SmallTopo();
  const Placement p = Placement::FromSocketLoads(topo, std::vector<SocketLoad>{{2, 1}, {0, 0}});
  EXPECT_EQ(p.ToString(), "4 threads [s0: 2x1+1x2, s1: 0x1+0x2]");
}

TEST(PlacementDeath, RejectsOversubscribedCore) {
  const MachineTopology topo = SmallTopo();
  EXPECT_DEATH(Placement(topo, {3, 0, 0, 0, 0, 0, 0, 0}), "over-subscribed");
}

TEST(PlacementDeath, RejectsWrongVectorSize) {
  const MachineTopology topo = SmallTopo();
  EXPECT_DEATH(Placement(topo, {1, 1}), "size");
}

TEST(PlacementDeath, RejectsOversubscribedSocket) {
  const MachineTopology topo = SmallTopo();
  EXPECT_DEATH(
      Placement::FromSocketLoads(topo, std::vector<SocketLoad>{{3, 2}, {0, 0}}),
      "over-subscribed");
}

// --- enumeration ---

TEST(Enumerate, SocketLoadCountMatchesFormula) {
  MachineTopology topo = SmallTopo();
  // (a, b) with a + b <= 4: C(6, 2) = 15.
  EXPECT_EQ(EnumerateSocketLoads(topo).size(), 15u);
  topo.cores_per_socket = 8;
  EXPECT_EQ(EnumerateSocketLoads(topo).size(), 45u);
}

TEST(Enumerate, CanonicalCountsMatchPaperScaleMachines) {
  MachineTopology x3 = SmallTopo();
  x3.cores_per_socket = 8;
  // 45 * 46 / 2 - 1 = 1034 canonical placements on the 8-core 2-socket parts.
  EXPECT_EQ(CountCanonicalPlacements(x3), 1034u);
  MachineTopology x5 = x3;
  x5.cores_per_socket = 18;
  EXPECT_EQ(CountCanonicalPlacements(x5), 18144u);
}

// The count is exact wherever it fits in 64 bits, even where a product on
// the way to it does not, and saturates where the count itself does not.
TEST(Enumerate, CanonicalCountsAreExactOrSaturate) {
  const auto count = [](int sockets, int cores, int smt) {
    return CountCanonicalPlacements(MachineTopology{
        .name = "wide", .num_sockets = sockets, .cores_per_socket = cores,
        .threads_per_core = smt});
  };
  EXPECT_EQ(count(2, 8, 2), 1034u);
  EXPECT_EQ(count(2, 18, 2), 18144u);
  // C(63, 62) - 1: one socket load besides the empty one.
  EXPECT_EQ(count(62, 1, 1), 62u);
  // C(63, 61) - 1 = 63 * 62 / 2 - 1.
  EXPECT_EQ(count(61, 1, 2), 1952u);
  // C(67, 62) - 1, six loads per socket.
  EXPECT_EQ(count(62, 2, 2), 9657647u);
  // C(525,825 + 1,023, 1,024) - 1 is far above 2^64.
  EXPECT_EQ(count(1024, 1024, 2), std::numeric_limits<uint64_t>::max());
}

TEST(Enumerate, EnumerationMatchesCountAndIsDistinct) {
  const MachineTopology topo = SmallTopo();
  const std::vector<Placement> all = EnumerateCanonicalPlacements(topo);
  EXPECT_EQ(all.size(), CountCanonicalPlacements(topo));
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(all[i - 1] == all[i]);
  }
}

TEST(Enumerate, EnumerationIsPaperSorted) {
  const MachineTopology topo = SmallTopo();
  const std::vector<Placement> all = EnumerateCanonicalPlacements(topo);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(), Placement::PaperOrderLess));
}

TEST(Enumerate, EnumerationExcludesEmptyAndIncludesFullMachine) {
  const MachineTopology topo = SmallTopo();
  const std::vector<Placement> all = EnumerateCanonicalPlacements(topo);
  EXPECT_EQ(all.front().TotalThreads(), 1);
  EXPECT_EQ(all.back().TotalThreads(), topo.NumHwThreads());
}

TEST(Enumerate, SampleIsDeterministicAndDeduplicated) {
  MachineTopology topo = SmallTopo();
  topo.cores_per_socket = 8;
  const std::vector<Placement> a = SampleCanonicalPlacements(topo, 50, 7);
  const std::vector<Placement> b = SampleCanonicalPlacements(topo, 50, 7);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_FALSE(a[i] == a[j]);
    }
  }
}

TEST(Enumerate, SampleHonorsFilter) {
  MachineTopology topo = SmallTopo();
  const std::vector<Placement> sample = SampleCanonicalPlacements(
      topo, 20, 3, [](const Placement& p) { return p.NumActiveSockets() == 1; });
  ASSERT_FALSE(sample.empty());
  for (const Placement& p : sample) {
    EXPECT_EQ(p.NumActiveSockets(), 1);
  }
}

TEST(Enumerate, CompactSweepCoversAllThreadCounts) {
  const MachineTopology topo = SmallTopo();
  const std::vector<Placement> sweep = CompactSweep(topo);
  ASSERT_EQ(sweep.size(), static_cast<size_t>(topo.NumHwThreads()));
  for (int n = 1; n <= topo.NumHwThreads(); ++n) {
    EXPECT_EQ(sweep[n - 1].TotalThreads(), n);
  }
  // Compact: 3 threads sit on 2 cores of socket 0.
  EXPECT_EQ(sweep[2].CoresUsedOnSocket(0), 2);
  EXPECT_EQ(sweep[2].ThreadsOnSocket(1), 0);
}

TEST(Enumerate, SpreadSweepBalancesSockets) {
  const MachineTopology topo = SmallTopo();
  const std::vector<Placement> sweep = SpreadSweep(topo);
  for (int n = 1; n <= topo.NumHwThreads(); ++n) {
    const Placement& p = sweep[n - 1];
    EXPECT_EQ(p.TotalThreads(), n);
    EXPECT_LE(std::abs(p.ThreadsOnSocket(0) - p.ThreadsOnSocket(1)), 1) << n;
  }
  // Spread prefers one thread per core before SMT slots.
  EXPECT_EQ(sweep[7].CoresUsedOnSocket(0), 4);
  EXPECT_EQ(sweep[7].CoresUsedOnSocket(1), 4);
}

}  // namespace
}  // namespace pandia
