#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>

#include "src/util/crc32c.h"
#include "src/util/fnv1a.h"
#include "src/util/lock_rank.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace pandia {
namespace {

// --- stats ---

TEST(Stats, MeanOfSingleton) { EXPECT_DOUBLE_EQ(Mean(std::vector<double>{3.5}), 3.5); }

TEST(Stats, MeanOfSeveral) {
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, MedianOddCount) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{9.0, 1.0, 5.0}), 5.0);
}

TEST(Stats, MedianEvenCountAveragesMiddle) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, MedianUnsortedInputIsSortedInternally) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{100.0, -5.0, 7.0}), 7.0);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 30.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 75.0), 7.5);
}

TEST(Stats, StdDevOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(StdDev(std::vector<double>{2.0, 2.0, 2.0}), 0.0);
}

TEST(Stats, StdDevKnownValue) {
  // Population stddev of {1, 3} is 1.
  EXPECT_DOUBLE_EQ(StdDev(std::vector<double>{1.0, 3.0}), 1.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(Min(v), -1.0);
  EXPECT_DOUBLE_EQ(Max(v), 7.0);
}

TEST(Stats, SummarizeIsConsistent) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
}

TEST(Stats, GeoMeanKnownValue) {
  EXPECT_NEAR(GeoMean(std::vector<double>{1.0, 4.0}), 2.0, 1e-12);
}

TEST(StatsDeath, EmptyInputAborts) {
  EXPECT_DEATH(Mean(std::vector<double>{}), "PANDIA_CHECK");
  EXPECT_DEATH(Median(std::vector<double>{}), "PANDIA_CHECK");
  EXPECT_DEATH(Min(std::vector<double>{}), "PANDIA_CHECK");
}

TEST(StatsDeath, GeoMeanRejectsNonPositive) {
  EXPECT_DEATH(GeoMean(std::vector<double>{1.0, 0.0}), "positive");
}

// --- rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextBounded(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, JitterSymmetricRange) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double j = rng.NextJitter(0.05);
    EXPECT_LE(std::fabs(j), 0.05);
    sum += j;
  }
  // Mean jitter is close to zero.
  EXPECT_NEAR(sum / 2000.0, 0.0, 0.005);
}

TEST(Rng, HashCombineDependsOnAllKeys) {
  EXPECT_NE(HashCombine(1, 2, 3), HashCombine(1, 3, 2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 2));
  EXPECT_EQ(HashCombine(1, 2, 3), HashCombine(1, 2, 3));
}

// --- strings ---

TEST(Strings, FormatBasics) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
}

TEST(Strings, FormatEmpty) { EXPECT_EQ(StrFormat("%s", ""), ""); }

TEST(Strings, FormatLongOutput) {
  const std::string s = StrFormat("%0512d", 7);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '7');
}

TEST(Strings, SplitKeepsEmptyFields) {
  const std::vector<std::string> fields = StrSplit("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitNoSeparator) {
  const std::vector<std::string> fields = StrSplit("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

// --- status ---

// Counts its copies, so a test can tell a move from a copy.
struct CopyCounted {
  explicit CopyCounted(int* counter) : copies(counter) {}
  CopyCounted(const CopyCounted& other) : copies(other.copies) { ++*copies; }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted&) = delete;
  CopyCounted& operator=(CopyCounted&&) = delete;
  int* copies;
};

TEST(StatusOr, DereferencingAnRvalueMovesTheValue) {
  int copies = 0;
  StatusOr<CopyCounted> moved{CopyCounted(&copies)};
  ASSERT_EQ(copies, 0);
  const CopyCounted taken = *std::move(moved);
  EXPECT_EQ(copies, 0);
  StatusOr<CopyCounted> kept{CopyCounted(&copies)};
  const CopyCounted copied = *kept;
  EXPECT_EQ(copies, 1);
  EXPECT_EQ(taken.copies, copied.copies);
}

// --- table ---

TEST(Table, CountsRows) {
  Table t({"a", "b"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableDeath, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "arity");
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "v"});
  t.AddRow({"x", "10"});
  t.AddRow({"longer", "2"});
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  t.Print(tmp);
  std::rewind(tmp);
  char buffer[256];
  ASSERT_NE(std::fgets(buffer, sizeof buffer, tmp), nullptr);
  EXPECT_EQ(std::string(buffer), "name    v \n");
  std::fclose(tmp);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  t.PrintCsv(tmp);
  std::rewind(tmp);
  char buffer[64];
  ASSERT_NE(std::fgets(buffer, sizeof buffer, tmp), nullptr);
  EXPECT_EQ(std::string(buffer), "a,b\n");
  ASSERT_NE(std::fgets(buffer, sizeof buffer, tmp), nullptr);
  EXPECT_EQ(std::string(buffer), "1,2\n");
  std::fclose(tmp);
}

TEST(Crc32c, EmptyInputIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32c, Rfc3720CheckValue) {
  // The CRC32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32c, SensitiveToEveryByte) {
  EXPECT_NE(Crc32c("ADMITTED name=web"), Crc32c("ADMITTED name=wec"));
  EXPECT_NE(Crc32c("a"), Crc32c(std::string("a\0", 2)));
  EXPECT_NE(Crc32c("ab"), Crc32c("ba"));
}

TEST(Crc32c, ExtendComposesLikeOneShot) {
  const std::string text = "pandia journal record payload";
  for (size_t split = 0; split <= text.size(); ++split) {
    uint32_t crc = ExtendCrc32c(0, text.substr(0, split));
    crc = ExtendCrc32c(crc, text.substr(split));
    EXPECT_EQ(crc, Crc32c(text)) << "split at " << split;
  }
}

// The table-driven CRC against the bitwise definition: every length from 0
// to 4,096 bytes at every start offset 0-7, so each alignment and each tail
// length of the eight-byte loop is covered. The bitwise CRC of each prefix
// extends the previous one by a byte.
TEST(Crc32c, MatchesTheBitwiseDefinition) {
  constexpr size_t kMaxLength = 4096;
  Rng rng(3720);
  std::string bytes(kMaxLength + 8, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.NextU64());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    const std::string_view data(bytes.data() + offset, kMaxLength);
    uint32_t bitwise = ~0u;
    for (size_t length = 0;; ++length) {
      ASSERT_EQ(Crc32c(data.substr(0, length)), ~bitwise)
          << "offset " << offset << ", length " << length;
      if (length == kMaxLength) {
        break;
      }
      bitwise ^= static_cast<uint8_t>(data[length]);
      for (int bit = 0; bit < 8; ++bit) {
        bitwise = (bitwise >> 1) ^ ((bitwise & 1u) ? 0x82F63B78u : 0u);
      }
    }
  }
}

// The standard FNV-1a 64 vectors. rack::FleetHash places shards on the
// consistent-hash ring with this hash, so its values must never move.
TEST(Fnv1a64, MatchesTheStandardVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
}

// --- runtime lock-rank checker (on in every test binary: test_main.cc) ---

TEST(LockRankRuntime, ConformingAscendingOrderPasses) {
  util::Mutex low{"util_test.low", 1};
  util::Mutex high{"util_test.high", 2};
  {
    util::MutexLock outer(low);
    util::MutexLock inner(high);
    EXPECT_EQ(util::lock_rank_internal::HeldCountForTest(), 2u);
  }
  EXPECT_EQ(util::lock_rank_internal::HeldCountForTest(), 0u);
}

TEST(LockRankRuntime, UnrankedMutexesAreExempt) {
  util::Mutex ranked{"util_test.ranked", 5};
  util::Mutex plain;  // unranked: neither checked nor recorded
  ranked.Lock();
  plain.Lock();  // lower "rank" conceptually, but exempt — no death
  EXPECT_EQ(util::lock_rank_internal::HeldCountForTest(), 1u);
  plain.Unlock();
  ranked.Unlock();
}

TEST(LockRankRuntime, TryLockRecordsWithoutChecking) {
  util::Mutex low{"util_test.try_low", 1};
  util::Mutex high{"util_test.try_high", 2};
  high.Lock();
  // A try-acquisition cannot deadlock, so the inversion is tolerated — but
  // the hold is recorded so later blocking acquisitions see it.
  ASSERT_TRUE(low.TryLock());
  EXPECT_EQ(util::lock_rank_internal::HeldCountForTest(), 2u);
  low.Unlock();
  high.Unlock();
  EXPECT_EQ(util::lock_rank_internal::HeldCountForTest(), 0u);
}

TEST(LockRankDeathTest, InversionDiesNamingBothLocks) {
  util::Mutex low{"util_test.death_low", 1};
  util::Mutex high{"util_test.death_high", 2};
  high.Lock();
  EXPECT_DEATH(low.Lock(),
               "lock rank inversion.*util_test\\.death_low.*rank 1.*"
               "util_test\\.death_high.*rank 2");
  high.Unlock();
}

TEST(LockRankDeathTest, EqualRanksAlsoDie) {
  util::Mutex first{"util_test.eq_first", 7};
  util::Mutex second{"util_test.eq_second", 7};
  first.Lock();
  EXPECT_DEATH(second.Lock(), "lock rank inversion");
  first.Unlock();
}

}  // namespace
}  // namespace pandia
