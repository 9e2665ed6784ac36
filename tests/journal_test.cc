// src/serve/journal: the durable checksummed journal v2 — the recovery
// matrix (round-trip, torn tail vs mid-file corruption, torn snapshot,
// sequence gaps, foreign headers), compaction atomicity (snapshot rewrite,
// stale tmp cleanup, sequence continuity), sync policies, and the
// service-level degraded mode that injected append failures drive.
#include "src/serve/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/serialize/serialize.h"
#include "src/serve/service.h"
#include "src/util/crc32c.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace serve {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

wire::Request Note(const std::string& value) {
  wire::Request request;
  request.verb = "NOTE";
  request.params.emplace_back("kind", value);
  return request;
}

// Frames a payload exactly as the journal does — the handcrafted-corpus
// counterpart of the implementation's framing.
std::string Framed(uint64_t seq, const std::string& payload) {
  return StrFormat("%llu %08x %zu %s\n", static_cast<unsigned long long>(seq),
                   Crc32c(payload), payload.size(), payload.c_str());
}

Journal MustOpen(const std::string& path, JournalOptions options = {}) {
  StatusOr<Journal> journal = Journal::Open(path, options);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  return std::move(*journal);
}

TEST(Journal, FreshJournalRoundTripsRecords) {
  const std::string path = TempPath("journal_roundtrip.wire");
  {
    Journal journal = MustOpen(path);
    EXPECT_EQ(journal.next_seq(), 1u);
    EXPECT_EQ(journal.record_count(), 0u);
    ASSERT_TRUE(journal.Append(Note("one")).ok());
    ASSERT_TRUE(journal.Append(Note("two")).ok());
    ASSERT_TRUE(journal.Append(Note("three")).ok());
    EXPECT_EQ(journal.next_seq(), 4u);
  }
  Journal replayed = MustOpen(path);
  EXPECT_FALSE(replayed.recovery().truncated_torn_tail);
  ASSERT_EQ(replayed.recovery().records.size(), 3u);
  // Line numbers are exact: the magic is line 1, records start at line 2.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replayed.recovery().records[i].request.verb, "NOTE");
    EXPECT_EQ(replayed.recovery().records[i].line, i + 2);
  }
  EXPECT_EQ(*replayed.recovery().records[0].request.Find("kind"), "one");
  EXPECT_EQ(*replayed.recovery().records[2].request.Find("kind"), "three");
  EXPECT_EQ(replayed.next_seq(), 4u);
  std::remove(path.c_str());
}

TEST(Journal, TornFinalRecordIsTruncatedAndAppendingContinues) {
  const std::string path = TempPath("journal_torn_tail.wire");
  {
    Journal journal = MustOpen(path);
    ASSERT_TRUE(journal.Append(Note("kept")).ok());
  }
  // Simulate a crash mid-append: half of a framed record, no newline.
  const std::string torn = Framed(2, wire::FormatRequest(Note("torn")));
  {
    const StatusOr<std::string> text = ReadTextFile(path);
    ASSERT_TRUE(text.ok());
    ASSERT_TRUE(
        WriteTextFile(path, *text + torn.substr(0, torn.size() / 2)).ok());
  }
  Journal recovered = MustOpen(path);
  EXPECT_TRUE(recovered.recovery().truncated_torn_tail);
  EXPECT_EQ(recovered.recovery().truncated_bytes, torn.size() / 2);
  ASSERT_EQ(recovered.recovery().records.size(), 1u);
  EXPECT_EQ(*recovered.recovery().records[0].request.Find("kind"), "kept");
  // The torn record was never acknowledged; its sequence number is reused.
  EXPECT_EQ(recovered.next_seq(), 2u);
  ASSERT_TRUE(recovered.Append(Note("after")).ok());

  Journal clean = MustOpen(path);
  EXPECT_FALSE(clean.recovery().truncated_torn_tail);
  ASSERT_EQ(clean.recovery().records.size(), 2u);
  EXPECT_EQ(*clean.recovery().records[1].request.Find("kind"), "after");
  std::remove(path.c_str());
}

// EscapeValue leaves a NUL byte alone, so a wire value and with it a record
// payload may hold one. The frame carries the payload by length, and the
// record replays unchanged.
TEST(Journal, PayloadWithNulByteRoundTrips) {
  const std::string path = TempPath("journal_nul.wire");
  const wire::Request record = Note(std::string("a\0b", 3));
  {
    Journal journal = MustOpen(path);
    ASSERT_TRUE(journal.Append(record).ok());
  }
  StatusOr<Journal> replayed = Journal::Open(path, JournalOptions{});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_FALSE(replayed->recovery().truncated_torn_tail);
  ASSERT_EQ(replayed->recovery().records.size(), 1u);
  EXPECT_EQ(replayed->recovery().records[0].request.verb, record.verb);
  EXPECT_EQ(replayed->recovery().records[0].request.params, record.params);
  std::remove(path.c_str());
}

TEST(Journal, CompleteButUnterminatedFinalRecordIsAlsoATear) {
  const std::string path = TempPath("journal_no_newline.wire");
  {
    Journal journal = MustOpen(path);
    ASSERT_TRUE(journal.Append(Note("kept")).ok());
    ASSERT_TRUE(journal.Append(Note("unterminated")).ok());
  }
  {
    const StatusOr<std::string> text = ReadTextFile(path);
    ASSERT_TRUE(text.ok());
    ASSERT_TRUE(WriteTextFile(path, text->substr(0, text->size() - 1)).ok());
  }
  // Keeping the record would glue the next append onto its line; recovery
  // treats the missing separator as part of the tear.
  Journal recovered = MustOpen(path);
  EXPECT_TRUE(recovered.recovery().truncated_torn_tail);
  ASSERT_EQ(recovered.recovery().records.size(), 1u);
  EXPECT_EQ(*recovered.recovery().records[0].request.Find("kind"), "kept");
  std::remove(path.c_str());
}

TEST(Journal, MidFileCorruptionIsRefusedWithTheExactLine) {
  const std::string path = TempPath("journal_midfile.wire");
  {
    Journal journal = MustOpen(path);
    ASSERT_TRUE(journal.Append(Note("first")).ok());
    ASSERT_TRUE(journal.Append(Note("second")).ok());
    ASSERT_TRUE(journal.Append(Note("third")).ok());
  }
  StatusOr<std::string> text = ReadTextFile(path);
  ASSERT_TRUE(text.ok());
  // Flip one payload byte of the SECOND record (file line 3): the CRC now
  // mismatches before the final record, which is corruption, not a tear.
  const size_t at = text->find("second");
  ASSERT_NE(at, std::string::npos);
  (*text)[at] = 'X';
  ASSERT_TRUE(WriteTextFile(path, *text).ok());

  StatusOr<Journal> refused = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find("journal line 3"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("checksum mismatch"),
            std::string::npos)
      << refused.status().ToString();
  std::remove(path.c_str());
}

TEST(Journal, BadLengthAndBadSequenceAreCorruption) {
  const std::string path = TempPath("journal_frame_defects.wire");
  const std::string payload = wire::FormatRequest(Note("x"));
  // Length field disagrees with the payload, mid-file.
  ASSERT_TRUE(WriteTextFile(path, "pandia-journal v2\n" +
                                      StrFormat("1 %08x 999 %s\n",
                                                Crc32c(payload),
                                                payload.c_str()) +
                                      Framed(2, payload))
                  .ok());
  StatusOr<Journal> bad_length = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(bad_length.ok());
  EXPECT_EQ(bad_length.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad_length.status().message().find("journal line 2"),
            std::string::npos);

  // A sequence gap mid-file: record 2 claims seq 7.
  ASSERT_TRUE(WriteTextFile(path, "pandia-journal v2\n" + Framed(1, payload) +
                                      Framed(7, payload) + Framed(3, payload))
                  .ok());
  StatusOr<Journal> bad_seq = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(bad_seq.ok());
  EXPECT_EQ(bad_seq.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad_seq.status().message().find("journal line 3"),
            std::string::npos)
      << bad_seq.status().ToString();
  std::remove(path.c_str());
}

// Only the snapshot a compaction wrote may start the file above 1. A file
// whose first record is any other record above 1 lost the records before
// it, like a gap mid-file.
TEST(Journal, LeadingRecordsMissingIsCorruption) {
  const std::string path = TempPath("journal_leading_gap.wire");
  const std::string note = wire::FormatRequest(Note("probe"));
  ASSERT_TRUE(WriteTextFile(path, "pandia-journal v2\n" + Framed(5, note) +
                                      Framed(6, note))
                  .ok());
  StatusOr<Journal> refused = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find(
                "journal line 2: sequence 5 where 1 was expected"),
            std::string::npos)
      << refused.status().ToString();
  std::remove(path.c_str());
}

TEST(Journal, TornSnapshotIsRefusedEvenAtTheTail) {
  const std::string path = TempPath("journal_torn_snapshot.wire");
  const std::string line = Framed(1, "SNAPSHOT mutation-seq=9");
  // Final record, torn mid-payload — but it is a SNAPSHOT, which only
  // reaches disk via fsync-then-rename. Truncating it would drop the whole
  // compacted history, so recovery must refuse.
  ASSERT_TRUE(WriteTextFile(path, "pandia-journal v2\n" +
                                      line.substr(0, line.size() - 4))
                  .ok());
  StatusOr<Journal> refused = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find("snapshot record is truncated"),
            std::string::npos)
      << refused.status().ToString();
  std::remove(path.c_str());
}

TEST(Journal, CompactionRewritesToOneSnapshotAndKeepsSequencing) {
  const std::string path = TempPath("journal_compact.wire");
  // A stale tmp from a crashed compaction must be swept on Open.
  ASSERT_TRUE(WriteTextFile(path + ".tmp", "leftover").ok());
  Journal journal = MustOpen(path);
  ASSERT_EQ(ReadTextFile(path + ".tmp").ok(), false);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(journal.Append(Note(StrFormat("r%d", i))).ok());
  }
  const uint64_t seq_before = journal.next_seq();
  // A SNAPSHOT-verb stand-in: only a snapshot may lead the file above 1.
  wire::Request snapshot = Note("snapshot-stand-in");
  snapshot.verb = "SNAPSHOT";
  ASSERT_TRUE(journal.Compact(snapshot).ok());
  EXPECT_EQ(journal.record_count(), 1u);
  EXPECT_EQ(journal.records_since_snapshot(), 0u);
  // The snapshot took seq_before; appends continue monotonically after it.
  EXPECT_EQ(journal.next_seq(), seq_before + 1);
  ASSERT_TRUE(journal.Append(Note("post")).ok());

  Journal replayed = MustOpen(path);
  ASSERT_EQ(replayed.recovery().records.size(), 2u);
  EXPECT_EQ(*replayed.recovery().records[0].request.Find("kind"),
            "snapshot-stand-in");
  EXPECT_EQ(*replayed.recovery().records[1].request.Find("kind"), "post");
  EXPECT_EQ(replayed.next_seq(), seq_before + 2);
  std::remove(path.c_str());
}

TEST(Journal, SyncPolicyNamesRoundTrip) {
  for (const SyncPolicy policy :
       {SyncPolicy::kNone, SyncPolicy::kInterval, SyncPolicy::kEveryRecord}) {
    const StatusOr<SyncPolicy> parsed = SyncPolicyFromName(SyncPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(SyncPolicyFromName("sometimes").ok());
}

TEST(Journal, EveryRecordSyncPolicyAppendsFine) {
  const std::string path = TempPath("journal_every_record.wire");
  JournalOptions options;
  options.sync = SyncPolicy::kEveryRecord;
  Journal journal = MustOpen(path, options);
  ASSERT_TRUE(journal.Append(Note("durable")).ok());
  ASSERT_TRUE(journal.Sync().ok());
  std::remove(path.c_str());
}

TEST(Journal, FailedAppendsRestoreTheTailByteForByte) {
  const std::string path = TempPath("journal_injected.wire");
  Journal journal = MustOpen(path);
  ASSERT_TRUE(journal.Append(Note("before")).ok());
  const uint64_t size_before = journal.size_bytes();
  const StatusOr<std::string> bytes_before = ReadTextFile(path);
  ASSERT_TRUE(bytes_before.ok());
  // Each injected failure spills half a record into the file before
  // failing; the tail repair must erase exactly those bytes, or the next
  // append would glue onto a mid-line fragment.
  journal.InjectAppendFailures(2);
  for (int i = 0; i < 2; ++i) {
    const Status failed = journal.Append(Note("lost"));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(journal.size_bytes(), size_before);
  EXPECT_EQ(journal.record_count(), 1u);
  const StatusOr<std::string> bytes_after = ReadTextFile(path);
  ASSERT_TRUE(bytes_after.ok());
  EXPECT_EQ(*bytes_after, *bytes_before);
  ASSERT_TRUE(journal.Append(Note("after")).ok());
  Journal replayed = MustOpen(path);
  EXPECT_FALSE(replayed.recovery().truncated_torn_tail);
  ASSERT_EQ(replayed.recovery().records.size(), 2u);
  EXPECT_EQ(*replayed.recovery().records[1].request.Find("kind"), "after");
  std::remove(path.c_str());
}

TEST(Journal, InjectedFailuresCanSkipLeadingAppends) {
  const std::string path = TempPath("journal_injected_after.wire");
  Journal journal = MustOpen(path);
  journal.InjectAppendFailures(1, /*after=*/1);
  ASSERT_TRUE(journal.Append(Note("first-lands")).ok());
  const Status failed = journal.Append(Note("second-fails"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(journal.Append(Note("third-lands")).ok());
  Journal replayed = MustOpen(path);
  ASSERT_EQ(replayed.recovery().records.size(), 2u);
  EXPECT_EQ(*replayed.recovery().records[0].request.Find("kind"),
            "first-lands");
  EXPECT_EQ(*replayed.recovery().records[1].request.Find("kind"),
            "third-lands");
  std::remove(path.c_str());
}

TEST(Journal, TailDefectsATearCannotProduceAreRefused) {
  const std::string path = TempPath("journal_tail_corruption.wire");
  const std::string first = Framed(1, wire::FormatRequest(Note("alpha")));
  const std::string second = Framed(2, wire::FormatRequest(Note("beta")));

  // A terminated final record with a flipped payload byte: the newline
  // proves the whole line landed, so this is bit-rot, not a tear.
  std::string flipped = second;
  flipped[flipped.size() - 2] ^= 0x01;
  ASSERT_TRUE(
      WriteTextFile(path, "pandia-journal v2\n" + first + flipped).ok());
  StatusOr<Journal> terminated_bad_crc = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(terminated_bad_crc.ok());
  EXPECT_EQ(terminated_bad_crc.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(terminated_bad_crc.status().message().find("checksum mismatch"),
            std::string::npos)
      << terminated_bad_crc.status().ToString();

  // Unterminated, but the payload is full length and the CRC mismatches: a
  // tear only removes a suffix, it cannot alter bytes — refuse.
  std::string unterminated = flipped;
  unterminated.pop_back();
  ASSERT_TRUE(
      WriteTextFile(path, "pandia-journal v2\n" + first + unterminated).ok());
  StatusOr<Journal> full_length_bad_crc = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(full_length_bad_crc.ok());
  EXPECT_EQ(full_length_bad_crc.status().code(), StatusCode::kDataLoss)
      << full_length_bad_crc.status().ToString();

  // A checksum-valid final record with the wrong sequence number (even
  // unterminated): the payload bytes all landed, so the bad sequence is a
  // writer bug on a possibly-acknowledged record — refuse.
  std::string wrong_seq = Framed(7, wire::FormatRequest(Note("beta")));
  wrong_seq.pop_back();
  ASSERT_TRUE(
      WriteTextFile(path, "pandia-journal v2\n" + first + wrong_seq).ok());
  StatusOr<Journal> bad_seq = Journal::Open(path, JournalOptions{});
  ASSERT_FALSE(bad_seq.ok());
  EXPECT_EQ(bad_seq.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad_seq.status().message().find("sequence 7 where 2 was expected"),
            std::string::npos)
      << bad_seq.status().ToString();
  std::remove(path.c_str());
}

TEST(Journal, RefusesAnyOtherHeader) {
  // Only the v2 magic opens. An older "pandia-journal v1" file (raw request
  // lines, no checksums) is refused like any other non-journal — whole or
  // with its header torn — and left byte-for-byte as found.
  const std::string path = TempPath("journal_other_header.wire");
  const std::vector<std::string> files = {
      "pandia-journal v1\nNOTE kind=legacy\n",
      "pandia-journal v1",
      "pandia-journal v3\n" + Framed(1, wire::FormatRequest(Note("future"))),
      "NOTE kind=headerless\n",
  };
  for (const std::string& text : files) {
    SCOPED_TRACE(text);
    ASSERT_TRUE(WriteTextFile(path, text).ok());
    const StatusOr<Journal> journal = Journal::Open(path, JournalOptions{});
    ASSERT_FALSE(journal.ok());
    EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss)
        << journal.status().ToString();
    EXPECT_NE(journal.status().message().find("pandia-journal v2"),
              std::string::npos)
        << journal.status().ToString();
    const StatusOr<std::string> after = ReadTextFile(path);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, text);
  }
  std::remove(path.c_str());
}

// --- service-level: degraded mode, COMPACT ------------------------------

const eval::Pipeline& X3() {
  static const eval::Pipeline* pipeline = new eval::Pipeline("x3-2");
  return *pipeline;
}

const std::string& DescriptionText(const std::string& workload) {
  static std::map<std::string, std::string>* cache =
      new std::map<std::string, std::string>();
  auto it = cache->find(workload);
  if (it == cache->end()) {
    it = cache
             ->emplace(workload, WorkloadDescriptionToText(
                                     X3().Profile(workloads::ByName(workload))))
             .first;
  }
  return it->second;
}

std::vector<rack::RackMachine> TwoNodeRack() {
  std::vector<rack::RackMachine> machines;
  for (int i = 0; i < 2; ++i) {
    machines.push_back({StrFormat("node%d", i), X3().description()});
  }
  return machines;
}

std::string AdmitLine(const std::string& name, const std::string& workload,
                      int threads, const std::string& policy = "") {
  wire::Request request;
  request.verb = "ADMIT";
  request.params.emplace_back("name", name);
  request.params.emplace_back("threads", StrFormat("%d", threads));
  if (!policy.empty()) {
    request.params.emplace_back("policy", policy);
  }
  request.params.emplace_back("desc.x3-2", DescriptionText(workload));
  return wire::FormatRequest(request);
}

PlacementService MustCreate(std::vector<rack::RackMachine> machines,
                            ServiceOptions options) {
  StatusOr<PlacementService> service =
      PlacementService::Create(std::move(machines), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

bool IsOkBlock(const std::string& block) { return block.rfind("ok ", 0) == 0; }
bool IsErrBlock(const std::string& block) { return block.rfind("err ", 0) == 0; }

TEST(ServiceDegraded, PersistentAppendFailureEntersReadOnlyModeAndRecovers) {
  const std::string journal = TempPath("service_degraded.wire");
  ServiceOptions options;
  options.journal_path = journal;
  PlacementService service = MustCreate(TwoNodeRack(), options);
  // Appends 1-5 fail, everything after succeeds. With the default threshold
  // of 3 consecutive failures the service degrades on the third admit.
  service.journal_for_test()->InjectAppendFailures(5);

  const std::string telemetry_before = service.HandleLine("TELEMETRY");
  for (int i = 0; i < 3; ++i) {
    const std::string response =
        service.HandleLine(AdmitLine(StrFormat("job%d", i), "EP", 2));
    ASSERT_TRUE(IsErrBlock(response)) << response;
    EXPECT_NE(response.find("unavailable"), std::string::npos) << response;
  }
  EXPECT_TRUE(service.degraded());
  // A mutation applies only after its record is durable, so the failed
  // appends left the rack untouched: TELEMETRY is byte-identical to never
  // having tried.
  EXPECT_EQ(service.HandleLine("TELEMETRY"), telemetry_before);

  // Read verbs keep serving; mutating verbs are refused with a read-only
  // hint and the gauge reports the mode.
  EXPECT_TRUE(IsOkBlock(service.HandleLine("STATUS")));
  const std::string metrics = service.HandleLine("METRICS format=expo");
  EXPECT_NE(metrics.find("serve.degraded 1"), std::string::npos) << metrics;
  const std::string refused = service.HandleLine(AdmitLine("jobx", "EP", 2));
  ASSERT_TRUE(IsErrBlock(refused)) << refused;
  EXPECT_NE(refused.find("read-only"), std::string::npos) << refused;

  // That refusal burned injected failure #4 as a probe; #5 fails the next
  // probe too; the probe after that succeeds and service resumes.
  ASSERT_TRUE(IsErrBlock(service.HandleLine(AdmitLine("joby", "EP", 2))));
  const std::string recovered = service.HandleLine(AdmitLine("jobz", "EP", 2));
  ASSERT_TRUE(IsOkBlock(recovered)) << recovered;
  EXPECT_FALSE(service.degraded());
  EXPECT_NE(service.HandleLine("METRICS format=expo").find("serve.degraded 0"),
            std::string::npos);
  std::remove(journal.c_str());
}

TEST(ServiceDegraded, DepartStaysAcknowledgedWhenReplacementJournalFails) {
  const std::string journal = TempPath("service_depart_warning.wire");
  ServiceOptions options;
  options.journal_path = journal;
  // Any re-placement candidate beats a negative margin, so departing one of
  // the two hogs deterministically makes the service try to re-place the
  // survivor (a journaled MOVED).
  options.replace_margin = -1.0;
  std::vector<rack::RackMachine> machines{{"node0", X3().description()}};
  std::optional<PlacementService> service(
      MustCreate(std::move(machines), options));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("hog-a", "Swim", 16))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("hog-b", "Swim", 16))));
  // The DEPARTED append lands; the MOVED append of the follow-up
  // re-placement fails. The departure is durable and applied, so the
  // response must stay ok — converting it to an error would tell the
  // client a committed mutation failed (and a retry would get 'not
  // resident'). The move whose record failed never happens and is reported
  // as a warning row.
  ASSERT_NE(service->journal_for_test(), nullptr);
  service->journal_for_test()->InjectAppendFailures(1, /*after=*/1);
  const std::string departed = service->HandleLine("DEPART name=hog-a");
  ASSERT_TRUE(IsOkBlock(departed)) << departed;
  EXPECT_EQ(service->rack().JobCount(), 1);
  ASSERT_NE(departed.find("warning = "), std::string::npos) << departed;
  EXPECT_NE(departed.find("re-placement skipped"), std::string::npos)
      << departed;
  // The unjournaled move must not be reported as having happened.
  EXPECT_EQ(departed.find("moved = "), std::string::npos) << departed;
  // The acknowledged state matches the journal: a restart replays to the
  // same bytes.
  const std::string status = service->HandleLine("STATUS");
  const std::string telemetry = service->HandleLine("TELEMETRY");
  service.reset();
  std::vector<rack::RackMachine> machines_again{{"node0", X3().description()}};
  std::optional<PlacementService> replayed(
      MustCreate(std::move(machines_again), options));
  EXPECT_EQ(replayed->HandleLine("STATUS"), status);
  EXPECT_EQ(replayed->HandleLine("TELEMETRY"), telemetry);
  std::remove(journal.c_str());
}

// Every mutation appends its record before it applies, so a failed append
// leaves no trace: not in STATUS or TELEMETRY, not in the rack's mutation
// counters, and not in what a restart replays. One failure is injected at
// each mutation site: ADMIT, DEPART, a REBALANCE move, and the neighbour
// move that follows a journaled DEPART.
TEST(ServiceDegraded, FailedAppendLeavesNoTrace) {
  const std::string journal = TempPath("service_failed_append.wire");
  ServiceOptions options;
  options.journal_path = journal;
  // Every re-placement clears a negative margin, so DEPART and REBALANCE
  // always try to move a job.
  options.replace_margin = -1.0;
  // The failures below come back to back; none may switch the service to
  // read-only mode.
  options.degraded_failure_threshold = 10;
  std::optional<PlacementService> service(MustCreate(TwoNodeRack(), options));
  // First fit stacks both hogs on node0; c then lands on node1.
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("a", "Swim", 16, "first-fit"))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("b", "Swim", 16, "first-fit"))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("c", "EP", 4))));
  ASSERT_EQ(service->rack().JobsOn(0).size(), 2u);
  ASSERT_NE(service->journal_for_test(), nullptr);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto counts = [&] {
    return std::vector<uint64_t>{registry.counter("rack.admissions").value(),
                                 registry.counter("rack.departures").value(),
                                 registry.counter("rack.moves").value()};
  };
  const std::string status = service->HandleLine("STATUS");
  const std::string telemetry = service->HandleLine("TELEMETRY");
  const std::vector<uint64_t> before = counts();
  for (const std::string& line :
       {AdmitLine("d", "EP", 4), std::string("DEPART name=c"),
        std::string("REBALANCE max-migrations=1")}) {
    service->journal_for_test()->InjectAppendFailures(1);
    const std::string response = service->HandleLine(line);
    const std::string verb = line.substr(0, line.find(' '));
    EXPECT_TRUE(IsErrBlock(response)) << verb << " -> " << response;
    EXPECT_NE(response.find("unavailable"), std::string::npos) << response;
    EXPECT_EQ(service->HandleLine("STATUS"), status) << verb;
    EXPECT_EQ(service->HandleLine("TELEMETRY"), telemetry) << verb;
    EXPECT_EQ(counts(), before) << verb;
  }
  EXPECT_FALSE(service->degraded());

  // The DEPARTED append lands, so the departure applies; b's MOVED append
  // fails, so b stays where it is and the response says so.
  service->journal_for_test()->InjectAppendFailures(1, /*after=*/1);
  const std::string departed = service->HandleLine("DEPART name=a");
  ASSERT_TRUE(IsOkBlock(departed)) << departed;
  EXPECT_NE(departed.find("warning = "), std::string::npos) << departed;
  EXPECT_EQ(departed.find("moved = "), std::string::npos) << departed;
  EXPECT_EQ(counts(), (std::vector<uint64_t>{before[0], before[1] + 1, before[2]}));
  const std::string status_after = service->HandleLine("STATUS");
  const std::string telemetry_after = service->HandleLine("TELEMETRY");
  EXPECT_NE(status_after, status);

  service.reset();
  std::optional<PlacementService> replayed(MustCreate(TwoNodeRack(), options));
  EXPECT_EQ(replayed->HandleLine("STATUS"), status_after);
  EXPECT_EQ(replayed->HandleLine("TELEMETRY"), telemetry_after);
  std::remove(journal.c_str());
}

// A REBALANCE whose later MOVED append fails keeps the migrations that
// landed: the reply stays ok, lists them, and names the stop, and a restart
// replays exactly them.
TEST(ServiceDegraded, RebalanceKeepsLandedMigrationsWhenALaterAppendFails) {
  const std::string journal = TempPath("service_rebalance_stop.wire");
  ServiceOptions options;
  options.journal_path = journal;
  // Every re-placement clears a negative margin, so each round moves a job.
  options.replace_margin = -1.0;
  std::optional<PlacementService> service(MustCreate(TwoNodeRack(), options));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("a", "Swim", 8))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("b", "EP", 8))));
  service->journal_for_test()->InjectAppendFailures(1, /*after=*/1);
  const std::string rebalanced = service->HandleLine("REBALANCE max-migrations=2");
  ASSERT_TRUE(IsOkBlock(rebalanced)) << rebalanced;
  EXPECT_NE(rebalanced.find("migrations = 1\n"), std::string::npos) << rebalanced;
  EXPECT_NE(rebalanced.find("moved = "), std::string::npos) << rebalanced;
  EXPECT_NE(rebalanced.find("warning = rebalance stopped: "), std::string::npos)
      << rebalanced;
  const std::string status = service->HandleLine("STATUS");
  const std::string telemetry = service->HandleLine("TELEMETRY");
  EXPECT_NE(telemetry.find("moves=1"), std::string::npos) << telemetry;
  service.reset();
  std::optional<PlacementService> replayed(MustCreate(TwoNodeRack(), options));
  EXPECT_EQ(replayed->HandleLine("STATUS"), status);
  EXPECT_EQ(replayed->HandleLine("TELEMETRY"), telemetry);
  std::remove(journal.c_str());
}

TEST(ServiceCompact, CompactVerbSnapshotsAndRestartIsByteIdentical) {
  const std::string journal = TempPath("service_compact.wire");
  ServiceOptions options;
  options.journal_path = journal;
  std::optional<PlacementService> service(MustCreate(TwoNodeRack(), options));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("web", "EP", 2))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("db", "MD", 2))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("cache", "CG", 1))));
  (void)service->HandleLine("REBALANCE max-migrations=2");
  ASSERT_TRUE(IsOkBlock(service->HandleLine("DEPART name=db")));

  const std::string status_before = service->HandleLine("STATUS");
  const std::string telemetry_before = service->HandleLine("TELEMETRY");

  const std::string compacted = service->HandleLine("COMPACT");
  ASSERT_TRUE(IsOkBlock(compacted)) << compacted;
  EXPECT_NE(compacted.find("records-before = "), std::string::npos);
  EXPECT_NE(compacted.find("records-after = 1"), std::string::npos);
  EXPECT_NE(compacted.find("reclaimed-bytes = "), std::string::npos);
  // Compaction itself mutates no rack state.
  EXPECT_EQ(service->HandleLine("STATUS"), status_before);
  EXPECT_EQ(service->HandleLine("TELEMETRY"), telemetry_before);
  EXPECT_TRUE(IsErrBlock(service->HandleLine("COMPACT now=1")));

  service.reset();  // the "kill"
  std::optional<PlacementService> replayed(MustCreate(TwoNodeRack(), options));
  // Restart replays exactly one SNAPSHOT record (the post-snapshot suffix
  // is empty) and reproduces the full state byte for byte.
  ASSERT_NE(replayed->journal_for_test(), nullptr);
  EXPECT_EQ(replayed->journal_for_test()->record_count(), 1u);
  EXPECT_EQ(replayed->HandleLine("STATUS"), status_before);
  EXPECT_EQ(replayed->HandleLine("TELEMETRY"), telemetry_before);

  // The revived journal keeps accepting post-snapshot mutations.
  ASSERT_TRUE(IsOkBlock(replayed->HandleLine(AdmitLine("more", "EP", 1))));
  std::remove(journal.c_str());
}

TEST(ServiceCompact, CompactWithoutAJournalIsAFailedPrecondition) {
  PlacementService service = MustCreate(TwoNodeRack(), ServiceOptions{});
  const std::string response = service.HandleLine("COMPACT");
  ASSERT_TRUE(IsErrBlock(response)) << response;
  EXPECT_NE(response.find("failed-precondition"), std::string::npos);
}

TEST(ServiceCompact, AutomaticCompactionFiresWhenTheLiveRatioDrops) {
  const std::string journal = TempPath("service_autocompact.wire");
  ServiceOptions options;
  options.journal_path = journal;
  options.compact_min_records = 8;  // tiny threshold so the test is fast
  options.compact_live_ratio = 0.5;
  PlacementService service = MustCreate(TwoNodeRack(), options);
  // Admit+depart churn: every pair adds two records but zero live jobs, so
  // the live ratio decays toward 0 and crosses 0.5 past 8 records.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        IsOkBlock(service.HandleLine(AdmitLine(StrFormat("t%d", i), "EP", 1))));
    ASSERT_TRUE(
        IsOkBlock(service.HandleLine(StrFormat("DEPART name=t%d", i))));
  }
  ASSERT_NE(service.journal_for_test(), nullptr);
  // Compaction folded the churn into one snapshot; the journal did not keep
  // all 16 records.
  EXPECT_LE(service.journal_for_test()->record_count(), 8u);
  const std::string metrics = service.HandleLine("METRICS format=expo");
  EXPECT_NE(metrics.find("serve.journal.live_ratio"), std::string::npos);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace pandia
