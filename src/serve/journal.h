// The placement service's durable mutation journal — version 2.
//
// A Journal owns every byte of file I/O for one journal path; the service
// (src/serve/service.h) never touches the file directly (the pandia_lint
// rule `no-raw-journal-io` enforces this). The file is line-oriented text:
//
//   journal  = magic LF *( record LF )
//   magic    = "pandia-journal v2"
//   record   = seq SP crc SP len SP payload
//   seq      = 1*DIGIT          ; starts at 1, +1 per record, survives
//                               ; compaction (the snapshot keeps counting,
//                               ; so only a leading SNAPSHOT starts above 1)
//   crc      = 8HEXDIG          ; CRC32C of the payload bytes (lowercase)
//   len      = 1*DIGIT          ; payload length in bytes
//   payload  = wire-v1 request line (src/serialize/wire.h)
//
// Payloads are wire request lines, whose escaping already bans raw
// newlines, so the framing is text-safe: the journal remains a grep-able
// log while every record is independently verifiable. The payload is
// written by length, so it may hold any other byte, a NUL included.
//
// Recovery distinguishes two failure shapes:
//
//   * A torn FINAL record — an UNTERMINATED last line whose defect a
//     sequential write cut short can actually produce (frame fields
//     missing from the end, payload shorter than declared, or only the
//     newline lost) — is truncated away and replay continues; the caller
//     is told via JournalRecovery so it can log the event. Under the
//     kill -9 crash model every acknowledged append was fflush()ed first,
//     so a torn tail can only be an unacknowledged mutation — dropping it
//     is correct, not lossy.
//   * Everything else is corruption: Open refuses with a DataLoss status
//     naming the exact line. That covers any defect BEFORE the final
//     record (silently skipping it would replay a state the daemon never
//     held), but also tail defects a tear cannot cause: a terminated
//     final record with any defect (the newline proves the whole line
//     landed), a CRC mismatch over a full-length payload (a tear only
//     removes a suffix, it cannot alter bytes), or a wrong sequence
//     number on a checksum-valid record (a writer bug, possibly on an
//     acknowledged record). A first record numbered above 1 that is not a
//     SNAPSHOT is wrong too: the records before it are missing.
//
// One exception: a torn SNAPSHOT record is refused even at the tail.
// Snapshots are only written via fsync-then-rename compaction, so a torn
// snapshot means the atomicity contract was violated and truncating would
// silently drop the entire pre-compaction history.
//
// Sync policy: appends always fflush() (page-cache durability — survives
// kill -9); fsync() cadence is configurable: `none` (rely on the kernel),
// `interval` (every N records, the default: bounded loss on power failure
// at a fraction of every-record's latency), `every-record` (fsync before
// acknowledging each mutation).
//
// Compaction rewrites the journal as one SNAPSHOT record: write header +
// snapshot to `<path>.tmp`, fflush+fsync, rename(2) over the journal, fsync
// the directory. A crash at any point leaves either the complete old or the
// complete new journal — never a hybrid — because rename is atomic and the
// tmp is durable before the rename. Stale `<path>.tmp` files from crashed
// compactions are removed on Open.
//
// A file whose first line is anything but the v2 magic (or, unterminated,
// a torn prefix of it) is not a journal — an older "pandia-journal v1"
// file included: Open refuses it with DataLoss and leaves its bytes alone.
//
// A failed append (real or injected) may leave partial — or even
// complete but unacknowledged — record bytes in the file. Append repairs
// that immediately: it discards the stream's buffer, truncates the file
// back to the last acknowledged record, and reopens, so the next write
// never glues onto a dirty tail. If the repair itself fails (the disk is
// already misbehaving) the journal refuses further appends until a retry
// of the repair succeeds.
//
// Test hook (never used in production): InjectAppendFailures makes the
// next N appends fail after spilling half the record into the file —
// exercising exactly the partial-write repair above — which is how the
// degraded-mode and crash-model tests drive disk faults deterministically.
// Crashes need no hook: every acknowledged append is fflush()ed, so the
// file's bytes at any instant are what a kill -9 then would leave, and
// tests/service_crash_model_test.cc recovers from copies of them.
#ifndef PANDIA_SRC_SERVE_JOURNAL_H_
#define PANDIA_SRC_SERVE_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/serialize/wire.h"
#include "src/util/status.h"

namespace pandia {
namespace serve {

enum class SyncPolicy {
  kNone,         // fflush only; fsync left to the kernel
  kInterval,     // fflush every record, fsync every sync_interval_records
  kEveryRecord,  // fflush + fsync before acknowledging every record
};

std::string SyncPolicyName(SyncPolicy policy);
StatusOr<SyncPolicy> SyncPolicyFromName(const std::string& name);

struct JournalOptions {
  SyncPolicy sync = SyncPolicy::kInterval;
  // fsync cadence under SyncPolicy::kInterval (records per fsync).
  int sync_interval_records = 32;
};

// One recovered record with its 1-based line number in the file (line 1 is
// the magic), so replay errors can name the exact line.
struct JournalRecord {
  wire::Request request;
  size_t line = 0;
};

// What Open() found in an existing file.
struct JournalRecovery {
  std::vector<JournalRecord> records;
  // A torn final record was truncated away. The byte count is what was
  // dropped; the caller should log the event.
  bool truncated_torn_tail = false;
  uint64_t truncated_bytes = 0;
};

// A durable record log. Not internally synchronized: the owner serializes
// access (the service holds its Journal under the same mutex as the rack).
class Journal {
 public:
  // Opens (creating if absent) and recovers the journal at `path`. Refuses
  // mid-file corruption with DataLoss naming the line; truncates a torn
  // final record and reports it in recovery().
  static StatusOr<Journal> Open(std::string path, JournalOptions options);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  const std::string& path() const { return path_; }
  const JournalRecovery& recovery() const { return recovery_; }
  // Sequence number the next appended record will carry.
  uint64_t next_seq() const { return next_seq_; }
  // Records currently in the file (snapshot included, header excluded).
  uint64_t record_count() const { return record_count_; }
  // Records appended since the last snapshot (or since the journal began,
  // if it has never been compacted) — the compaction-trigger denominator.
  uint64_t records_since_snapshot() const { return records_since_snapshot_; }
  uint64_t size_bytes() const { return size_bytes_; }

  // Appends one record. On success the record is at least page-cache
  // durable (fflush), fsync'd per the sync policy. A failed append leaves
  // the in-memory counters unchanged AND restores the file to the last
  // acknowledged record (see the tail-repair note above), so a later
  // append continues cleanly.
  [[nodiscard]] Status Append(const wire::Request& record);

  // Atomically replaces the journal with header + `snapshot` (one record
  // carrying the full state; the caller serializes it). The snapshot takes
  // the next sequence number, so seq stays monotonic across compactions.
  [[nodiscard]] Status Compact(const wire::Request& snapshot);

  // Forces an fsync now (e.g. before a clean shutdown).
  [[nodiscard]] Status Sync();

  // Test-only: fail the next `n` appends, after letting `after` appends
  // succeed first. An injected failure spills half the record into the
  // file before failing, like a partial fwrite on a full disk, so it takes
  // the same tail repair a real failure does (see PlacementService degraded
  // mode). Replaces any failures still pending.
  void InjectAppendFailures(int n, int after = 0) {
    fail_next_appends_ = n;
    fail_after_appends_ = after;
  }

 private:
  Journal(std::string path, JournalOptions options);

  void Close();
  Status FsyncNow();
  void RestoreTail();

  std::string path_;
  JournalOptions options_;
  std::FILE* file_ = nullptr;
  JournalRecovery recovery_;
  uint64_t next_seq_ = 1;
  uint64_t record_count_ = 0;
  uint64_t records_since_snapshot_ = 0;
  uint64_t size_bytes_ = 0;
  int records_since_sync_ = 0;
  // A failed append left bytes past the acknowledged tail and the repair
  // (RestoreTail) has not yet succeeded; appends retry it before writing.
  bool dirty_ = false;
  // InjectAppendFailures state: appends still to fail, and appends to let
  // through before the first of them.
  int fail_next_appends_ = 0;
  int fail_after_appends_ = 0;
};

}  // namespace serve
}  // namespace pandia

#endif  // PANDIA_SRC_SERVE_JOURNAL_H_
