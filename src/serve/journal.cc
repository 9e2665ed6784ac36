#include "src/serve/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/clock.h"
#include "src/util/crc32c.h"
#include "src/util/strings.h"

namespace pandia {
namespace serve {
namespace {

constexpr const char kMagicV2[] = "pandia-journal v2";

obs::Histogram& AppendLatency() {
  static obs::Histogram& histogram = obs::MetricsRegistry::Global().histogram(
      "serve.journal.append_latency_us", obs::ExponentialBounds(1, 2, 20));
  return histogram;
}
obs::Histogram& FsyncLatency() {
  static obs::Histogram& histogram = obs::MetricsRegistry::Global().histogram(
      "serve.journal.fsync_latency_us", obs::ExponentialBounds(1, 2, 20));
  return histogram;
}
obs::Counter& BytesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("serve.journal.bytes");
  return counter;
}
obs::Counter& CompactionsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("serve.journal.compactions");
  return counter;
}
obs::Counter& ReclaimedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().counter(
      "serve.journal.compaction_bytes_reclaimed");
  return counter;
}
obs::Counter& TornTailsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("serve.journal.torn_tails");
  return counter;
}

Status ErrnoStatus(const char* what, const std::string& path) {
  return Status::Unavailable(
      StrFormat("%s '%s': %s", what, path.c_str(), std::strerror(errno)));
}

// Reads the whole file (binary). A journal comfortably fits in memory: the
// service compacts it long before size becomes interesting.
StatusOr<std::string> ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return ErrnoStatus("cannot read journal", path);
  }
  std::string text;
  char chunk[65536];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    text.append(chunk, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return ErrnoStatus("cannot read journal", path);
  }
  return text;
}

// Splits a v2 record line into its frame fields. Returns false (with a
// reason) on any framing defect; the caller decides whether that means a
// torn tail or corruption based on the line's position.
struct Frame {
  uint64_t seq = 0;
  uint32_t crc = 0;
  uint64_t len = 0;
  std::string_view payload;
};

bool ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 19) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

// `could_be_tear` reports whether the defect can be produced by a
// sequential write cut short: frame fields missing from the end, or a
// payload shorter than its declared length. Defects a tear cannot cause —
// malformed digits with all fields present (a tear would have removed the
// later fields first), a payload longer than declared, a checksum mismatch
// over a full-length payload (a tear only removes a suffix, it cannot
// alter bytes) — mean bit-rot or a writer bug even on the final line.
bool ParseFrame(std::string_view line, Frame* frame, std::string* reason,
                bool* could_be_tear) {
  *could_be_tear = false;
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  const size_t sp3 = sp2 == std::string_view::npos ? sp2 : line.find(' ', sp2 + 1);
  if (sp3 == std::string_view::npos) {
    *reason = "record is not 'seq crc len payload'";
    *could_be_tear = true;
    return false;
  }
  if (!ParseUint(line.substr(0, sp1), &frame->seq)) {
    *reason = "bad sequence number";
    return false;
  }
  const std::string_view crc_text = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (crc_text.size() != 8) {
    *reason = "checksum is not 8 hex digits";
    return false;
  }
  uint32_t crc = 0;
  for (const char c : crc_text) {
    uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      *reason = "checksum is not 8 hex digits";
      return false;
    }
    crc = crc * 16 + digit;
  }
  frame->crc = crc;
  if (!ParseUint(line.substr(sp2 + 1, sp3 - sp2 - 1), &frame->len)) {
    *reason = "bad payload length";
    return false;
  }
  frame->payload = line.substr(sp3 + 1);
  if (frame->payload.size() != frame->len) {
    *reason = StrFormat("payload is %zu bytes but the frame declares %llu",
                        frame->payload.size(),
                        static_cast<unsigned long long>(frame->len));
    *could_be_tear = frame->payload.size() < frame->len;
    return false;
  }
  if (Crc32c(frame->payload) != frame->crc) {
    *reason = StrFormat("checksum mismatch (stored %08x, computed %08x)",
                        frame->crc, Crc32c(frame->payload));
    return false;
  }
  return true;
}

// Formats one framed record line, newline included. Only the header goes
// through printf; the payload is appended by length, so it may hold any
// byte, a NUL included.
std::string FormatFrame(uint64_t seq, std::string_view payload) {
  char header[64];  // two 20-digit integers, 8 hex digits, 3 spaces, NUL
  const int header_size =
      std::snprintf(header, sizeof header, "%llu %08x %zu ",
                    static_cast<unsigned long long>(seq), Crc32c(payload),
                    payload.size());
  std::string line;
  line.reserve(static_cast<size_t>(header_size) + payload.size() + 1);
  line.append(header, static_cast<size_t>(header_size));
  line.append(payload);
  line += '\n';
  return line;
}

// True when a record payload is a SNAPSHOT request line.
bool IsSnapshot(std::string_view payload) {
  constexpr std::string_view kVerb = "SNAPSHOT";
  return payload.substr(0, kVerb.size()) == kVerb &&
         (payload.size() == kVerb.size() || payload[kVerb.size()] == ' ');
}

// True when a torn final line looks like the start of a framed SNAPSHOT
// record — the one tear recovery must refuse (see journal.h).
bool LooksLikeTornSnapshot(std::string_view line) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return false;
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return false;
  }
  const size_t sp3 = line.find(' ', sp2 + 1);
  if (sp3 == std::string_view::npos) {
    return false;
  }
  const std::string_view payload = line.substr(sp3 + 1);
  return payload.rfind("SNAPSHOT", 0) == 0;
}

}  // namespace

std::string SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone:
      return "none";
    case SyncPolicy::kInterval:
      return "interval";
    case SyncPolicy::kEveryRecord:
      return "every-record";
  }
  return "interval";
}

StatusOr<SyncPolicy> SyncPolicyFromName(const std::string& name) {
  if (name == "none") {
    return SyncPolicy::kNone;
  }
  if (name == "interval") {
    return SyncPolicy::kInterval;
  }
  if (name == "every-record") {
    return SyncPolicy::kEveryRecord;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown sync policy '%s' (want none, interval, or every-record)",
      name.c_str()));
}

Journal::Journal(std::string path, JournalOptions options)
    : path_(std::move(path)), options_(options) {}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      options_(other.options_),
      file_(std::exchange(other.file_, nullptr)),
      recovery_(std::move(other.recovery_)),
      next_seq_(other.next_seq_),
      record_count_(other.record_count_),
      records_since_snapshot_(other.records_since_snapshot_),
      size_bytes_(other.size_bytes_),
      records_since_sync_(other.records_since_sync_),
      dirty_(other.dirty_),
      fail_next_appends_(other.fail_next_appends_),
      fail_after_appends_(other.fail_after_appends_) {}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    options_ = other.options_;
    file_ = std::exchange(other.file_, nullptr);
    recovery_ = std::move(other.recovery_);
    next_seq_ = other.next_seq_;
    record_count_ = other.record_count_;
    records_since_snapshot_ = other.records_since_snapshot_;
    size_bytes_ = other.size_bytes_;
    records_since_sync_ = other.records_since_sync_;
    dirty_ = other.dirty_;
    fail_next_appends_ = other.fail_next_appends_;
    fail_after_appends_ = other.fail_after_appends_;
  }
  return *this;
}

Journal::~Journal() { Close(); }

void Journal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

StatusOr<Journal> Journal::Open(std::string path, JournalOptions options) {
  Journal journal(std::move(path), options);
  // A crash mid-compaction can leave <path>.tmp behind; it was never
  // renamed, so it is dead weight from an aborted rewrite.
  std::remove((journal.path_ + ".tmp").c_str());

  bool exists = false;
  {
    std::FILE* probe = std::fopen(journal.path_.c_str(), "rb");
    if (probe != nullptr) {
      exists = true;
      std::fclose(probe);
    }
  }
  if (!exists) {
    journal.file_ = std::fopen(journal.path_.c_str(), "wb");
    if (journal.file_ == nullptr) {
      return ErrnoStatus("cannot create journal", journal.path_);
    }
    if (std::fprintf(journal.file_, "%s\n", kMagicV2) < 0 ||
        std::fflush(journal.file_) != 0) {
      return ErrnoStatus("cannot write journal header", journal.path_);
    }
    journal.size_bytes_ = std::strlen(kMagicV2) + 1;
    return journal;
  }

  StatusOr<std::string> read = ReadAll(journal.path_);
  if (!read.ok()) {
    return read.status();
  }
  const std::string& text = *read;

  uint64_t keep_bytes = text.size();  // truncate the file past this offset
  if (!text.empty()) {
    const size_t header_end = text.find('\n');
    if (header_end == std::string::npos) {
      // The header line itself is torn (crash between creating the file and
      // flushing the magic). Only a prefix of the magic is forgiven;
      // anything else is not a journal.
      if (std::string_view(kMagicV2).rfind(text, 0) != 0) {
        return Status::DataLoss(StrFormat("journal '%s' does not start with '%s'",
                                          journal.path_.c_str(), kMagicV2));
      }
      journal.recovery_.truncated_torn_tail = true;
      journal.recovery_.truncated_bytes = text.size();
      keep_bytes = 0;
    } else {
      if (std::string_view(text.data(), header_end) != kMagicV2) {
        return Status::DataLoss(StrFormat("journal '%s' does not start with '%s'",
                                          journal.path_.c_str(), kMagicV2));
      }

      // Walk the record lines. `pos` is the byte offset of the current
      // line's start — the truncation point if that line turns out torn.
      size_t pos = header_end + 1;
      size_t line_number = 1;  // the header was line 1
      uint64_t expected_seq = 1;
      while (pos < text.size()) {
        const size_t newline = text.find('\n', pos);
        const bool terminated = newline != std::string::npos;
        const size_t end = terminated ? newline : text.size();
        const std::string_view line(text.data() + pos, end - pos);
        ++line_number;
        const bool final_line = !terminated || end + 1 >= text.size();

        if (line.empty()) {
          if (final_line) {
            break;  // trailing newline artifacts are harmless
          }
          return Status::DataLoss(StrFormat("journal line %zu: empty record",
                                            line_number));
        }

        std::string reason;
        bool could_be_tear = false;
        Frame frame;
        bool good = ParseFrame(line, &frame, &reason, &could_be_tear);
        if (good && journal.recovery_.records.empty() &&
            IsSnapshot(frame.payload)) {
          // Sequence numbers continue across compaction, so the snapshot a
          // compaction wrote may start the file above 1 and anchors the rest
          // of the walk. Any other first record must be record 1: a file
          // that starts later has lost its leading records.
          expected_seq = frame.seq;
        }
        if (good && frame.seq != expected_seq) {
          reason = StrFormat("sequence %llu where %llu was expected",
                             static_cast<unsigned long long>(frame.seq),
                             static_cast<unsigned long long>(expected_seq));
          good = false;
        }
        wire::Request request;
        if (good) {
          StatusOr<wire::Request> parsed = wire::ParseRequest(frame.payload);
          if (!parsed.ok()) {
            // The checksum passed, so these are exactly the bytes the
            // writer framed: a malformed payload is writer corruption,
            // never a tear.
            return Status::DataLoss(StrFormat("journal line %zu: %s", line_number,
                                              parsed.status().message().c_str()));
          }
          request = *std::move(parsed);
        } else if (terminated || !could_be_tear) {
          // Only a tear signature on an unterminated final line is
          // recoverable. A terminated defective record (the newline proves
          // the whole line landed), a full-length payload with a CRC
          // mismatch, or a checksum-valid record with the wrong sequence
          // number cannot come from a write cut short — that is bit-rot or
          // a writer bug, refused like mid-file corruption (journal.h).
          return Status::DataLoss(StrFormat("journal line %zu: %s", line_number,
                                            reason.c_str()));
        }

        if (!terminated) {
          // A torn final record — or a complete, verified one missing only
          // its newline: the tear took the separator but not the data.
          // Keeping the latter would glue the next append onto the same
          // line, and it was never acknowledged with a full write, so both
          // are truncated.
          if (LooksLikeTornSnapshot(line)) {
            // A snapshot only reaches the journal via fsync-then-rename;
            // a torn one means that contract broke, and truncating it
            // would silently drop the entire compacted history.
            return Status::DataLoss(StrFormat(
                "journal line %zu: snapshot record is truncated; refusing "
                "to recover (compaction atomicity was violated)",
                line_number));
          }
          const std::string_view seq_digits = line.substr(0, line.find(' '));
          if (journal.recovery_.records.empty() && seq_digits != "1") {
            // Only a snapshot may start the file above 1, so this is a
            // snapshot torn before its verb landed: refused like any other
            // torn snapshot.
            return Status::DataLoss(StrFormat(
                "journal line %zu: torn first record is numbered '%s', which "
                "only a snapshot may be; refusing to recover",
                line_number, std::string(seq_digits).c_str()));
          }
          journal.recovery_.truncated_torn_tail = true;
          journal.recovery_.truncated_bytes = text.size() - pos;
          keep_bytes = pos;
          break;
        }

        journal.recovery_.records.push_back(
            JournalRecord{std::move(request), line_number});
        ++expected_seq;
        pos = newline + 1;
      }
      journal.next_seq_ = expected_seq;
    }
  }

  if (journal.recovery_.truncated_torn_tail) {
    if (::truncate(journal.path_.c_str(), static_cast<off_t>(keep_bytes)) != 0) {
      return ErrnoStatus("cannot truncate torn journal tail", journal.path_);
    }
    TornTailsCounter().Increment();
  }
  journal.size_bytes_ = keep_bytes;
  journal.record_count_ = journal.recovery_.records.size();
  journal.records_since_snapshot_ = journal.record_count_;
  if (!journal.recovery_.records.empty() &&
      journal.recovery_.records.front().request.verb == "SNAPSHOT") {
    journal.records_since_snapshot_ = journal.record_count_ - 1;
  }

  if (keep_bytes == 0) {
    // Nothing (or only a torn header) survived: re-initialize as fresh v2.
    journal.file_ = std::fopen(journal.path_.c_str(), "wb");
    if (journal.file_ == nullptr) {
      return ErrnoStatus("cannot open journal for appending", journal.path_);
    }
    if (std::fprintf(journal.file_, "%s\n", kMagicV2) < 0 ||
        std::fflush(journal.file_) != 0) {
      return ErrnoStatus("cannot write journal header", journal.path_);
    }
    journal.size_bytes_ = std::strlen(kMagicV2) + 1;
    journal.next_seq_ = 1;
    return journal;
  }

  journal.file_ = std::fopen(journal.path_.c_str(), "ab");
  if (journal.file_ == nullptr) {
    return ErrnoStatus("cannot open journal for appending", journal.path_);
  }
  return journal;
}

Status Journal::FsyncNow() {
  const int64_t start_ns = util::SteadyNowNs();
  if (::fsync(::fileno(file_)) != 0) {
    return ErrnoStatus("cannot fsync journal", path_);
  }
  FsyncLatency().Observe(static_cast<double>(util::SteadyNowNs() - start_ns) / 1000.0);
  records_since_sync_ = 0;
  return Status::Ok();
}

// A failed append can leave partial — or complete but unacknowledged —
// record bytes in the file and in the stdio buffer while the in-memory
// counters roll back; writing after them would glue the next record onto a
// mid-line fragment (mid-file corruption on the next recovery) or duplicate
// a sequence number. Discard the stream (dropping its buffer), cut the file
// back to the last acknowledged record, and reopen. Each step can itself
// fail on a misbehaving disk: dirty_ records whether the tail is known
// good, and Append retries the restore before touching a dirty file.
void Journal::RestoreTail() {
  Close();
  dirty_ = ::truncate(path_.c_str(), static_cast<off_t>(size_bytes_)) != 0;
  if (!dirty_) {
    file_ = std::fopen(path_.c_str(), "ab");
    dirty_ = file_ == nullptr;
  }
}

Status Journal::Append(const wire::Request& record) {
  if (dirty_) {
    RestoreTail();
    if (dirty_) {
      return Status::Unavailable(StrFormat(
          "journal '%s' holds an unrepaired tail from a failed append",
          path_.c_str()));
    }
  }
  const std::string payload = wire::FormatRequest(record);
  const std::string line = FormatFrame(next_seq_, payload);

  bool inject_failure = false;
  if (fail_next_appends_ > 0) {
    if (fail_after_appends_ > 0) {
      --fail_after_appends_;
    } else {
      --fail_next_appends_;
      inject_failure = true;
    }
  }
  if (inject_failure) {
    // The injected fault mimics a disk that accepted part of the record
    // before giving out: half the line lands, then the same repair a real
    // failure takes must erase it.
    std::fwrite(line.data(), 1, line.size() / 2, file_);
    (void)std::fflush(file_);
    RestoreTail();
    return Status::Unavailable(
        StrFormat("cannot append to journal '%s' (injected failure)",
                  path_.c_str()));
  }

  const int64_t start_ns = util::SteadyNowNs();
  Status appended = Status::Ok();
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    appended = ErrnoStatus("cannot append to journal", path_);
  } else {
    switch (options_.sync) {
      case SyncPolicy::kNone:
        break;
      case SyncPolicy::kEveryRecord:
        appended = FsyncNow();
        break;
      case SyncPolicy::kInterval:
        if (++records_since_sync_ >= options_.sync_interval_records) {
          appended = FsyncNow();
        }
        break;
    }
  }
  if (!appended.ok()) {
    // The record is unacknowledged but its bytes (some or all, fsync
    // failure included) may have reached the file; restore the tail so the
    // stream and the counters agree again.
    RestoreTail();
    return appended;
  }
  AppendLatency().Observe(static_cast<double>(util::SteadyNowNs() - start_ns) / 1000.0);
  BytesCounter().Increment(line.size());
  ++next_seq_;
  ++record_count_;
  ++records_since_snapshot_;
  size_bytes_ += line.size();
  return Status::Ok();
}

Status Journal::Compact(const wire::Request& snapshot) {
  const std::string tmp_path = path_ + ".tmp";
  const std::string payload = wire::FormatRequest(snapshot);
  const uint64_t snapshot_seq = next_seq_;
  const std::string line = FormatFrame(snapshot_seq, payload);
  const uint64_t old_bytes = size_bytes_;

  std::FILE* tmp = std::fopen(tmp_path.c_str(), "wb");
  if (tmp == nullptr) {
    return ErrnoStatus("cannot create compaction tmp", tmp_path);
  }
  const bool wrote = std::fprintf(tmp, "%s\n", kMagicV2) >= 0 &&
                     std::fwrite(line.data(), 1, line.size(), tmp) == line.size() &&
                     std::fflush(tmp) == 0 && ::fsync(::fileno(tmp)) == 0;
  std::fclose(tmp);
  if (!wrote) {
    const Status status = ErrnoStatus("cannot write compaction tmp", tmp_path);
    std::remove(tmp_path.c_str());
    return status;
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    const Status status = ErrnoStatus("cannot rename compaction tmp over", path_);
    std::remove(tmp_path.c_str());
    return status;
  }
  // Make the rename itself durable: fsync the containing directory (best
  // effort — some filesystems refuse directory fsync, and the rename is
  // already atomic for the crash-consistency argument).
  {
    const size_t slash = path_.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path_.substr(0, slash + 1);
    const int dir_fd = ::open(dir.c_str(), O_RDONLY);
    if (dir_fd >= 0) {
      (void)::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  // The old stream now writes to an unlinked inode; reopen onto the new
  // journal. The rename landed, so the counters describe the new file even
  // if the reopen fails — in that case dirty_ makes the next Append retry
  // the reopen (via RestoreTail) instead of writing through a dead stream.
  Close();
  next_seq_ = snapshot_seq + 1;
  record_count_ = 1;
  records_since_snapshot_ = 0;
  records_since_sync_ = 0;
  size_bytes_ = std::strlen(kMagicV2) + 1 + line.size();
  CompactionsCounter().Increment();
  if (old_bytes > size_bytes_) {
    ReclaimedCounter().Increment(old_bytes - size_bytes_);
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    dirty_ = true;
    return ErrnoStatus("cannot reopen journal after compaction", path_);
  }
  dirty_ = false;
  return Status::Ok();
}

Status Journal::Sync() {
  if (file_ == nullptr || dirty_) {
    return Status::Unavailable(StrFormat(
        "journal '%s' holds an unrepaired tail from a failed append",
        path_.c_str()));
  }
  if (std::fflush(file_) != 0) {
    return ErrnoStatus("cannot flush journal", path_);
  }
  return FsyncNow();
}

}  // namespace serve
}  // namespace pandia
