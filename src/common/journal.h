// An append-only, checksummed record journal — the crash-safety
// primitive under the PrivacyAccountant's spend ledger and the sweep
// engine's per-cell checkpoints.
//
// On-disk format: a sequence of records, each
//
//   [u32 payload_len][u64 fnv1a_words(payload)][payload bytes]
//
// with no file header (callers put their own header in record 0, which
// also distinguishes their journals from each other's). Every record is
// made durable before Append() acknowledges: write, Sync(), ack — so an
// acknowledged record survives any later crash.
//
// Recovery (ReadJournal) replays the LONGEST VALID PREFIX: reading
// stops at the first record whose length field runs past EOF or whose
// checksum fails — the signature of a torn tail write — and reports the
// byte offset where the valid prefix ends. A record is therefore either
// fully recovered or not recovered at all, never half-applied.
// JournalWriter::Open() truncates the file to that offset before
// appending, so a journal that survived a crash is seamlessly writable
// again and the torn tail can never shadow later records.
//
// All I/O goes through Env, so every failure mode here is exercisable
// with FaultInjectionEnv.

#ifndef DPKRON_COMMON_JOURNAL_H_
#define DPKRON_COMMON_JOURNAL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/env.h"
#include "src/common/status.h"

namespace dpkron {

struct JournalRecovery {
  // The longest valid record prefix, in append order.
  std::vector<std::string> records;
  // Byte offset where that prefix ends (= file size iff no torn tail).
  uint64_t valid_bytes = 0;
  // True if bytes beyond the valid prefix existed (torn/corrupt tail).
  bool truncated_tail = false;
};

// Reads and validates `path`. NotFound if the journal does not exist
// (callers treat that as "fresh"); other Statuses are real I/O errors.
Result<JournalRecovery> ReadJournal(const std::string& path,
                                    Env* env = GetEnv());

// Appends one framed record — [u32 len][u64 checksum][payload], the
// exact bytes JournalWriter::Append would write — to `*out`. Lets a
// caller build a complete journal image in memory (the accountant's
// compaction snapshot) and install it atomically with WriteFileDurable,
// with the result readable by ReadJournal like any journal.
void AppendFramedRecord(std::string* out, std::string_view payload);

// Appends durable records to a journal file.
class JournalWriter {
 public:
  // Opens `path` for appending at `valid_bytes` (from a prior
  // ReadJournal; 0 for a fresh journal), truncating any torn tail
  // beyond it first.
  static Result<std::unique_ptr<JournalWriter>> Open(const std::string& path,
                                                     uint64_t valid_bytes,
                                                     Env* env = GetEnv());

  // Frames, writes and fsyncs one record. When this returns OK the
  // record is durable. When it returns an error the journal file may
  // hold a torn tail; the writer repairs it by truncating back to the
  // last acknowledged offset (and refuses further appends if even that
  // fails — a wounded journal must not take new records whose placement
  // is unknown).
  Status Append(std::string_view payload);

  Status Close();

  uint64_t acknowledged_bytes() const { return acknowledged_bytes_; }

  // True after a failed append whose tail-repair also failed: the
  // on-disk tail is unknown, so every further Append refuses.
  bool wounded() const { return wounded_; }

 private:
  JournalWriter(std::string path, std::unique_ptr<WritableFile> file,
                uint64_t offset, Env* env)
      : path_(std::move(path)),
        file_(std::move(file)),
        acknowledged_bytes_(offset),
        env_(env) {}

  const std::string path_;
  std::unique_ptr<WritableFile> file_;
  uint64_t acknowledged_bytes_;
  bool wounded_ = false;
  Env* const env_;
};

// ------------------------------------------------- record (de)serializing
//
// Minimal positional binary encoding shared by journal clients (the
// accountant's spend records, the sweep engine's checkpoint cells).
// Fields are fixed-width host-endian PODs and length-prefixed strings;
// like the .dpkb format, journals are host-format files, not an
// interchange format.

class RecordBuilder {
 public:
  RecordBuilder& U32(uint32_t value) { return Pod(value); }
  RecordBuilder& U64(uint64_t value) { return Pod(value); }
  RecordBuilder& Double(double value) { return Pod(value); }
  RecordBuilder& Str(std::string_view value) {
    U32(static_cast<uint32_t>(value.size()));
    out_.append(value);
    return *this;
  }
  // Any fixed-width POD field; U32/U64/Double are its named forms.
  template <typename T>
  RecordBuilder& Pod(T value) {
    out_.append(reinterpret_cast<const char*>(&value), sizeof(value));
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

// Reads fields back in the order they were built. A short or trailing-
// garbage record flips ok() to false (reads past the end return zero /
// empty); callers check ok() && done() once at the end. Checksums have
// already been verified by ReadJournal, so a parse failure here means a
// foreign or future-format record, not a torn write.
class RecordParser {
 public:
  explicit RecordParser(std::string_view data) : data_(data) {}

  uint32_t U32() { return Pod<uint32_t>(); }
  uint64_t U64() { return Pod<uint64_t>(); }
  double Double() { return Pod<double>(); }
  std::string Str() {
    const uint32_t len = U32();
    if (!ok_ || data_.size() - pos_ < len) {
      ok_ = false;
      return std::string();
    }
    std::string value(data_.substr(pos_, len));
    pos_ += len;
    return value;
  }

  template <typename T>
  T Pod() {
    T value{};
    if (!ok_ || data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      return value;
    }
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dpkron

#endif  // DPKRON_COMMON_JOURNAL_H_
