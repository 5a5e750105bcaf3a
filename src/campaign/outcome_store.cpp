#include "campaign/outcome_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "core/outcome_io.h"
#include "obs/metrics.h"

namespace hmpt::campaign {

namespace fs = std::filesystem;

const char* to_string(StoreFormat format) {
  return format == StoreFormat::Packed ? "packed" : "dir";
}

StoreFormat store_format_from(const std::string& text) {
  if (text == "dir") return StoreFormat::Dir;
  if (text == "packed") return StoreFormat::Packed;
  raise("unknown store format '" + text + "' (expected dir or packed)");
}

std::optional<StoreFormat> detect_store_format(const std::string& directory) {
  std::error_code ec;
  if (fs::exists(fs::path(directory) / "outcomes.log", ec) && !ec)
    return StoreFormat::Packed;
  if (fs::is_directory(fs::path(directory) / "outcomes", ec) && !ec)
    return StoreFormat::Dir;
  return std::nullopt;
}

namespace {

/// A stored record parsed and validated in one pass.
struct ParsedRecord {
  Json doc;
  tuner::TuningOutcome outcome;
};

/// Parse and validate a stored outcome document's bytes; nullopt (not a
/// throw) on any damage — invalid JSON (truncation lands here), version or
/// fingerprint mismatch, malformed or out-of-range outcome payload. The
/// outcome's rows are checked either way; `rows` says whether they are
/// kept (tuner::Rows).
std::optional<ParsedRecord> parse_record(const std::string& text,
                                         const std::string& fingerprint,
                                         tuner::Rows rows) {
  try {
    Json doc = Json::parse(text);
    HMPT_REQUIRE(doc.at("format_version").as_number() == kFingerprintVersion,
                 "outcome format version mismatch");
    HMPT_REQUIRE(doc.at("fingerprint").as_string() == fingerprint,
                 "outcome fingerprint mismatch");
    doc.at("scenario").as_object();
    auto outcome = tuner::outcome_from_json(doc.at("outcome"), rows);
    return ParsedRecord{std::move(doc), std::move(outcome)};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Move a damaged outcome file aside to `<path>.corrupt` so the
/// fingerprint reads as a miss and the scenario re-executes. A racing
/// quarantine of the same file (ENOENT) already succeeded; any other
/// rename failure throws — silently re-reading a corrupt file forever
/// would be worse than stopping.
void quarantine(const std::string& path) {
  const std::string target = path + ".corrupt";
  if (::rename(path.c_str(), target.c_str()) != 0 && errno != ENOENT)
    raise("cannot quarantine corrupt outcome file " + path + ": " +
          std::strerror(errno));
}

/// Write `data` to a fresh file at `path` and fsync it before returning,
/// so the bytes are durable before any rename/link publishes the name.
void write_durable(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    raise("cannot write outcome file " + path + ": " +
          std::strerror(errno));
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      raise("short write to outcome file " + path + ": " +
            std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    raise("cannot fsync outcome file " + path + ": " + std::strerror(err));
  }
  if (::close(fd) != 0)
    raise("cannot close outcome file " + path + ": " + std::strerror(errno));
}

/// The bytes of the file at `path`, read with one sized read into a
/// string of the file's length (no stream buffer, no second copy);
/// nullopt when it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> bytes;
  struct stat info;
  if (::fstat(fd, &info) == 0) {
    std::string data(static_cast<std::size_t>(info.st_size), '\0');
    std::size_t got = 0;
    bool failed = false;
    while (got < data.size()) {
      const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
      if (n < 0 && errno == EINTR) continue;
      failed = n < 0;
      if (n <= 0) break;  // an error, or the file shrank since fstat
      got += static_cast<std::size_t>(n);
    }
    data.resize(got);
    if (!failed) bytes = std::move(data);
  }
  ::close(fd);
  return bytes;
}

/// A unique scratch name beside `path`: pid + process-wide counter, so
/// concurrent writers never clobber each other's temp file.
std::string scratch_name(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

std::string dir_outcome_path(const std::string& directory,
                             const std::string& fingerprint) {
  return (fs::path(directory) / "outcomes" / (fingerprint + ".json"))
      .string();
}

}  // namespace

// ---------------------------------------------------------------------------
// Backend interface

class OutcomeStoreBackend {
 public:
  explicit OutcomeStoreBackend(std::string directory)
      : directory_(std::move(directory)) {}
  virtual ~OutcomeStoreBackend() = default;

  virtual StoreFormat format() const = 0;
  virtual bool contains(const std::string& fingerprint) = 0;
  /// Raw stored payload bytes, not yet validated; nullopt when absent or
  /// (packed) the frame is damaged.
  virtual std::optional<std::string> payload(
      const std::string& fingerprint) = 0;
  /// The payload of `fingerprint` failed validation: dir stores quarantine
  /// the file, packed stores leave the record for the repairing save to
  /// supersede.
  virtual void damaged(const std::string& fingerprint) = 0;
  /// First-write-wins byte-compare persist; see the header.
  virtual void save_payload(const std::string& fingerprint,
                            const std::string& payload) = 0;
  /// Hand every (fingerprint, payload) with an intact frame to `visit`,
  /// one at a time in fingerprint order; the payloads are not yet
  /// validated.
  using Visit = std::function<void(const std::string&, std::string&)>;
  virtual void for_each(const Visit& visit) = 0;

  const std::string& directory() const { return directory_; }

 protected:
  const std::string directory_;
};

namespace {

// ---------------------------------------------------------------------------
// Dir backend: one <fingerprint>.json per scenario under <dir>/outcomes/.

class DirBackend : public OutcomeStoreBackend {
 public:
  using OutcomeStoreBackend::OutcomeStoreBackend;

  StoreFormat format() const override { return StoreFormat::Dir; }

  bool contains(const std::string& fingerprint) override {
    std::error_code ec;
    return fs::exists(dir_outcome_path(directory_, fingerprint), ec) && !ec;
  }

  std::optional<std::string> payload(
      const std::string& fingerprint) override {
    return read_file(dir_outcome_path(directory_, fingerprint));
  }

  void damaged(const std::string& fingerprint) override {
    // Truncated or otherwise damaged (a crash mid-copy, external
    // interference): quarantine so the fingerprint reads as a miss — the
    // caller re-executes the scenario instead of the whole campaign
    // aborting.
    quarantine(dir_outcome_path(directory_, fingerprint));
  }

  void save_payload(const std::string& fingerprint,
                    const std::string& payload) override {
    // Directories appear on the first write, so opening a store (or
    // planning a dry run) never touches the filesystem.
    std::error_code mkdir_ec;
    fs::create_directories(fs::path(directory_) / "outcomes", mkdir_ec);
    if (mkdir_ec)
      raise("cannot create outcome store at " + directory_ + ": " +
            mkdir_ec.message());

    // The payload is fsynced into a unique scratch file before the name
    // is published.
    const std::string path = dir_outcome_path(directory_, fingerprint);
    const std::string tmp = scratch_name(path);
    write_durable(tmp, payload);

    // Publish with link(2), which atomically fails with EEXIST when
    // another writer got there first: outcomes are content-addressed, so
    // the loser compares bytes — an identical outcome is a silent no-op
    // (the normal same-fingerprint race), a differing *well-formed* one
    // is a determinism violation that must fail loudly rather than
    // silently pick a winner. A differing *damaged* file (truncated by a
    // crash or external interference) is quarantined and the publish
    // retried once.
    for (int tries = 0;; ++tries) {
      if (::link(tmp.c_str(), path.c_str()) == 0) {
        ::unlink(tmp.c_str());
        return;
      }
      const int link_errno = errno;
      if (link_errno != EEXIST) {
        ::unlink(tmp.c_str());
        raise("cannot finalise outcome file " + path + ": " +
              std::strerror(link_errno));
      }
      const std::string existing = read_file(path).value_or("");
      if (existing == payload) {
        ::unlink(tmp.c_str());
        return;
      }
      if (tries == 0 &&
          !parse_record(existing, fingerprint, tuner::Rows::Skip)) {
        quarantine(path);
        continue;
      }
      ::unlink(tmp.c_str());
      raise("conflicting outcome for fingerprint " + fingerprint + ": " +
            path + " already holds a different result (delete it to re-run)");
    }
  }

  void for_each(const Visit& visit) override {
    std::vector<std::string> fingerprints;
    std::error_code ec;
    fs::directory_iterator it(fs::path(directory_) / "outcomes", ec);
    if (ec) return;
    for (const fs::directory_iterator end; it != end; it.increment(ec)) {
      if (ec) break;
      const fs::path path = it->path();
      if (path.extension() == ".json")
        fingerprints.push_back(path.stem().string());
    }
    std::sort(fingerprints.begin(), fingerprints.end());
    for (const auto& fingerprint : fingerprints)
      if (auto bytes = payload(fingerprint)) visit(fingerprint, *bytes);
  }
};

// ---------------------------------------------------------------------------
// Packed backend: <dir>/outcomes.log + <dir>/outcomes.idx.
//
// Log record framing (the log is the authoritative store):
//
//   hmpt1 <fingerprint> <payload-bytes>\n
//   <payload>\n
//
// Records only ever land at the end of the log, under an exclusive
// flock, fsynced before the writer returns. A crash mid-append leaves a
// torn tail: readers scan records sequentially and stop at the first
// frame that does not decode (short header, bad magic, payload running
// past EOF, missing trailing newline), so a torn tail reads as "those
// scenarios are absent" — exactly the job-journal discipline. The next
// save truncates the torn bytes and appends from the clean boundary.
// A record whose frame is intact but whose payload bytes are damaged is
// superseded by appending a fresh record for the same fingerprint; the
// latest decodable record for a fingerprint wins. A save reads only the
// frames appended since its cache was current (catch_up_locked), so n
// appends cost O(n) log reads; anything unexpected there falls back to
// scanning the whole log.
//
// outcomes.idx is a disposable cache: one "<fingerprint> <offset>
// <payload-bytes>" line per record, appended in steady state so a
// reopening reader can prime its map with one sequential read instead of
// seeking through every record header. Readers validate it cheaply
// (strictly increasing offsets from 0, deep-check of the final entry
// against the log) and fall back to scanning the log wherever it falls
// short; a lying entry is caught at payload-read time (the record header
// is re-verified) and triggers one full rescan. Writers rebuild it from
// the log and publish by atomic rename whenever appending is unsafe
// (first save of a process, after a tail truncation, concurrent-writer
// drift).

constexpr const char* kRecordMagic = "hmpt1";
constexpr std::uint64_t kMaxHeaderBytes = 128;

/// Strict decimal: digits only, no sign/whitespace, fits in 63 bits.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty() || text.size() > 19) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

struct RecordHeader {
  std::string fingerprint;
  std::uint64_t payload_size = 0;
  std::uint64_t header_size = 0;  ///< bytes up to and including the '\n'
};

/// Decode the record header at `offset`; nullopt on any framing damage.
std::optional<RecordHeader> read_record_header(std::ifstream& log,
                                               std::uint64_t offset,
                                               std::uint64_t log_size) {
  if (offset >= log_size) return std::nullopt;
  log.clear();
  log.seekg(static_cast<std::streamoff>(offset));
  char buffer[kMaxHeaderBytes];
  const std::uint64_t want =
      std::min<std::uint64_t>(kMaxHeaderBytes, log_size - offset);
  log.read(buffer, static_cast<std::streamsize>(want));
  const std::uint64_t got = static_cast<std::uint64_t>(log.gcount());
  const char* newline =
      static_cast<const char*>(std::memchr(buffer, '\n', got));
  if (newline == nullptr) return std::nullopt;
  const std::string line(buffer, static_cast<std::size_t>(newline - buffer));
  const auto magic_end = line.find(' ');
  if (magic_end == std::string::npos ||
      line.substr(0, magic_end) != kRecordMagic)
    return std::nullopt;
  const auto fingerprint_end = line.find(' ', magic_end + 1);
  if (fingerprint_end == std::string::npos) return std::nullopt;
  RecordHeader header;
  header.fingerprint =
      line.substr(magic_end + 1, fingerprint_end - magic_end - 1);
  if (header.fingerprint.empty() || header.fingerprint.size() > 64)
    return std::nullopt;
  const auto size = parse_u64(line.substr(fingerprint_end + 1));
  if (!size) return std::nullopt;
  header.payload_size = *size;
  header.header_size = static_cast<std::uint64_t>(newline - buffer) + 1;
  return header;
}

int byte_at(std::ifstream& log, std::uint64_t offset) {
  log.clear();
  log.seekg(static_cast<std::streamoff>(offset));
  return log.get();
}

class PackedBackend : public OutcomeStoreBackend {
 public:
  using OutcomeStoreBackend::OutcomeStoreBackend;

  StoreFormat format() const override { return StoreFormat::Packed; }

  bool contains(const std::string& fingerprint) override {
    std::lock_guard<std::mutex> lock(mutex_);
    refresh_locked();
    return records_.count(fingerprint) != 0;
  }

  std::optional<std::string> payload(
      const std::string& fingerprint) override {
    std::lock_guard<std::mutex> lock(mutex_);
    refresh_locked();
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto it = records_.find(fingerprint);
      if (it == records_.end()) return std::nullopt;
      std::ifstream log(log_path(), std::ios::binary);
      if (log.good()) {
        auto bytes =
            read_record_payload(log, seen_size_, fingerprint, it->second);
        if (bytes) return bytes;
      }
      // The index (or our cache of it) lied about this record: re-derive
      // the map from the log itself — the authority — and retry once.
      rescan_locked();
    }
    return std::nullopt;
  }

  void damaged(const std::string&) override {}

  void save_payload(const std::string& fingerprint,
                    const std::string& payload) override {
    HMPT_REQUIRE(fingerprint.find_first_of(" \t\r\n") == std::string::npos,
                 "packed store fingerprint must be a single token");
    std::lock_guard<std::mutex> lock(mutex_);
    // The store appears on the first write, like the dir format.
    std::error_code mkdir_ec;
    fs::create_directories(directory_, mkdir_ec);
    if (mkdir_ec)
      raise("cannot create outcome store at " + directory_ + ": " +
            mkdir_ec.message());

    const std::string log = log_path();
    const int fd = ::open(log.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
      raise("cannot open outcome log " + log + ": " + std::strerror(errno));
    struct LockGuard {
      int fd;
      ~LockGuard() {
        ::flock(fd, LOCK_UN);
        ::close(fd);
      }
    } guard{fd};
    while (::flock(fd, LOCK_EX) != 0) {
      if (errno != EINTR)
        raise("cannot lock outcome log " + log + ": " +
              std::strerror(errno));
    }

    // Under the writer lock the log cannot move: bring the cache up to
    // date with it so the decision below is made against the
    // authoritative state, not a possibly-stale index.
    static obs::Counter& scanned =
        obs::metrics().counter("store.packed_save_scan_bytes");
    scanned.add(catch_up_locked());
    std::optional<std::string> existing;
    if (const auto it = records_.find(fingerprint); it != records_.end()) {
      existing = read_payload_locked(fingerprint, it->second);
      if (!existing) {
        // The cache points at a frame the log does not hold: re-derive
        // the map from the whole log and look again.
        scanned.add(rescan_locked());
        if (const auto again = records_.find(fingerprint);
            again != records_.end())
          existing = read_payload_locked(fingerprint, again->second);
      }
    }
    if (existing) {
      if (*existing == payload) return;  // same-race no-op
      if (parse_record(*existing, fingerprint, tuner::Rows::Skip))
        raise("conflicting outcome for fingerprint " + fingerprint + ": " +
              log +
              " already holds a different result (delete it to re-run)");
      // A damaged existing record: append a superseding one — the packed
      // analogue of the dir store's quarantine-and-retry.
    }

    bool index_stale = false;
    if (good_end_ < seen_size_) {
      // Torn tail from a crash mid-append: cut the log back to the last
      // clean record boundary before appending.
      if (::ftruncate(fd, static_cast<off_t>(good_end_)) != 0)
        raise("cannot truncate torn tail of " + log + ": " +
              std::strerror(errno));
      index_stale = true;
    }

    const std::uint64_t offset = good_end_;
    const std::string record = std::string(kRecordMagic) + " " +
                               fingerprint + " " +
                               std::to_string(payload.size()) + "\n" +
                               payload + "\n";
    pwrite_all(fd, record, offset, log);
    if (::fsync(fd) != 0)
      raise("cannot fsync outcome log " + log + ": " + std::strerror(errno));
    records_[fingerprint] = Record{offset, payload.size()};
    tail_ = {fingerprint, Record{offset, payload.size()}};
    good_end_ = offset + record.size();
    seen_size_ = good_end_;

    // Index maintenance: append in steady state; rebuild and publish by
    // atomic rename when appending would be unsafe (unknown on-disk
    // state on the first save of this process, drift from a concurrent
    // writer, entries past a truncated tail). The index is a cache — no
    // fsync on the append path.
    const std::string line = fingerprint + " " + std::to_string(offset) +
                             " " + std::to_string(payload.size()) + "\n";
    std::error_code ec;
    const auto index_size = fs::file_size(index_path(), ec);
    if (!index_stale && index_expected_size_ && !ec &&
        index_size == *index_expected_size_) {
      append_file(index_path(), line);
      *index_expected_size_ += line.size();
    } else {
      rebuild_index_locked();
    }
  }

  void for_each(const Visit& visit) override {
    std::unique_lock<std::mutex> lock(mutex_);
    rescan_locked();  // one authoritative sequential pass
    const std::vector<std::pair<std::string, Record>> records(
        records_.begin(), records_.end());  // fingerprint order
    const std::uint64_t log_size = seen_size_;
    lock.unlock();  // visit without the lock
    std::ifstream log(log_path(), std::ios::binary);
    if (!log.good()) return;
    for (const auto& [fingerprint, record] : records)
      if (auto bytes = read_record_payload(log, log_size, fingerprint, record))
        visit(fingerprint, *bytes);
  }

 private:
  struct Record {
    std::uint64_t offset = 0;        ///< record (header) start in the log
    std::uint64_t payload_size = 0;  ///< payload bytes (frame adds header+\n)
  };

  std::string log_path() const {
    return (fs::path(directory_) / "outcomes.log").string();
  }
  std::string index_path() const {
    return (fs::path(directory_) / "outcomes.idx").string();
  }

  static void pwrite_all(int fd, const std::string& data,
                         std::uint64_t offset, const std::string& path) {
    std::size_t written = 0;
    while (written < data.size()) {
      const ssize_t n = ::pwrite(fd, data.data() + written,
                                 data.size() - written,
                                 static_cast<off_t>(offset + written));
      if (n < 0) {
        if (errno == EINTR) continue;
        raise("short write to outcome log " + path + ": " +
              std::strerror(errno));
      }
      written += static_cast<std::size_t>(n);
    }
  }

  static void append_file(const std::string& path, const std::string& data) {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
      raise("cannot append to outcome index " + path + ": " +
            std::strerror(errno));
    std::size_t written = 0;
    while (written < data.size()) {
      const ssize_t n =
          ::write(fd, data.data() + written, data.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        raise("short write to outcome index " + path + ": " +
              std::strerror(err));
      }
      written += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }

  /// Read and verify the payload of `record`: the header at its offset
  /// must re-confirm fingerprint and size, the payload must be fully
  /// present, the trailing newline intact. nullopt on any mismatch.
  static std::optional<std::string> read_record_payload(
      std::ifstream& log, std::uint64_t log_size,
      const std::string& fingerprint, const Record& record) {
    const auto header = read_record_header(log, record.offset, log_size);
    if (!header || header->fingerprint != fingerprint ||
        header->payload_size != record.payload_size)
      return std::nullopt;
    const std::uint64_t payload_offset = record.offset + header->header_size;
    if (payload_offset + header->payload_size + 1 > log_size)
      return std::nullopt;
    std::string bytes(static_cast<std::size_t>(header->payload_size), '\0');
    log.clear();
    log.seekg(static_cast<std::streamoff>(payload_offset));
    log.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (static_cast<std::uint64_t>(log.gcount()) != header->payload_size)
      return std::nullopt;
    if (log.get() != '\n') return std::nullopt;
    return bytes;
  }

  /// The payload of `record`, re-verified against the log; nullopt when
  /// the log does not hold that frame there. Requires mutex_.
  std::optional<std::string> read_payload_locked(
      const std::string& fingerprint, const Record& record) const {
    std::ifstream log(log_path(), std::ios::binary);
    if (!log.good()) return std::nullopt;
    return read_record_payload(log, seen_size_, fingerprint, record);
  }

  /// The end of `record`'s frame when the log at its offset still holds
  /// it (same fingerprint and size, trailing newline); nullopt otherwise.
  static std::optional<std::uint64_t> frame_end(
      std::ifstream& log, std::uint64_t log_size,
      const std::string& fingerprint, const Record& record) {
    const auto header = read_record_header(log, record.offset, log_size);
    if (!header || header->fingerprint != fingerprint ||
        header->payload_size != record.payload_size)
      return std::nullopt;
    const std::uint64_t end =
        record.offset + header->header_size + header->payload_size + 1;
    if (end > log_size || byte_at(log, end - 1) != '\n') return std::nullopt;
    return end;
  }

  /// Walk records from `from`, recording each decodable frame (the
  /// latest record for a fingerprint wins, the last one is the tail) and
  /// stopping at the first frame that does not decode. Sets good_end_ to
  /// the clean end offset. Requires mutex_.
  void scan_records_locked(std::ifstream& log, std::uint64_t from,
                           std::uint64_t log_size) {
    std::uint64_t at = from;
    while (at < log_size) {
      const auto header = read_record_header(log, at, log_size);
      if (!header) break;
      const std::uint64_t end =
          at + header->header_size + header->payload_size + 1;
      if (end > log_size) break;
      if (byte_at(log, end - 1) != '\n') break;
      const Record record{at, header->payload_size};
      records_[header->fingerprint] = record;
      tail_ = {header->fingerprint, record};
      at = end;
    }
    good_end_ = at;
  }

  /// Authoritative cache rebuild: scan the whole log. Returns the bytes
  /// of log scanned. Requires mutex_.
  std::uint64_t rescan_locked() {
    std::error_code ec;
    const auto file_size = fs::file_size(log_path(), ec);
    const std::uint64_t size =
        ec ? 0 : static_cast<std::uint64_t>(file_size);
    records_.clear();
    tail_.reset();
    good_end_ = 0;
    seen_size_ = size;
    primed_ = true;
    walked_ = true;
    if (size == 0) return 0;
    std::ifstream log(log_path(), std::ios::binary);
    if (!log.good()) {
      // Transient open failure: stay unprimed so the next call retries.
      primed_ = false;
      seen_size_ = 0;
      return 0;
    }
    scan_records_locked(log, 0, size);
    return good_end_;
  }

  /// The writer's cache refresh: read only what was appended since the
  /// cache was last current. That needs a log that has not shrunk, the
  /// frame at the cached tail still decoding as the same record (so the
  /// cached end is a frame boundary of this log) and a scan from there
  /// that reaches the end of the file. A shrink, a torn tail or drift
  /// between the cache and the log falls back to the full rescan.
  /// Returns the bytes of log scanned. Requires mutex_.
  std::uint64_t catch_up_locked() {
    std::error_code ec;
    const auto file_size = fs::file_size(log_path(), ec);
    const std::uint64_t size =
        ec ? 0 : static_cast<std::uint64_t>(file_size);
    if (!primed_ || !walked_ || size < seen_size_) return rescan_locked();
    if (size == 0) return 0;
    std::ifstream log(log_path(), std::ios::binary);
    if (!log.good()) return rescan_locked();
    std::uint64_t scanned = 0;
    if (tail_) {
      const auto end = frame_end(log, size, tail_->first, tail_->second);
      if (end != good_end_) return rescan_locked();
      scanned = good_end_ - tail_->second.offset;
    }
    const std::uint64_t from = good_end_;
    scan_records_locked(log, from, size);
    seen_size_ = size;
    if (good_end_ != size) return scanned + rescan_locked();  // torn tail
    return scanned + (good_end_ - from);
  }

  /// Cheap cache refresh for readers: no-op while the log size is
  /// unchanged; otherwise prime from the index where it validates and
  /// scan the log for the rest. Requires mutex_.
  void refresh_locked() {
    std::error_code ec;
    const auto file_size = fs::file_size(log_path(), ec);
    const std::uint64_t size =
        ec ? 0 : static_cast<std::uint64_t>(file_size);
    if (primed_ && size == seen_size_) return;
    records_.clear();
    tail_.reset();
    good_end_ = 0;
    seen_size_ = size;
    primed_ = true;
    walked_ = true;
    if (size == 0) return;
    std::ifstream log(log_path(), std::ios::binary);
    if (!log.good()) {
      primed_ = false;
      seen_size_ = 0;
      return;
    }

    std::uint64_t scan_from = 0;
    std::ifstream index(index_path());
    if (index.good()) {
      // Keep the longest valid prefix of the index: well-formed lines
      // with strictly increasing offsets starting at 0, ending with an
      // entry that deep-checks against the log (header match, payload in
      // bounds, trailing newline). Anything after the prefix — a torn
      // final line, entries past a truncated tail — is re-derived by
      // scanning the log.
      std::vector<std::pair<std::string, Record>> entries;
      std::string line;
      while (std::getline(index, line)) {
        const auto first_space = line.find(' ');
        const auto second_space = first_space == std::string::npos
                                      ? std::string::npos
                                      : line.find(' ', first_space + 1);
        if (second_space == std::string::npos) break;
        const std::string fingerprint = line.substr(0, first_space);
        const auto offset = parse_u64(
            line.substr(first_space + 1, second_space - first_space - 1));
        const auto payload_size = parse_u64(line.substr(second_space + 1));
        if (fingerprint.empty() || fingerprint.size() > 64 || !offset ||
            !payload_size.has_value())
          break;
        if (entries.empty() ? *offset != 0
                            : *offset <= entries.back().second.offset)
          break;
        if (*offset >= size) break;
        entries.emplace_back(fingerprint,
                             Record{*offset, *payload_size});
      }
      while (!entries.empty()) {
        const auto& [last_fingerprint, last_record] = entries.back();
        if (const auto end =
                frame_end(log, size, last_fingerprint, last_record)) {
          for (const auto& entry : entries)
            records_[entry.first] = entry.second;
          tail_ = entries.back();
          scan_from = *end;
          break;
        }
        // The final entry may describe a record a crash tore off and a
        // later save truncated away; shrink the prefix and retry.
        entries.pop_back();
      }
    }
    // Writers trust only a cache that walked the log from its start.
    walked_ = scan_from == 0;
    scan_records_locked(log, scan_from, size);
  }

  /// Rewrite the index from the in-memory map (offset order) and publish
  /// it by atomic rename. Requires mutex_ and a current cache.
  void rebuild_index_locked() {
    std::vector<std::pair<std::string, Record>> entries(records_.begin(),
                                                        records_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return a.second.offset < b.second.offset;
              });
    std::string content;
    for (const auto& [fingerprint, record] : entries)
      content += fingerprint + " " + std::to_string(record.offset) + " " +
                 std::to_string(record.payload_size) + "\n";
    const std::string tmp = scratch_name(index_path());
    write_durable(tmp, content);
    if (::rename(tmp.c_str(), index_path().c_str()) != 0) {
      const int err = errno;
      ::unlink(tmp.c_str());
      raise("cannot publish outcome index " + index_path() + ": " +
            std::strerror(err));
    }
    index_expected_size_ = content.size();
  }

  std::mutex mutex_;
  bool primed_ = false;            ///< cache reflects some log state
  bool walked_ = false;            ///< built by walking the log, not the index
  std::uint64_t seen_size_ = 0;    ///< log size the cache reflects
  std::uint64_t good_end_ = 0;     ///< end of the last decodable record
  std::map<std::string, Record> records_;
  /// The record ending at good_end_; empty when the log holds none.
  std::optional<std::pair<std::string, Record>> tail_;
  /// Index size after our last write; appends are only safe while the
  /// on-disk size still matches (otherwise another writer or a
  /// truncation intervened and the index is rebuilt).
  std::optional<std::uint64_t> index_expected_size_;
};

}  // namespace

// ---------------------------------------------------------------------------
// OutcomeStore: thin value-semantics shell over the shared backend.

OutcomeStore::OutcomeStore(std::string directory, StoreFormat format) {
  HMPT_REQUIRE(!directory.empty(), "outcome store needs a directory");
  const auto existing = detect_store_format(directory);
  if (existing && *existing != format)
    raise("outcome store at " + directory + " is " +
          std::string(to_string(*existing)) +
          "-format; pass --store-format " + to_string(*existing) +
          " or point at a fresh directory");
  if (format == StoreFormat::Packed)
    backend_ = std::make_shared<PackedBackend>(std::move(directory));
  else
    backend_ = std::make_shared<DirBackend>(std::move(directory));
}

OutcomeStore OutcomeStore::open_existing(const std::string& directory) {
  return OutcomeStore(
      directory, detect_store_format(directory).value_or(StoreFormat::Dir));
}

const std::string& OutcomeStore::directory() const {
  return backend_->directory();
}

StoreFormat OutcomeStore::format() const { return backend_->format(); }

std::string OutcomeStore::path_for(const Scenario& scenario) const {
  HMPT_REQUIRE(backend_->format() == StoreFormat::Dir,
               "path_for: a packed store has no per-scenario file");
  return dir_outcome_path(backend_->directory(), scenario.fingerprint());
}

bool OutcomeStore::contains(const Scenario& scenario) const {
  return backend_->contains(scenario.fingerprint());
}

namespace {

/// Read and validate one record in a single parse. Damage is reported to
/// the backend and reads as a miss. `bytes`, when given, receives the
/// validated payload.
std::optional<ParsedRecord> read_record(OutcomeStoreBackend& backend,
                                        const std::string& fingerprint,
                                        tuner::Rows rows,
                                        std::string* bytes = nullptr) {
  auto payload = backend.payload(fingerprint);
  if (!payload) return std::nullopt;
  auto parsed = parse_record(*payload, fingerprint, rows);
  if (!parsed) {
    backend.damaged(fingerprint);
    return std::nullopt;
  }
  if (bytes != nullptr) *bytes = std::move(*payload);
  return parsed;
}

/// `payload` validated as the record of `fingerprint`; nullopt when it
/// is damaged. The damage is not reported: merge and reports must not
/// mutate the stores they read.
std::optional<ValidRecord> valid_record(const std::string& fingerprint,
                                        std::string payload) {
  auto parsed = parse_record(payload, fingerprint, tuner::Rows::Skip);
  if (!parsed) return std::nullopt;
  return ValidRecord{std::move(payload), parsed->doc.take("scenario"),
                     std::move(parsed->outcome)};
}

}  // namespace

std::optional<tuner::TuningOutcome> OutcomeStore::load(
    const Scenario& scenario, tuner::Rows rows) const {
  return load_by_fingerprint(scenario.fingerprint(), rows);
}

std::optional<tuner::TuningOutcome> OutcomeStore::load_by_fingerprint(
    const std::string& fingerprint, tuner::Rows rows) const {
  auto parsed = read_record(*backend_, fingerprint, rows);
  if (!parsed) return std::nullopt;
  return std::move(parsed->outcome);
}

std::optional<Json> OutcomeStore::load_outcome_json(
    const std::string& fingerprint) const {
  auto parsed = read_record(*backend_, fingerprint, tuner::Rows::Skip);
  if (!parsed) return std::nullopt;
  return parsed->doc.take("outcome");
}

void OutcomeStore::save(const Scenario& scenario,
                        const tuner::TuningOutcome& outcome) const {
  backend_->save_payload(scenario.fingerprint(),
                         make_payload(scenario, outcome));
}

std::optional<std::string> OutcomeStore::payload(
    const std::string& fingerprint) const {
  std::string bytes;
  if (!read_record(*backend_, fingerprint, tuner::Rows::Skip, &bytes))
    return std::nullopt;
  return bytes;
}

void OutcomeStore::save_payload(const std::string& fingerprint,
                                const std::string& payload) const {
  HMPT_REQUIRE(!fingerprint.empty(), "outcome fingerprint must be non-empty");
  backend_->save_payload(fingerprint, payload);
}

std::optional<ValidRecord> OutcomeStore::find_record(
    const std::string& fingerprint) const {
  auto payload = backend_->payload(fingerprint);
  if (!payload) return std::nullopt;
  return valid_record(fingerprint, std::move(*payload));
}

void OutcomeStore::for_each_record(
    const std::function<void(const std::string&, ValidRecord&)>& visit)
    const {
  backend_->for_each([&](const std::string& fingerprint, std::string& bytes) {
    if (auto record = valid_record(fingerprint, std::move(bytes)))
      visit(fingerprint, *record);
  });
}

std::vector<std::pair<std::string, std::string>>
OutcomeStore::load_all_payloads() const {
  std::vector<std::pair<std::string, std::string>> out;
  for_each_record([&](const std::string& fingerprint, ValidRecord& record) {
    out.emplace_back(fingerprint, std::move(record.payload));
  });
  return out;
}

std::string OutcomeStore::make_payload(const Scenario& scenario,
                                       const tuner::TuningOutcome& outcome) {
  JsonObject doc;
  doc["format_version"] = Json(kFingerprintVersion);
  doc["fingerprint"] = Json(scenario.fingerprint());
  doc["scenario"] = scenario.to_json();
  doc["outcome"] = tuner::outcome_to_json(outcome);
  return Json(std::move(doc)).dump(-1);
}

}  // namespace hmpt::campaign
