#ifndef X3_STORAGE_WRITE_AHEAD_LOG_H_
#define X3_STORAGE_WRITE_AHEAD_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/env.h"
#include "util/hash.h"
#include "util/result.h"
#include "util/status.h"

namespace x3 {

/// On-disk WAL record header (packed little-endian, kWalHeaderBytes on
/// disk). A record is `header | payload | u64 checksum`, with the
/// checksum covering header+payload and seeded by the record's LSN the
/// same way a page trailer is seeded by its PageId — a record replayed
/// at the wrong LSN (stale tail, misdirected write) fails verification,
/// not just bit flips.
struct WalRecordHeader {
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  uint32_t payload_len = 0;
  uint8_t type = 0;
};

enum class WalRecordType : uint8_t {
  kTxnBegin = 1,
  kTxnData = 2,
  kTxnCommit = 3,
};

inline constexpr size_t kWalHeaderBytes = 8 + 8 + 4 + 1;
inline constexpr size_t kWalTrailerBytes = 8;
/// Sanity bound on a single payload (a shredded XML document); a
/// header claiming more is treated as corruption during recovery.
inline constexpr uint32_t kWalMaxPayloadBytes = 1u << 30;

/// Checksum of one serialized record (header + payload bytes), seeded
/// by the record's LSN. Mirrors PageChecksum (page_file.h).
inline uint64_t WalRecordChecksum(const uint8_t* bytes, size_t n,
                                  uint64_t lsn) {
  uint64_t seed =
      0xcbf29ce484222325ULL ^ (lsn * 0x9e3779b97f4a7c15ULL);
  return HashFinalize(Fnv1a64(bytes, n, seed));
}

/// Write-ahead log over the Env seam (DESIGN.md §12).
///
/// Layout: numbered segment files `<base>.wal.<NNNNNN>` starting at 1.
/// Segments are only ever deleted all at once (DeleteAllSegments, after
/// a checkpoint has made every logged transaction durable elsewhere),
/// so the on-disk set is always contiguous from 1 and recovery can
/// discover it by probing.
///
/// Commit protocol (group commit): BeginTxn/AppendData only gather
/// records in a per-transaction memory buffer; Commit appends the
/// commit record, writes the whole buffer with a single WriteAt and
/// makes it durable with a single Sync. The log therefore never
/// contains a partial transaction except as a torn tail, which
/// recovery cuts off. One transaction may be open at a time (callers
/// serialize writers; Database holds its ingest lock across a batch).
///
/// Recovery (OpenAndRecover): scans segments in order, verifying frame
/// bounds, record type, checksum and dense LSN sequencing. At the
/// first torn/invalid record the segment is truncated there and any
/// later segments are deleted; an uncommitted transaction left at the
/// tail (its commit record torn off) is truncated away too, so the log
/// contains exactly the committed transactions. Running recovery twice
/// yields byte-identical segments and an identical transaction list.
///
/// Not thread-safe: the owner (Database) serializes all calls.
class WriteAheadLog {
 public:
  struct Options {
    /// A commit that leaves the current segment at or past this size
    /// rotates to a fresh segment before the next commit's write.
    uint64_t segment_size_bytes = 4ull << 20;
  };

  /// One committed transaction, replayable in order.
  struct CommittedTxn {
    uint64_t txn_id = 0;
    /// LSN of the commit record; the catalog's durable horizon is
    /// compared against this.
    uint64_t commit_lsn = 0;
    /// kTxnData payloads in append order.
    std::vector<std::string> payloads;
  };

  struct RecoveryInfo {
    /// Committed transactions in commit-LSN order.
    std::vector<CommittedTxn> txns;
    /// Highest LSN of any surviving record (0 when the log is empty).
    uint64_t max_lsn = 0;
    /// Records cut off as torn/invalid (including an uncommitted tail
    /// transaction's records).
    uint64_t truncated_records = 0;
    /// Whole segments deleted past the first invalid record.
    uint64_t truncated_segments = 0;
  };

  /// Opens a fresh log at `base`, removing any stale segments.
  static Result<std::unique_ptr<WriteAheadLog>> CreateFresh(
      Env* env, std::string base, const Options& options);
  static Result<std::unique_ptr<WriteAheadLog>> CreateFresh(
      Env* env, std::string base) {
    return CreateFresh(env, std::move(base), Options());
  }

  /// Opens an existing log (possibly empty), runs recovery and reports
  /// the surviving committed transactions through `*info`.
  static Result<std::unique_ptr<WriteAheadLog>> OpenAndRecover(
      Env* env, std::string base, const Options& options,
      RecoveryInfo* info);

  /// Removes every segment of the log at `base` (used by owners that
  /// delete their backing files). Missing segments are fine.
  static Status RemoveSegments(Env* env, const std::string& base);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Starts a transaction; only one may be open. Buffers the begin
  /// record; nothing touches disk until Commit.
  Result<uint64_t> BeginTxn();

  /// Buffers one data record for the open transaction.
  Status AppendData(uint64_t txn_id, std::string_view payload);

  /// Appends the commit record, writes the buffered transaction with
  /// one WriteAt and one Sync, and returns the commit LSN. On failure
  /// the log is poisoned (the on-disk tail is unknown); the owner must
  /// reopen, which re-runs recovery. The disk never holds a partially
  /// *valid* transaction: a torn commit write is cut off by recovery.
  Result<uint64_t> Commit(uint64_t txn_id);

  /// Drops the open transaction's buffer. Nothing was written.
  Status Abort(uint64_t txn_id);

  /// Deletes every segment (newest first, so a partial delete keeps
  /// the set contiguous from 1) and resets segment numbering. Call
  /// only once every logged transaction is durable elsewhere (i.e.
  /// right after a successful checkpoint). LSNs keep advancing. Also
  /// un-poisons a log broken by a failed commit — the unknown on-disk
  /// tail is deleted along with everything else.
  Status DeleteAllSegments();

  /// Raises the next LSN to at least `lsn` (the owner seeds this with
  /// durable_lsn + 1 from its catalog so LSNs stay monotonic across
  /// checkpoints that emptied the log).
  void EnsureNextLsnAtLeast(uint64_t lsn);

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t last_commit_lsn() const { return last_commit_lsn_; }
  bool has_open_txn() const { return txn_open_; }
  const std::string& base() const { return base_; }

  /// Existing segment paths, in order.
  std::vector<std::string> SegmentPaths() const;

  /// Path of segment `seq` of the log at `base` (exposed for tests and
  /// tooling that need to corrupt or inspect specific segments).
  static std::string SegmentPath(const std::string& base, uint64_t seq);

 private:
  WriteAheadLog(Env* env, std::string base, const Options& options);

  /// Opens segment `seq` for appending at `offset`.
  Status OpenSegment(uint64_t seq, uint64_t offset);

  /// Serializes one record into `*out`.
  void EncodeRecord(WalRecordType type, uint64_t txn_id,
                    std::string_view payload, std::string* out);

  /// Scans all segments; fills `*info`; truncates/deletes invalid
  /// tails; leaves the log positioned for appending.
  Status Recover(RecoveryInfo* info);

  Env* env_;
  std::string base_;
  Options options_;

  std::unique_ptr<File> file_;  // current segment, null until first commit
  uint64_t segment_seq_ = 0;    // current segment number (0 = none yet)
  uint64_t segment_offset_ = 0;

  uint64_t next_lsn_ = 1;
  uint64_t last_commit_lsn_ = 0;
  uint64_t next_txn_id_ = 1;

  bool txn_open_ = false;
  uint64_t open_txn_id_ = 0;
  std::string pending_;  // serialized records of the open transaction
  size_t pending_records_ = 0;

  Status broken_;  // sticky failure after a bad commit write
};

}  // namespace x3

#endif  // X3_STORAGE_WRITE_AHEAD_LOG_H_
