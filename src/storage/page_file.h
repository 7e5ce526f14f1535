#ifndef X3_STORAGE_PAGE_FILE_H_
#define X3_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/page.h"
#include "util/env.h"
#include "util/hash.h"
#include "util/result.h"
#include "util/status.h"

namespace x3 {

/// Bytes of the per-page trailer appended to every page on disk: a
/// 64-bit checksum of the payload, seeded with the page id. In-memory
/// pages stay exactly kPageSize; only the file layout carries the
/// trailer, so record formats (slotted pages, node arrays) are
/// unaffected.
inline constexpr size_t kPageTrailerSize = sizeof(uint64_t);

/// On-disk footprint of one page (payload + trailer).
inline constexpr size_t kDiskPageSize = kPageSize + kPageTrailerSize;

/// Checksum of a page payload. Mixing the page id into the seed makes
/// a page written at the wrong offset (or a stale trailer copied from
/// another page) detectable, not just bit flips. FNV-1a with a
/// splitmix64 finalizer: fast, non-cryptographic, XXH-class quality for
/// 8 KiB inputs.
inline uint64_t PageChecksum(const uint8_t* payload, PageId id) {
  uint64_t seed = 0xcbf29ce484222325ULL ^
                  (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL);
  return HashFinalize(Fnv1a64(payload, kPageSize, seed));
}

/// A file of fixed-size pages with read/write/append, the unit the
/// buffer pool operates on. All I/O goes through an Env (injectable for
/// fault testing); every page carries a checksum trailer on disk, and
/// ReadPage surfaces Corruption — naming the page id — instead of
/// serving a torn or bit-flipped page. Offsets are uint64_t end to end,
/// so files past 2 GiB are safe (the old stdio implementation did
/// `long` arithmetic that overflowed there).
///
/// Not thread-safe — and deliberately so: the page layer serves
/// document storage and pattern materialization, which stay
/// single-threaded. Parallel cube execution never touches it (sort
/// spills go through TempFileManager + Env files owned by one worker
/// each).
class PageFile {
 public:
  PageFile() = default;
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Opens (creating if necessary) the file at `path`. If `truncate`,
  /// existing contents are discarded. `env` = nullptr uses
  /// Env::Default(). An existing file whose size is not a multiple of
  /// kDiskPageSize (e.g. truncated mid-page by a crash) is Corruption.
  Status Open(const std::string& path, bool truncate, Env* env = nullptr);

  /// Flushes and closes. Safe to call twice.
  Status Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Number of pages currently in the file.
  PageId page_count() const { return page_count_; }

  /// Largest number of pages a file can hold (kInvalidPageId is
  /// reserved); AllocatePage refuses to wrap past it.
  static constexpr PageId kMaxPageCount = kInvalidPageId;

  /// Reads page `id` into `*page`, verifying the checksum trailer.
  /// A mismatch (torn write, bit flip, stale trailer) is Corruption
  /// with the page id in the message.
  Status ReadPage(PageId id, Page* page);

  /// Writes `page` at `id` with a fresh trailer; `id` must be
  /// < page_count().
  Status WritePage(PageId id, const Page& page);

  /// Appends a new zeroed page, returning its id.
  Result<PageId> AllocatePage();

  /// Legacy buffer flush point. Env files write through, so this only
  /// validates the handle; durability needs Sync().
  Status Flush();

  /// Durably syncs the file (real fsync through the Env).
  Status Sync();

  /// Reads and checksum-verifies every page; the recovery scan run on
  /// Database reopen. Returns Corruption naming the first bad page.
  Status VerifyAllPages();

  /// Lifetime I/O counters (for cost reporting).
  uint64_t pages_read() const { return pages_read_; }
  uint64_t pages_written() const { return pages_written_; }

 private:
  /// Serializes payload + trailer and writes it at `id`'s offset.
  Status WritePageWithTrailer(PageId id, const uint8_t* payload);

  Env* env_ = nullptr;
  std::unique_ptr<File> file_;
  std::string path_;
  PageId page_count_ = 0;
  uint64_t pages_read_ = 0;
  uint64_t pages_written_ = 0;
};

}  // namespace x3

#endif  // X3_STORAGE_PAGE_FILE_H_
