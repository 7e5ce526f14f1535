#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/external_sorter.h"
#include "storage/page_file.h"
#include "storage/temp_file.h"
#include "util/exec.h"
#include "util/memory_budget.h"
#include "util/random.h"
#include "util/string_util.h"

namespace x3 {
namespace {

class PageFileTest : public ::testing::Test {
 protected:
  std::string Path() {
    return temp_.NextPath(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name());
  }
  TempFileManager temp_;
};

TEST_F(PageFileTest, AllocateReadWrite) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path(), true).ok());
  EXPECT_EQ(file.page_count(), 0u);

  auto id = file.AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  EXPECT_EQ(file.page_count(), 1u);

  Page page;
  page.Zero();
  page.WriteAt<uint64_t>(16, 0xdeadbeefULL);
  ASSERT_TRUE(file.WritePage(0, page).ok());

  Page read;
  ASSERT_TRUE(file.ReadPage(0, &read).ok());
  EXPECT_EQ(read.ReadAt<uint64_t>(16), 0xdeadbeefULL);
}

TEST_F(PageFileTest, ReadBeyondEndFails) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path(), true).ok());
  Page page;
  EXPECT_EQ(file.ReadPage(0, &page).code(), StatusCode::kOutOfRange);
}

TEST_F(PageFileTest, ReopenPreservesPages) {
  std::string path = Path();
  {
    PageFile file;
    ASSERT_TRUE(file.Open(path, true).ok());
    ASSERT_TRUE(file.AllocatePage().ok());
    Page page;
    page.Zero();
    page.WriteAt<uint32_t>(0, 77);
    ASSERT_TRUE(file.WritePage(0, page).ok());
    ASSERT_TRUE(file.Close().ok());
  }
  PageFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  EXPECT_EQ(file.page_count(), 1u);
  Page page;
  ASSERT_TRUE(file.ReadPage(0, &page).ok());
  EXPECT_EQ(page.ReadAt<uint32_t>(0), 77u);
}

TEST_F(PageFileTest, CountsIo) {
  PageFile file;
  ASSERT_TRUE(file.Open(Path(), true).ok());
  ASSERT_TRUE(file.AllocatePage().ok());
  Page page;
  ASSERT_TRUE(file.ReadPage(0, &page).ok());
  ASSERT_TRUE(file.ReadPage(0, &page).ok());
  EXPECT_EQ(file.pages_read(), 2u);
  EXPECT_GE(file.pages_written(), 1u);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void Open(size_t frames) {
    ASSERT_TRUE(file_.Open(temp_.NextPath("pool"), true).ok());
    pool_ = std::make_unique<BufferPool>(&file_, frames);
  }
  TempFileManager temp_;
  PageFile file_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, NewPageIsZeroed) {
  Open(4);
  auto handle = pool_->New();
  ASSERT_TRUE(handle.ok());
  for (size_t i = 0; i < kPageSize; i += 512) {
    EXPECT_EQ(handle->page().bytes()[i], 0);
  }
}

TEST_F(BufferPoolTest, FetchHitsCachedPage) {
  Open(4);
  PageId id;
  {
    auto handle = pool_->New();
    ASSERT_TRUE(handle.ok());
    id = handle->id();
    handle->MutablePage().WriteAt<uint32_t>(0, 42);
  }
  auto again = pool_->Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->page().ReadAt<uint32_t>(0), 42u);
  EXPECT_EQ(pool_->stats().hits, 1u);
  EXPECT_EQ(pool_->stats().misses, 0u);
}

TEST_F(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  Open(2);
  // Create three pages through a 2-frame pool.
  for (int i = 0; i < 3; ++i) {
    auto handle = pool_->New();
    ASSERT_TRUE(handle.ok());
    handle->MutablePage().WriteAt<uint32_t>(0, static_cast<uint32_t>(i + 1));
  }
  EXPECT_GE(pool_->stats().evictions, 1u);
  // All three still readable (evicted ones from disk).
  for (PageId id = 0; id < 3; ++id) {
    auto handle = pool_->Fetch(id);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->page().ReadAt<uint32_t>(0), id + 1);
  }
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  Open(2);
  auto h1 = pool_->New();
  auto h2 = pool_->New();
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  // Both frames pinned: a third page cannot be placed.
  auto h3 = pool_->New();
  EXPECT_FALSE(h3.ok());
  EXPECT_EQ(h3.status().code(), StatusCode::kResourceExhausted);
  // Releasing one pin unblocks.
  h1->Release();
  auto h4 = pool_->New();
  EXPECT_TRUE(h4.ok());
}

TEST_F(BufferPoolTest, MoveTransfersPin) {
  Open(2);
  auto h1 = pool_->New();
  ASSERT_TRUE(h1.ok());
  PageHandle moved = std::move(*h1);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(h1->valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
}

TEST_F(BufferPoolTest, FlushAllPersists) {
  Open(4);
  PageId id;
  {
    auto handle = pool_->New();
    ASSERT_TRUE(handle.ok());
    id = handle->id();
    handle->MutablePage().WriteAt<uint64_t>(8, 555);
  }
  ASSERT_TRUE(pool_->FlushAll().ok());
  Page raw;
  ASSERT_TRUE(file_.ReadPage(id, &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(8), 555u);
}

// Concurrent pool traffic for the TSan lane: the pool's page table,
// LRU and stats are mutex-guarded, so racing Fetch/New/stats/FlushAll
// from many threads must be clean. Payload writes stay race-free by
// giving each thread its own pages (pin protection covers the frame;
// same-page writers must coordinate themselves, as documented).
TEST_F(BufferPoolTest, ConcurrentFetchAndNewAreRaceFree) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPagesPerThread = 8;
  constexpr int kRounds = 50;
  Open(kThreads * 2);  // smaller than the working set: forces evictions
  std::vector<std::vector<PageId>> ids(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t p = 0; p < kPagesPerThread; ++p) {
      auto handle = pool_->New();
      ASSERT_TRUE(handle.ok());
      handle->MutablePage().WriteAt<uint64_t>(0, t * 100 + p);
      ids[t].push_back(handle->id());
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t p = 0; p < kPagesPerThread; ++p) {
          auto handle = pool_->Fetch(ids[t][p]);
          ASSERT_TRUE(handle.ok());
          EXPECT_EQ(handle->page().ReadAt<uint64_t>(0), t * 100 + p);
        }
        // Racing readers of the stats snapshot exercise the lock too.
        BufferPoolStats snap = pool_->stats();
        EXPECT_LE(snap.hits, snap.hits + snap.misses);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  BufferPoolStats stats = pool_->stats();
  EXPECT_GE(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kPagesPerThread * kRounds);
  ASSERT_TRUE(pool_->FlushAll().ok());
}

TEST(TempFileTest, PathsAreUnique) {
  TempFileManager temp;
  std::string a = temp.NextPath("x");
  std::string b = temp.NextPath("x");
  EXPECT_NE(a, b);
  EXPECT_EQ(temp.created_count(), 2u);
}

TEST(TempFileTest, CleansUpOnDestruction) {
  std::string path;
  {
    TempFileManager temp;
    path = temp.NextPath("cleanup");
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("data", f);
    fclose(f);
  }
  FILE* f = fopen(path.c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) fclose(f);
}

std::vector<std::string> Drain(SortedStream* stream) {
  std::vector<std::string> out;
  std::string rec;
  Status s;
  while (stream->Next(&rec, &s)) out.push_back(rec);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(ExternalSorterTest, InMemorySort) {
  ExternalSorter sorter(nullptr);
  for (const char* rec : {"pear", "apple", "zoo", "banana"}) {
    ASSERT_TRUE(sorter.Add(rec).ok());
  }
  auto stream = sorter.Finish();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(Drain(stream->get()),
            (std::vector<std::string>{"apple", "banana", "pear", "zoo"}));
  EXPECT_TRUE(sorter.stats().in_memory);
  EXPECT_EQ(sorter.stats().runs_spilled, 0u);
}

TEST(ExternalSorterTest, EmptyInput) {
  ExternalSorter sorter(nullptr);
  auto stream = sorter.Finish();
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(Drain(stream->get()).empty());
}

TEST(ExternalSorterTest, DuplicatesPreserved) {
  ExternalSorter sorter(nullptr);
  for (const char* rec : {"b", "a", "b", "a", "b"}) {
    ASSERT_TRUE(sorter.Add(rec).ok());
  }
  auto stream = sorter.Finish();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(Drain(stream->get()),
            (std::vector<std::string>{"a", "a", "b", "b", "b"}));
}

TEST(ExternalSorterTest, SpillsUnderBudgetAndStaysSorted) {
  TempFileManager temp;
  MemoryBudget budget(4096);  // tiny: forces many runs
  ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
  ExternalSorter sorter(&ctx);

  Random rng(3);
  std::vector<std::string> expected;
  for (int i = 0; i < 2000; ++i) {
    std::string rec = StringPrintf("key-%05llu",
                                   static_cast<unsigned long long>(
                                       rng.Uniform(100000)));
    expected.push_back(rec);
    ASSERT_TRUE(sorter.Add(rec).ok());
  }
  std::sort(expected.begin(), expected.end());

  auto stream = sorter.Finish();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(Drain(stream->get()), expected);
  EXPECT_FALSE(sorter.stats().in_memory);
  EXPECT_GT(sorter.stats().runs_spilled, 1u);
  EXPECT_EQ(sorter.stats().records, 2000u);
}

TEST(ExternalSorterTest, CascadedMergePasses) {
  // 2 KB holds about 36 of these records, so 3000 spill about 83 runs:
  // more than kMergeFanIn, which forces an intermediate merge pass.
  TempFileManager temp;
  MemoryBudget budget(2048);
  ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
  ExternalSorter sorter(&ctx);

  Random rng(11);
  std::vector<std::string> expected;
  for (int i = 0; i < 3000; ++i) {
    std::string rec = StringPrintf("%08llu", static_cast<unsigned long long>(
                                                 rng.Next() % 10000000));
    expected.push_back(rec);
    ASSERT_TRUE(sorter.Add(rec).ok());
  }
  std::sort(expected.begin(), expected.end());
  auto stream = sorter.Finish();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(Drain(stream->get()), expected);
  EXPECT_GT(sorter.stats().merge_passes, 1u);
}

TEST(ExternalSorterTest, BudgetExceededWithoutTempFilesFails) {
  MemoryBudget budget(64);
  ExecutionContext ctx({&budget, nullptr, nullptr, std::nullopt});
  ExternalSorter sorter(&ctx);
  Status last = Status::OK();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    last = sorter.Add("0123456789abcdef");
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(ExternalSorterTest, BinaryRecordsWithEmbeddedNuls) {
  ExternalSorter sorter(nullptr);
  std::string a("a\0b", 3);
  std::string b("a\0a", 3);
  ASSERT_TRUE(sorter.Add(a).ok());
  ASSERT_TRUE(sorter.Add(b).ok());
  auto stream = sorter.Finish();
  ASSERT_TRUE(stream.ok());
  auto out = Drain(stream->get());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], b);
  EXPECT_EQ(out[1], a);
}

TEST(ExternalSorterTest, SortsBytesUnsignedInMemoryAndAcrossRuns) {
  // Group keys are big-endian key fields, so kNullKeyField (0xFFFFFFFF)
  // and every ValueId >= 0x80000000 must sort after 0x7F bytes: the
  // sorter's order treats bytes as unsigned, in the in-memory sort and
  // in the merge over spilled runs alike.
  std::vector<std::string> sorted;
  for (int b = 0; b < 256; ++b) {
    sorted.push_back(std::string(1, static_cast<char>(b)) + "key");
  }
  std::vector<std::string> shuffled = sorted;
  Random rng(256);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Uniform(i + 1)]);
  }
  for (size_t capacity : {size_t{0}, size_t{512}}) {  // 0 = unlimited
    TempFileManager temp;
    MemoryBudget budget(capacity);
    // Another consumer's charge: the sort must return exactly its own.
    budget.ForceReserve(100);
    ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
    ExternalSorter sorter(&ctx);
    for (const std::string& rec : shuffled) {
      ASSERT_TRUE(sorter.Add(rec).ok());
    }
    auto stream = sorter.Finish();
    ASSERT_TRUE(stream.ok()) << stream.status();
    EXPECT_EQ(Drain(stream->get()), sorted) << "capacity " << capacity;
    const bool spilled = capacity != 0;
    EXPECT_EQ(sorter.stats().runs_spilled > 0, spilled) << capacity;
    EXPECT_EQ(sorter.stats().in_memory, !spilled) << capacity;
    EXPECT_EQ(budget.used(), 100u) << capacity;
  }
}

/// Model-based buffer pool test: random page writes/reads through a
/// small pool must behave exactly like an in-memory array of pages.
class BufferPoolModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferPoolModelTest, MatchesInMemoryModel) {
  TempFileManager temp;
  PageFile file;
  ASSERT_TRUE(file.Open(temp.NextPath("model"), true).ok());
  BufferPool pool(&file, /*capacity=*/3);
  Random rng(GetParam());

  std::vector<std::vector<uint64_t>> model;  // model[page][slot]
  constexpr size_t kSlots = kPageSize / sizeof(uint64_t);

  for (int op = 0; op < 600; ++op) {
    int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 0 || model.empty()) {
      // Allocate.
      auto handle = pool.New();
      ASSERT_TRUE(handle.ok());
      model.emplace_back(kSlots, 0);
      ASSERT_EQ(handle->id(), model.size() - 1);
    } else if (kind == 1) {
      // Write a random slot of a random page.
      PageId id = static_cast<PageId>(rng.Uniform(model.size()));
      size_t slot = rng.Uniform(kSlots);
      uint64_t value = rng.Next();
      auto handle = pool.Fetch(id);
      ASSERT_TRUE(handle.ok());
      handle->MutablePage().WriteAt<uint64_t>(slot * sizeof(uint64_t),
                                              value);
      model[id][slot] = value;
    } else {
      // Read a random slot and compare with the model.
      PageId id = static_cast<PageId>(rng.Uniform(model.size()));
      size_t slot = rng.Uniform(kSlots);
      auto handle = pool.Fetch(id);
      ASSERT_TRUE(handle.ok());
      EXPECT_EQ(handle->page().ReadAt<uint64_t>(slot * sizeof(uint64_t)),
                model[id][slot])
          << "page " << id << " slot " << slot << " op " << op;
    }
  }
  // Full verification after a flush, straight from the file.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId id = 0; id < model.size(); ++id) {
    Page raw;
    ASSERT_TRUE(file.ReadPage(id, &raw).ok());
    for (size_t slot = 0; slot < kSlots; slot += 37) {
      EXPECT_EQ(raw.ReadAt<uint64_t>(slot * sizeof(uint64_t)),
                model[id][slot]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferPoolModelTest,
                         ::testing::Values(501, 502, 503, 504));

// ---------------------------------------------------------------------------
// Corruption detection and recovery-on-reopen. These damage the on-disk
// bytes directly (through a clean Env) and assert that reopen surfaces
// Corruption naming the bad page rather than serving damaged data.

class PageFileCorruptionTest : public PageFileTest {
 protected:
  /// Creates a two-page file where page i's payload is filled with
  /// (i + 1), synced and closed. Returns its path.
  std::string WriteTwoPageFile() {
    std::string path = Path();
    PageFile file;
    EXPECT_TRUE(file.Open(path, true).ok());
    for (uint32_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(file.AllocatePage().ok());
      Page page;
      page.Zero();
      std::fill(page.bytes(), page.bytes() + kPageSize,
                static_cast<uint8_t>(i + 1));
      EXPECT_TRUE(file.WritePage(i, page).ok());
    }
    EXPECT_TRUE(file.Sync().ok());
    EXPECT_TRUE(file.Close().ok());
    return path;
  }

  /// Rewrites `n` bytes of `path` at `offset`.
  void Patch(const std::string& path, uint64_t offset, const void* data,
             size_t n) {
    auto file = Env::Default()->OpenFile(path, OpenMode::kReadWrite);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(offset, data, n).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
};

TEST_F(PageFileCorruptionTest, TruncatedFileIsCorruptionOnOpen) {
  std::string path = WriteTwoPageFile();
  // Chop the file mid-page, as a crash during an append would.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());
  contents.resize(kDiskPageSize + 100);
  ASSERT_TRUE(WriteStringToFile(Env::Default(), path, contents).ok());

  PageFile reopened;
  Status s = reopened.Open(path, false);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("torn final page"), std::string::npos)
      << s.ToString();
}

TEST_F(PageFileCorruptionTest, BitFlippedPayloadFailsChecksum) {
  std::string path = WriteTwoPageFile();
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());
  uint8_t flipped = static_cast<uint8_t>(contents[kDiskPageSize + 17]) ^ 0x40;
  Patch(path, kDiskPageSize + 17, &flipped, 1);

  PageFile reopened;
  ASSERT_TRUE(reopened.Open(path, false).ok());
  Page page;
  ASSERT_TRUE(reopened.ReadPage(0, &page).ok());  // page 0 is untouched
  Status s = reopened.ReadPage(1, &page);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("page 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("failed checksum"), std::string::npos);
  // The full recovery scan names the same page.
  Status scan = reopened.VerifyAllPages();
  EXPECT_EQ(scan.code(), StatusCode::kCorruption);
  EXPECT_NE(scan.message().find("page 1"), std::string::npos);
}

TEST_F(PageFileCorruptionTest, StaleTrailerFailsChecksum) {
  std::string path = WriteTwoPageFile();
  // Model a torn update: the payload of page 0 is rewritten but the old
  // trailer survives (payload landed, trailer write was lost).
  std::string fresh(kPageSize, 'Z');
  Patch(path, 0, fresh.data(), fresh.size());

  PageFile reopened;
  ASSERT_TRUE(reopened.Open(path, false).ok());
  Page page;
  Status s = reopened.ReadPage(0, &page);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("page 0"), std::string::npos) << s.ToString();
}

TEST_F(PageFileCorruptionTest, TrailerFromAnotherPageIsDetected) {
  std::string path = WriteTwoPageFile();
  // Copy page 1's full disk image (payload + trailer) over page 0. The
  // checksum is internally consistent, but seeded with the wrong page
  // id — exactly the misdirected-write case an unseeded checksum
  // cannot see.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());
  Patch(path, 0, contents.data() + kDiskPageSize, kDiskPageSize);

  PageFile reopened;
  ASSERT_TRUE(reopened.Open(path, false).ok());
  Page page;
  EXPECT_EQ(reopened.ReadPage(0, &page).code(), StatusCode::kCorruption);
}

TEST_F(PageFileCorruptionTest, AllocatePastMaxPageCountIsRefused) {
  // Exercised through the public API by faking the count: open a file,
  // then check the guard arithmetic does not wrap by asserting the
  // constant leaves no room past kInvalidPageId.
  static_assert(PageFile::kMaxPageCount == kInvalidPageId,
                "AllocatePage must refuse to hand out kInvalidPageId");
  PageFile file;
  ASSERT_TRUE(file.Open(Path(), true).ok());
  auto id = file.AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_LT(*id, PageFile::kMaxPageCount);
}

}  // namespace
}  // namespace x3
