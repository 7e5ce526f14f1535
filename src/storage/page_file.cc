#include "storage/page_file.h"

#include <cstring>

#include "util/string_util.h"

namespace x3 {

PageFile::~PageFile() { Close().IgnoreError(); }

Status PageFile::Open(const std::string& path, bool truncate, Env* env) {
  if (file_ != nullptr) {
    return Status::AlreadyExists("page file already open: " + path_);
  }
  env_ = env != nullptr ? env : Env::Default();
  OpenMode mode = truncate ? OpenMode::kTruncate : OpenMode::kReadWrite;
  Result<std::unique_ptr<File>> file = env_->OpenFile(path, mode);
  if (!file.ok()) return file.status();
  file_ = std::move(*file);
  path_ = path;
  Result<uint64_t> size = file_->Size();
  if (!size.ok()) {
    Close().IgnoreError();
    return size.status();
  }
  if (*size % kDiskPageSize != 0) {
    Status s = Status::Corruption(StringPrintf(
        "page file %s size %llu not a multiple of %zu (torn final page %llu?)",
        path.c_str(), static_cast<unsigned long long>(*size), kDiskPageSize,
        static_cast<unsigned long long>(*size / kDiskPageSize)));
    Close().IgnoreError();
    return s;
  }
  uint64_t pages = *size / kDiskPageSize;
  if (pages >= kMaxPageCount) {
    Close().IgnoreError();
    return Status::Corruption(StringPrintf(
        "page file %s holds %llu pages, beyond the PageId range",
        path.c_str(), static_cast<unsigned long long>(pages)));
  }
  page_count_ = static_cast<PageId>(pages);
  return Status::OK();
}

Status PageFile::Close() {
  if (file_ == nullptr) return Status::OK();
  Status s = file_->Close();
  file_.reset();
  env_ = nullptr;
  page_count_ = 0;
  return s;
}

Status PageFile::ReadPage(PageId id, Page* page) {
  if (file_ == nullptr) return Status::Internal("page file not open");
  if (id >= page_count_) {
    return Status::OutOfRange(
        StringPrintf("read page %u of %u", id, page_count_));
  }
  uint8_t disk_page[kDiskPageSize];
  X3_RETURN_IF_ERROR(file_->ReadAt(static_cast<uint64_t>(id) * kDiskPageSize,
                                   disk_page, kDiskPageSize));
  uint64_t stored = 0;
  std::memcpy(&stored, disk_page + kPageSize, kPageTrailerSize);
  uint64_t expected = PageChecksum(disk_page, id);
  if (stored != expected) {
    return Status::Corruption(StringPrintf(
        "page %u of %s failed checksum (stored %016llx, computed %016llx): "
        "torn write or corruption",
        id, path_.c_str(), static_cast<unsigned long long>(stored),
        static_cast<unsigned long long>(expected)));
  }
  std::memcpy(page->bytes(), disk_page, kPageSize);
  ++pages_read_;
  return Status::OK();
}

Status PageFile::WritePageWithTrailer(PageId id, const uint8_t* payload) {
  uint8_t disk_page[kDiskPageSize];
  std::memcpy(disk_page, payload, kPageSize);
  uint64_t checksum = PageChecksum(payload, id);
  std::memcpy(disk_page + kPageSize, &checksum, kPageTrailerSize);
  return file_->WriteAt(static_cast<uint64_t>(id) * kDiskPageSize, disk_page,
                        kDiskPageSize);
}

Status PageFile::WritePage(PageId id, const Page& page) {
  if (file_ == nullptr) return Status::Internal("page file not open");
  if (id >= page_count_) {
    return Status::OutOfRange(
        StringPrintf("write page %u of %u", id, page_count_));
  }
  X3_RETURN_IF_ERROR(WritePageWithTrailer(id, page.bytes()));
  ++pages_written_;
  return Status::OK();
}

Result<PageId> PageFile::AllocatePage() {
  if (file_ == nullptr) return Status::Internal("page file not open");
  if (page_count_ >= kMaxPageCount) {
    return Status::ResourceExhausted(StringPrintf(
        "page file %s full: PageId space exhausted at %u pages",
        path_.c_str(), page_count_));
  }
  Page zero;
  zero.Zero();
  PageId id = page_count_;
  X3_RETURN_IF_ERROR(WritePageWithTrailer(id, zero.bytes()));
  ++pages_written_;
  ++page_count_;
  return id;
}

Status PageFile::Flush() {
  if (file_ == nullptr) return Status::OK();
  return Status::OK();
}

Status PageFile::Sync() {
  if (file_ == nullptr) return Status::Internal("page file not open");
  return file_->Sync();
}

Status PageFile::VerifyAllPages() {
  if (file_ == nullptr) return Status::Internal("page file not open");
  Page scratch;
  for (PageId id = 0; id < page_count_; ++id) {
    X3_RETURN_IF_ERROR(ReadPage(id, &scratch));
  }
  return Status::OK();
}

}  // namespace x3
