#include "xdb/database.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/hash.h"
#include "util/string_util.h"
#include "xdb/document_loader.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace x3 {

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = options;
  db->env_ = options.env != nullptr ? options.env : Env::Default();
  if (db->options_.data_file.empty()) {
    db->options_.data_file = StringPrintf(
        "/tmp/x3-db-%d-%p.dat", static_cast<int>(::getpid()),
        static_cast<void*>(db.get()));
    db->owns_data_file_ = true;
  }
  db->file_ = std::make_unique<PageFile>();
  X3_RETURN_IF_ERROR(db->file_->Open(db->options_.data_file,
                                     /*truncate=*/true, db->env_));
  db->pool_ = std::make_unique<BufferPool>(db->file_.get(),
                                           db->options_.buffer_pool_pages);
  db->store_ = std::make_unique<NodeStore>(db->pool_.get());
  WriteAheadLog::Options wal_options;
  wal_options.segment_size_bytes = db->options_.wal_segment_size_bytes;
  X3_ASSIGN_OR_RETURN(
      db->wal_, WriteAheadLog::CreateFresh(db->env_, db->options_.data_file,
                                           wal_options));
  return db;
}

namespace {

constexpr uint32_t kCatalogMagic = 0x58334354;  // "X3CT"
// Version 2: catalog carries a trailing 64-bit checksum of the body.
// Version 3: after the header, the catalog records the WAL durable
// horizon (u64 commit LSN) and a journal of the partially filled tail
// page's records (u32 count + raw record bytes), so recovery can
// rebuild that page if a post-checkpoint write tears it.
constexpr uint32_t kCatalogVersion = 3;

/// Seed for the catalog body checksum, distinct from page checksums.
constexpr uint64_t kCatalogChecksumSeed = 0x58334354a5a5a5a5ULL;

void AppendRaw(std::string* out, const void* data, size_t len) {
  // len == 0 legitimately pairs with a null `data` (an empty vector's
  // data()); append's pointer contract forbids that even for 0 bytes.
  if (len != 0) {
    out->append(static_cast<const char*>(data), len);
  }
}

void AppendString(std::string* out, const std::string& s) {
  uint32_t len = static_cast<uint32_t>(s.size());
  AppendRaw(out, &len, sizeof(len));
  AppendRaw(out, s.data(), s.size());
}

/// In-memory reader over the catalog body with bounds-checked reads, so
/// a truncated catalog becomes Corruption instead of an overrun.
class CatalogCursor {
 public:
  CatalogCursor(std::string_view data, std::string path)
      : data_(data), path_(std::move(path)) {}

  Status ReadRaw(void* out, size_t len) {
    if (len > data_.size() - pos_) {
      return Status::Corruption("truncated catalog " + path_);
    }
    // len == 0 legitimately pairs with a null `out` (an empty vector's
    // data()); memcpy's nonnull contract forbids that even for 0 bytes.
    if (len != 0) {
      std::memcpy(out, data_.data() + pos_, len);
    }
    pos_ += len;
    return Status::OK();
  }

  Result<std::string> ReadString() {
    uint32_t len = 0;
    X3_RETURN_IF_ERROR(ReadRaw(&len, sizeof(len)));
    if (len > (1u << 26)) {
      return Status::Corruption("implausible string length in " + path_);
    }
    std::string s(len, '\0');
    X3_RETURN_IF_ERROR(ReadRaw(s.data(), len));
    return s;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  std::string path_;
};

std::string CatalogPath(const std::string& data_file) {
  return data_file + ".cat";
}

}  // namespace

Status Database::Checkpoint() {
  if (in_batch_) {
    return Status::InvalidArgument(
        "Checkpoint with an open batch: commit or roll back first");
  }
  X3_RETURN_IF_ERROR(pool_->FlushAll());  // x3-lint: allow(raw-page-write) -- checkpoint: pages flushed before the catalog rename commits them
  // Make the data pages durable before the catalog that describes them.
  X3_RETURN_IF_ERROR(file_->Sync());

  std::string body;
  uint32_t header[3] = {kCatalogMagic, kCatalogVersion, store_->size()};
  AppendRaw(&body, header, sizeof(header));

  // WAL durable horizon: everything committed up to this LSN is covered
  // by this catalog, so reopen only replays transactions past it.
  uint64_t durable = last_commit_lsn_;
  AppendRaw(&body, &durable, sizeof(durable));

  // Journal the partially filled tail page's records. Full pages are
  // append-frozen (never rewritten), but the tail page is rewritten by
  // future flushes; if one of those tears it, recovery rebuilds the
  // committed records from this image.
  uint32_t tail_count = static_cast<uint32_t>(
      store_->size() % NodeStore::kRecordsPerPage);
  AppendRaw(&body, &tail_count, sizeof(tail_count));
  std::string tail_image;
  X3_RETURN_IF_ERROR(store_->SerializeRange(store_->size() - tail_count,
                                            tail_count, &tail_image));
  AppendRaw(&body, tail_image.data(), tail_image.size());

  uint32_t num_roots = static_cast<uint32_t>(roots_.size());
  AppendRaw(&body, &num_roots, sizeof(num_roots));
  AppendRaw(&body, roots_.data(), roots_.size() * sizeof(NodeId));

  uint32_t num_tags = static_cast<uint32_t>(tags_.size());
  AppendRaw(&body, &num_tags, sizeof(num_tags));
  for (TagId t = 0; t < num_tags; ++t) {
    AppendString(&body, tags_.Name(t));
  }

  uint32_t num_values = static_cast<uint32_t>(values_.size());
  AppendRaw(&body, &num_values, sizeof(num_values));
  for (ValueId v = 0; v < num_values; ++v) {
    AppendString(&body, values_.Value(v));
  }

  for (TagId t = 0; t < num_tags; ++t) {
    const std::vector<NodeId>& list = NodesWithTagId(t);
    uint32_t count = static_cast<uint32_t>(list.size());
    AppendRaw(&body, &count, sizeof(count));
    AppendRaw(&body, list.data(), list.size() * sizeof(NodeId));
  }

  uint64_t checksum = HashFinalize(
      Fnv1a64(body.data(), body.size(), kCatalogChecksumSeed));
  AppendRaw(&body, &checksum, sizeof(checksum));

  // Write-to-temp + fsync + atomic rename: a crash at any point leaves
  // either the old catalog or the new one, never a half-written mix.
  std::string path = CatalogPath(options_.data_file);
  std::string tmp_path = path + ".tmp";
  Status s = WriteStringToFile(env_, tmp_path, body, /*sync=*/true);
  if (!s.ok()) {
    env_->RemoveFile(tmp_path).IgnoreError();
    return s;
  }
  X3_RETURN_IF_ERROR(env_->RenameFile(tmp_path, path));  // x3-lint: allow(raw-page-write) -- checkpoint: the atomic catalog-commit rename itself
  // The rename is the commit point: from here the catalog covers every
  // applied transaction, so the WAL's job is done and its segments can
  // go (this also revives a WAL poisoned by a failed commit).
  durable_lsn_ = last_commit_lsn_.load(std::memory_order_relaxed);
  if (wal_ != nullptr) {
    X3_RETURN_IF_ERROR(wal_->DeleteAllSegments());
  }
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::OpenExisting(
    DatabaseOptions options) {
  if (options.data_file.empty()) {
    return Status::InvalidArgument(
        "OpenExisting requires an explicit data_file");
  }
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = options;
  db->env_ = options.env != nullptr ? options.env : Env::Default();

  // The catalog comes first: Checkpoint writes it atomically, so it is
  // the recovery anchor. Its node count bounds which pages are
  // trusted, and its tail-page journal + durable LSN drive the data
  // file repair and WAL replay below.
  std::string path = CatalogPath(options.data_file);
  std::string raw;
  Status s = ReadFileToString(db->env_, path, &raw);
  if (!s.ok()) {
    if (s.code() == StatusCode::kNotFound) {
      return Status::NotFound("no catalog at " + path +
                              " (was Checkpoint() called?)");
    }
    return s;
  }
  if (raw.size() < sizeof(uint64_t)) {
    return Status::Corruption("catalog " + path + " too small");
  }
  std::string_view body(raw.data(), raw.size() - sizeof(uint64_t));
  uint64_t stored = 0;
  std::memcpy(&stored, raw.data() + body.size(), sizeof(stored));
  uint64_t computed = HashFinalize(
      Fnv1a64(body.data(), body.size(), kCatalogChecksumSeed));
  if (stored != computed) {
    return Status::Corruption(StringPrintf(
        "catalog %s failed checksum (stored %016llx, computed %016llx): "
        "torn write or corruption",
        path.c_str(), static_cast<unsigned long long>(stored),
        static_cast<unsigned long long>(computed)));
  }

  CatalogCursor cursor(body, path);
  uint32_t header[3];
  X3_RETURN_IF_ERROR(cursor.ReadRaw(header, sizeof(header)));
  if (header[0] != kCatalogMagic) {
    return Status::Corruption("bad catalog magic in " + path);
  }
  if (header[1] != kCatalogVersion) {
    return Status::Corruption("unsupported catalog version");
  }

  uint64_t durable_lsn = 0;
  X3_RETURN_IF_ERROR(cursor.ReadRaw(&durable_lsn, sizeof(durable_lsn)));
  uint32_t tail_count = 0;
  X3_RETURN_IF_ERROR(cursor.ReadRaw(&tail_count, sizeof(tail_count)));
  if (tail_count != header[2] % NodeStore::kRecordsPerPage) {
    return Status::Corruption(StringPrintf(
        "catalog tail journal has %u records but %u nodes imply %u",
        tail_count, header[2],
        static_cast<uint32_t>(header[2] % NodeStore::kRecordsPerPage)));
  }
  std::string tail_image(tail_count * NodeStore::kRecordBytes, '\0');
  X3_RETURN_IF_ERROR(cursor.ReadRaw(tail_image.data(), tail_image.size()));

  // Repair the data file before opening it as pages. Only bytes past
  // the catalog's coverage (a crashed batch's appends) and the shared
  // tail page (rewritten by every flush) can legitimately be damaged;
  // full pages under the catalog are append-frozen and must verify.
  uint64_t full_pages = header[2] / NodeStore::kRecordsPerPage;
  uint64_t covered_pages = full_pages + (tail_count != 0 ? 1 : 0);
  X3_ASSIGN_OR_RETURN(uint64_t file_bytes,
                      db->env_->FileSize(options.data_file));
  if (file_bytes < full_pages * kDiskPageSize) {
    return Status::Corruption(StringPrintf(
        "%s has %llu bytes but the catalog covers %llu full pages: "
        "truncated page file?",
        options.data_file.c_str(),
        static_cast<unsigned long long>(file_bytes),
        static_cast<unsigned long long>(full_pages)));
  }
  if (file_bytes != covered_pages * kDiskPageSize &&
      file_bytes != full_pages * kDiskPageSize) {
    // A crash mid-append left a ragged/uncovered tail. Cut back to the
    // full-page prefix; the tail page (if any) is rebuilt below and
    // uncheckpointed batches are re-applied from the WAL.
    std::unique_ptr<File> raw;
    X3_ASSIGN_OR_RETURN(
        raw, db->env_->OpenFile(options.data_file, OpenMode::kReadWrite));
    Status trunc = raw->Truncate(full_pages * kDiskPageSize);
    if (trunc.ok()) trunc = raw->Sync();
    raw->Close().IgnoreError();
    X3_RETURN_IF_ERROR(trunc);
    db->recovery_stats_.data_file_truncated = true;
  }

  db->file_ = std::make_unique<PageFile>();
  X3_RETURN_IF_ERROR(
      db->file_->Open(options.data_file, /*truncate=*/false, db->env_));
  if (tail_count != 0) {
    Page journaled;
    journaled.Zero();
    std::memcpy(journaled.bytes(), tail_image.data(), tail_image.size());
    PageId tail_id = static_cast<PageId>(full_pages);
    if (db->file_->page_count() == full_pages) {
      // The tail page never made it to disk (or the truncation above
      // removed it): rebuild it from the catalog's journal.
      X3_ASSIGN_OR_RETURN(PageId got, db->file_->AllocatePage());  // x3-lint: allow(raw-page-write) -- recovery: tail-page rebuild from the catalog journal
      if (got != tail_id) {
        return Status::Internal(StringPrintf(
            "tail page allocated out of order: got %u want %u", got,
            tail_id));
      }
      X3_RETURN_IF_ERROR(db->file_->WritePage(tail_id, journaled));  // x3-lint: allow(raw-page-write) -- recovery: tail-page rebuild from the catalog journal
      X3_RETURN_IF_ERROR(db->file_->Sync());
      db->recovery_stats_.tail_page_rebuilt = true;
    } else {
      Page check;
      Status read = db->file_->ReadPage(tail_id, &check);
      if (read.code() == StatusCode::kCorruption) {
        // A post-checkpoint flush tore the shared tail page. The
        // journal holds every committed record on it.
        X3_RETURN_IF_ERROR(db->file_->WritePage(tail_id, journaled));  // x3-lint: allow(raw-page-write) -- recovery: torn tail page repaired from the catalog journal
        X3_RETURN_IF_ERROR(db->file_->Sync());
        db->recovery_stats_.tail_page_rebuilt = true;
      } else {
        X3_RETURN_IF_ERROR(read);
      }
    }
  }

  // Recovery scan: checksum-verify every page before trusting any of
  // them, so torn writes surface now (with a page id) rather than as a
  // wrong cube later.
  X3_RETURN_IF_ERROR(db->file_->VerifyAllPages());
  db->pool_ = std::make_unique<BufferPool>(db->file_.get(),
                                           options.buffer_pool_pages);

  // The node count must fit in the verified data pages.
  uint64_t capacity = static_cast<uint64_t>(db->file_->page_count()) *
                      NodeStore::kRecordsPerPage;
  if (header[2] > capacity) {
    return Status::Corruption(StringPrintf(
        "catalog claims %u nodes but %s has %u pages (capacity %llu): "
        "truncated page file?",
        header[2], options.data_file.c_str(), db->file_->page_count(),
        static_cast<unsigned long long>(capacity)));
  }
  db->store_ = std::make_unique<NodeStore>(db->pool_.get(), header[2]);

  // Guard allocations against implausible counts before resizing: any
  // array must fit in the bytes that are actually left.
  auto plausible = [&cursor](uint64_t count, uint64_t unit) {
    return count * unit <= cursor.remaining();
  };

  uint32_t num_roots = 0;
  X3_RETURN_IF_ERROR(cursor.ReadRaw(&num_roots, sizeof(num_roots)));
  if (!plausible(num_roots, sizeof(NodeId))) {
    return Status::Corruption("implausible root count in catalog");
  }
  db->roots_.resize(num_roots);
  X3_RETURN_IF_ERROR(
      cursor.ReadRaw(db->roots_.data(), num_roots * sizeof(NodeId)));

  uint32_t num_tags = 0;
  X3_RETURN_IF_ERROR(cursor.ReadRaw(&num_tags, sizeof(num_tags)));
  for (uint32_t t = 0; t < num_tags; ++t) {
    X3_ASSIGN_OR_RETURN(std::string name, cursor.ReadString());
    if (db->tags_.Intern(name) != t) {
      return Status::Corruption("tag dictionary out of order");
    }
  }

  uint32_t num_values = 0;
  X3_RETURN_IF_ERROR(cursor.ReadRaw(&num_values, sizeof(num_values)));
  for (uint32_t v = 0; v < num_values; ++v) {
    X3_ASSIGN_OR_RETURN(std::string value, cursor.ReadString());
    if (db->values_.Intern(value) != v) {
      return Status::Corruption("value dictionary out of order");
    }
  }

  db->tag_index_.resize(num_tags);
  for (uint32_t t = 0; t < num_tags; ++t) {
    uint32_t count = 0;
    X3_RETURN_IF_ERROR(cursor.ReadRaw(&count, sizeof(count)));
    if (!plausible(count, sizeof(NodeId))) {
      return Status::Corruption("implausible index size in catalog");
    }
    db->tag_index_[t].resize(count);
    X3_RETURN_IF_ERROR(
        cursor.ReadRaw(db->tag_index_[t].data(), count * sizeof(NodeId)));
  }
  if (cursor.remaining() != 0) {
    return Status::Corruption("trailing bytes in catalog " + path);
  }

  db->durable_lsn_ = durable_lsn;
  db->last_commit_lsn_ = durable_lsn;

  // WAL recovery: cut any torn tail, then re-apply committed batches
  // the catalog doesn't cover. Replay re-shreds the logged documents
  // through the normal load path (deterministic, so the rebuilt state
  // is identical to the pre-crash one) without re-logging them, and
  // nothing is checkpointed here — recovering twice is idempotent.
  WriteAheadLog::Options wal_options;
  wal_options.segment_size_bytes = options.wal_segment_size_bytes;
  WriteAheadLog::RecoveryInfo info;
  X3_ASSIGN_OR_RETURN(db->wal_,
                      WriteAheadLog::OpenAndRecover(
                          db->env_, options.data_file, wal_options, &info));
  db->recovery_stats_.wal_records_truncated = info.truncated_records;
  db->recovery_stats_.wal_segments_truncated = info.truncated_segments;
  for (const WriteAheadLog::CommittedTxn& txn : info.txns) {
    if (txn.commit_lsn <= durable_lsn) continue;
    for (const std::string& payload : txn.payloads) {
      Result<NodeId> root = db->LoadXmlString(payload);
      if (!root.ok()) {
        return Status::Corruption(StringPrintf(
            "WAL replay of transaction %llu failed: %s",
            static_cast<unsigned long long>(txn.txn_id),
            root.status().message().c_str()));
      }
      ++db->recovery_stats_.replayed_documents;
    }
    db->last_commit_lsn_ = txn.commit_lsn;
    ++db->recovery_stats_.replayed_txns;
  }
  db->wal_->EnsureNextLsnAtLeast(db->last_commit_lsn_ + 1);
  return db;
}

Status Database::BeginBatch() {
  if (in_batch_) {
    return Status::InvalidArgument("a batch is already open");
  }
  X3_ASSIGN_OR_RETURN(batch_txn_, wal_->BeginTxn());
  marks_.node_count = store_->size();
  marks_.roots = roots_.size();
  marks_.tags = tags_.size();
  marks_.values = values_.size();
  marks_.tag_index = tag_index_.size();
  in_batch_ = true;
  return Status::OK();
}

Result<uint64_t> Database::CommitBatch() {
  if (!in_batch_) {
    return Status::InvalidArgument("no batch is open");
  }
  in_batch_ = false;
  Result<uint64_t> lsn = wal_->Commit(batch_txn_);
  if (!lsn.ok()) {
    // The batch may or may not have reached disk (the write tore, or
    // the sync failed after a complete write) — reopening resolves the
    // ambiguity to exactly-before or exactly-after. In *this* process
    // the batch is gone either way, and the WAL stays poisoned until
    // Checkpoint() or reopen.
    RollbackToMarks();
    return lsn.status();
  }
  last_commit_lsn_ = *lsn;
  return lsn;
}

Status Database::RollbackBatch() {
  if (!in_batch_) {
    return Status::InvalidArgument("no batch is open");
  }
  in_batch_ = false;
  Status s = wal_->Abort(batch_txn_);
  RollbackToMarks();
  return s;
}

void Database::RollbackToMarks() {
  store_->TruncateTo(marks_.node_count);
  tags_.TruncateTo(marks_.tags);
  values_.TruncateTo(marks_.values);
  // Pre-existing tags may have gained postings for the rolled-back
  // nodes; pop them (postings are appended in node-id order).
  for (size_t t = 0; t < marks_.tag_index && t < tag_index_.size(); ++t) {
    std::vector<NodeId>& list = tag_index_[t];
    while (!list.empty() && list.back() >= marks_.node_count) {
      list.pop_back();
    }
  }
  tag_index_.resize(marks_.tag_index);
  roots_.resize(marks_.roots);
}

Database::~Database() {
  // Tear down in dependency order before deleting the backing file.
  wal_.reset();
  store_.reset();
  pool_.reset();
  if (file_ != nullptr) {
    file_->Close().IgnoreError();
    file_.reset();
  }
  if (owns_data_file_ && env_ != nullptr) {
    env_->RemoveFile(options_.data_file).IgnoreError();
    env_->RemoveFile(CatalogPath(options_.data_file)).IgnoreError();
    WriteAheadLog::RemoveSegments(env_, options_.data_file).IgnoreError();
  }
}

Result<NodeId> Database::LoadDocument(const XmlDocument& doc) {
  if (in_batch_) {
    // Log before apply. The WAL buffers the serialized document in
    // memory (nothing hits disk until CommitBatch), and replay re-parses
    // this exact byte form, so write options must stay canonical.
    XmlWriteOptions wo;
    wo.indent = false;
    wo.declaration = false;
    X3_RETURN_IF_ERROR(wal_->AppendData(batch_txn_, WriteXml(doc, wo)));
  }
  DocumentLoader loader(this);
  return loader.Load(doc);
}

Result<NodeId> Database::LoadXmlString(std::string_view xml) {
  X3_ASSIGN_OR_RETURN(XmlDocument doc, ParseXml(xml));
  return LoadDocument(doc);
}

Result<NodeId> Database::LoadXmlFile(const std::string& path) {
  X3_ASSIGN_OR_RETURN(XmlDocument doc, ParseXmlFile(path, env_));
  return LoadDocument(doc);
}

const std::vector<NodeId>& Database::NodesWithTag(std::string_view tag) const {
  TagId id = tags_.Lookup(tag);
  if (id == kInvalidTagId) return empty_;
  return NodesWithTagId(id);
}

const std::vector<NodeId>& Database::NodesWithTagId(TagId tag_id) const {
  if (tag_id >= tag_index_.size()) return empty_;
  return tag_index_[tag_id];
}

Result<std::vector<NodeId>> Database::DescendantsWithTag(NodeId root,
                                                         TagId tag_id) const {
  NodeRecord root_rec;
  X3_RETURN_IF_ERROR(GetNode(root, &root_rec));
  const std::vector<NodeId>& list = NodesWithTagId(tag_id);
  // Descendants of `root` have ids in (root, root_rec.end].
  auto lo = std::upper_bound(list.begin(), list.end(), root);
  auto hi = std::upper_bound(list.begin(), list.end(), root_rec.end);
  return std::vector<NodeId>(lo, hi);
}

Result<std::vector<NodeId>> Database::ChildrenWithTag(NodeId root,
                                                      TagId tag_id) const {
  X3_ASSIGN_OR_RETURN(std::vector<NodeId> desc,
                      DescendantsWithTag(root, tag_id));
  std::vector<NodeId> out;
  out.reserve(desc.size());
  for (NodeId id : desc) {
    NodeRecord rec;
    X3_RETURN_IF_ERROR(GetNode(id, &rec));
    if (rec.parent == root) out.push_back(id);
  }
  return out;
}

Result<bool> Database::IsAncestor(NodeId anc, NodeId desc) const {
  if (anc >= desc) return false;
  NodeRecord rec;
  X3_RETURN_IF_ERROR(GetNode(anc, &rec));
  return desc <= rec.end;
}

Result<DatabaseStats> Database::ComputeStats() const {
  DatabaseStats stats;
  stats.nodes = store_->size();
  stats.documents = roots_.size();
  stats.distinct_tags = tags_.size();
  stats.distinct_values = values_.size();
  stats.data_pages = file_->page_count();
  uint64_t depth_sum = 0;
  for (NodeId id = 0; id < store_->size(); ++id) {
    NodeRecord rec;
    X3_RETURN_IF_ERROR(store_->Get(id, &rec));
    if (rec.kind == NodeKind::kElement) {
      ++stats.elements;
    } else {
      ++stats.attributes;
    }
    depth_sum += rec.level;
    if (rec.level > stats.max_depth) stats.max_depth = rec.level;
  }
  stats.avg_depth =
      stats.nodes == 0 ? 0 : static_cast<double>(depth_sum) /
                                 static_cast<double>(stats.nodes);
  return stats;
}

Result<XmlDocument> Database::ReconstructSubtree(NodeId root) const {
  NodeRecord root_rec;
  X3_RETURN_IF_ERROR(GetNode(root, &root_rec));
  if (root_rec.kind != NodeKind::kElement) {
    return Status::InvalidArgument(
        "can only reconstruct from an element node");
  }
  auto make_element = [&](const NodeRecord& rec) {
    auto el = XmlNode::Element(tags_.Name(rec.tag_id));
    if (rec.value_id != kInvalidValueId) {
      el->AddText(values_.Value(rec.value_id));
    }
    return el;
  };
  std::unique_ptr<XmlNode> result = make_element(root_rec);
  // Ids are preorder, so a single pass with a parent stack rebuilds the
  // tree: the stack holds (node id, end, element) of open ancestors.
  struct Open {
    NodeId id;
    NodeId end;
    XmlNode* element;
  };
  std::vector<Open> stack{{root, root_rec.end, result.get()}};
  for (NodeId id = root + 1; id <= root_rec.end; ++id) {
    NodeRecord rec;
    X3_RETURN_IF_ERROR(GetNode(id, &rec));
    while (stack.back().end < id) stack.pop_back();
    if (stack.back().id != rec.parent) {
      return Status::Corruption(StringPrintf(
          "node %u's parent %u is not the enclosing open element", id,
          rec.parent));
    }
    XmlNode* parent = stack.back().element;
    if (rec.kind == NodeKind::kAttribute) {
      // Stored attribute tags carry the '@' prefix.
      std::string name = tags_.Name(rec.tag_id).substr(1);
      parent->SetAttribute(std::move(name), values_.Value(rec.value_id));
    } else {
      XmlNode* child = parent->AddChild(make_element(rec));
      stack.push_back({id, rec.end, child});
    }
  }
  return XmlDocument(std::move(result));
}

Result<std::string> Database::NodeValue(NodeId id) const {
  NodeRecord rec;
  X3_RETURN_IF_ERROR(GetNode(id, &rec));
  if (rec.value_id == kInvalidValueId) return std::string();
  return values_.Value(rec.value_id);
}

}  // namespace x3
