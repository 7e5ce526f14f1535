#ifndef X3_XDB_DATABASE_H_
#define X3_XDB_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/write_ahead_log.h"
#include "util/env.h"
#include "util/result.h"
#include "xdb/node_store.h"
#include "xdb/tag_dictionary.h"
#include "xdb/value_dictionary.h"
#include "xml/xml_node.h"

namespace x3 {

/// Construction options for a Database.
struct DatabaseOptions {
  /// Path of the backing page file. Empty = a unique file under /tmp
  /// that is deleted on close. The catalog (dictionaries, indexes,
  /// document roots) is checkpointed to "<data_file>.cat".
  std::string data_file;
  /// Buffer pool capacity in frames (pages). The paper used a 512 MB
  /// pool of 8 KB pages; the default here is deliberately smaller and
  /// overridable so experiments can control the data:memory ratio.
  size_t buffer_pool_pages = 4096;
  /// All file I/O (page file, catalog, XML loads through LoadXmlFile)
  /// goes through this Env. nullptr = Env::Default(). Inject a
  /// FaultInjectionEnv here to storm the storage layer.
  Env* env = nullptr;
  /// WAL segment rotation threshold ("<data_file>.wal.<n>" files).
  uint64_t wal_segment_size_bytes = 4ull << 20;
};

/// What recovery did while reopening a database (OpenExisting).
struct DatabaseRecoveryStats {
  /// Committed WAL transactions past the catalog's durable horizon
  /// that were replayed into the store.
  uint64_t replayed_txns = 0;
  uint64_t replayed_documents = 0;
  /// Torn/uncommitted WAL records cut off by WAL recovery.
  uint64_t wal_records_truncated = 0;
  uint64_t wal_segments_truncated = 0;
  /// The partially filled tail page was rebuilt from the catalog's
  /// record journal (a checkpoint write tore it, or it was never
  /// written).
  bool tail_page_rebuilt = false;
  /// Pages past the catalog's coverage were cut off the data file.
  bool data_file_truncated = false;
};

/// Summary statistics of a database's contents (the numbers the paper
/// reports for its datasets: element counts, depth distribution, size).
struct DatabaseStats {
  uint64_t nodes = 0;
  uint64_t elements = 0;
  uint64_t attributes = 0;
  uint64_t documents = 0;
  uint16_t max_depth = 0;
  double avg_depth = 0;
  uint64_t distinct_tags = 0;
  uint64_t distinct_values = 0;
  uint64_t data_pages = 0;
};

/// A minimal native XML database in the mould of TIMBER: documents are
/// shredded into interval-labelled node records in a paged data file,
/// with a tag dictionary, a value dictionary, and per-tag node indexes
/// (node lists sorted in document order) that feed structural joins and
/// tree-pattern evaluation.
///
/// NodeIds are global preorder positions across all loaded documents, so
/// containment tests work database-wide without document ids (intervals
/// of distinct documents never overlap).
class Database {
 public:
  /// Creates an empty database (truncating any existing files at
  /// options.data_file).
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  /// Reopens a previously checkpointed database: the page file plus the
  /// "<data_file>.cat" catalog written by Checkpoint(). Every data page
  /// is checksum-verified and the catalog's trailing checksum is
  /// checked, so a torn write or bit flip surfaces as Corruption here —
  /// naming the damaged page — rather than as a wrong cube later.
  static Result<std::unique_ptr<Database>> OpenExisting(
      DatabaseOptions options);

  /// Flushes all dirty pages, fsyncs the page file, and durably
  /// persists the catalog (dictionaries, tag indexes, document roots)
  /// with a write-to-temp + fsync + rename sequence so OpenExisting can
  /// restore the database after a restart or crash.
  Status Checkpoint();

  /// Opens a write batch. Documents loaded until CommitBatch() are
  /// logged to the WAL and applied to the in-memory/paged state; none
  /// of them is durable (or visible after a crash) until the batch
  /// commits. Batches cannot nest.
  Status BeginBatch();

  /// Durably commits the open batch with one group fsync of the WAL.
  /// Returns the batch's commit LSN. On failure the in-memory state is
  /// rolled back to the BeginBatch() savepoint and the WAL refuses
  /// further writes until Checkpoint() or reopen; durability of the
  /// failed batch is ambiguous (a reopen lands exactly before or
  /// exactly after it, never in between).
  Result<uint64_t> CommitBatch();

  /// Abandons the open batch: reclaims its WAL records and rewinds
  /// the store, dictionaries, indexes, and roots to the savepoint.
  Status RollbackBatch();

  bool in_batch() const { return in_batch_; }
  /// Highest commit LSN covered by the on-disk catalog. Relaxed-atomic
  /// so introspection (X3Server::Statusz) may read the durability
  /// horizon concurrently with the write lane; mutation still happens
  /// only under the owner's ingest lock.
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_relaxed);
  }
  /// Highest commit LSN applied to the in-memory state. Same atomic
  /// read contract as durable_lsn().
  uint64_t last_commit_lsn() const {
    return last_commit_lsn_.load(std::memory_order_relaxed);
  }
  /// What recovery did (only meaningful after OpenExisting).
  const DatabaseRecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  WriteAheadLog* wal() { return wal_.get(); }

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Shreds a parsed document into the store. Returns the root NodeId.
  Result<NodeId> LoadDocument(const XmlDocument& doc);

  /// Parses and loads an XML string.
  Result<NodeId> LoadXmlString(std::string_view xml);

  /// Parses and loads an XML file.
  Result<NodeId> LoadXmlFile(const std::string& path);

  /// Record access (goes through the buffer pool).
  Status GetNode(NodeId id, NodeRecord* record) const {
    return store_->Get(id, record);
  }

  /// All nodes with `tag`, in document order. Empty when unknown.
  const std::vector<NodeId>& NodesWithTag(std::string_view tag) const;
  const std::vector<NodeId>& NodesWithTagId(TagId tag_id) const;

  /// Nodes with `tag_id` in the subtree of `root` (excluding `root`),
  /// found by binary search on the tag index.
  Result<std::vector<NodeId>> DescendantsWithTag(NodeId root,
                                                 TagId tag_id) const;

  /// Subset of DescendantsWithTag whose parent is `root`.
  Result<std::vector<NodeId>> ChildrenWithTag(NodeId root, TagId tag_id) const;

  /// True iff `anc` is a proper ancestor of `desc`.
  Result<bool> IsAncestor(NodeId anc, NodeId desc) const;

  /// The (stripped) value of a node: attribute value or element direct
  /// text; empty string when absent.
  Result<std::string> NodeValue(NodeId id) const;

  TagDictionary& tags() { return tags_; }
  const TagDictionary& tags() const { return tags_; }
  ValueDictionary& values() { return values_; }
  const ValueDictionary& values() const { return values_; }

  NodeId node_count() const { return store_->size(); }

  /// Scans the store and summarizes its contents.
  Result<DatabaseStats> ComputeStats() const;

  /// Rebuilds an XML tree from the stored form of `root`'s subtree.
  /// Attributes and element nesting round-trip exactly; an element's
  /// direct text (which the loader stores concatenated and stripped)
  /// comes back as a single leading text child.
  Result<XmlDocument> ReconstructSubtree(NodeId root) const;
  const std::vector<NodeId>& document_roots() const { return roots_; }
  BufferPoolStats buffer_stats() const { return pool_->stats(); }
  BufferPool* buffer_pool() { return pool_.get(); }

 private:
  Database() = default;

  friend class DocumentLoader;

  /// BeginBatch() savepoint: sizes of every mutable structure, enough
  /// to rewind an aborted batch (all growth is append-only).
  struct BatchMarks {
    NodeId node_count = 0;
    size_t roots = 0;
    size_t tags = 0;
    size_t values = 0;
    size_t tag_index = 0;
  };

  void RollbackToMarks();

  DatabaseOptions options_;
  Env* env_ = nullptr;
  bool owns_data_file_ = false;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<NodeStore> store_;
  TagDictionary tags_;
  ValueDictionary values_;
  /// tag_id -> node ids in document order.
  std::vector<std::vector<NodeId>> tag_index_;
  std::vector<NodeId> roots_;
  std::vector<NodeId> empty_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::atomic<uint64_t> durable_lsn_{0};
  std::atomic<uint64_t> last_commit_lsn_{0};
  bool in_batch_ = false;
  uint64_t batch_txn_ = 0;
  BatchMarks marks_;
  DatabaseRecoveryStats recovery_stats_;
};

}  // namespace x3

#endif  // X3_XDB_DATABASE_H_
