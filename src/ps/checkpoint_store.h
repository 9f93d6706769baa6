// Durable checkpoint tier (stage-1 insurance made real, §3.3).
//
// The in-memory checkpoints AgileML keeps on reliable nodes die with
// those nodes; when a correlated spot-market crash takes every transient
// node *and* the reliable tier, the only recovery source left is a
// snapshot on durable storage. CheckpointStore is that layer: versioned
// epochs of per-shard CRC32-framed chunks under an atomically-committed
// manifest, written to a pluggable DurableDevice that is allowed to be
// hostile (torn writes, bit rot, truncation, lost commits).
//
// Object layout on the device
//
//   ck/obj/s<shard>-v<version>      one chunk: framed shard blob
//   ck/ep/<epoch10>/MANIFEST        committed epoch manifest
//   ck/ep/<epoch10>/MANIFEST.tmp    phase-1 of the manifest commit
//
// Chunk frame (all multi-byte scalars via the rpc wire format):
//
//   u32   magic 'PCK1'
//   u8    format version (1)
//   var   shard index
//   var   shard version (ModelStore::ShardVersion at serialize time)
//   var   checkpoint clock
//   blob  payload = ModelStore::SerializeShardCheckpoint(shard)
//   u32   CRC-32 of every preceding byte
//
// Manifest frame:
//
//   u32   magic 'PMF1'
//   u8    format version (1)
//   var   epoch
//   var   clock
//   var   shard count N
//   N x { var shard, var shard_version, str chunk_name,
//         var chunk_bytes, u32 chunk_crc }
//   u32   CRC-32 of every preceding byte
//
// chunk_crc is the CRC-32 of the *entire chunk object*. Every valid
// chunk ends in the CRC-32 of its body, so that value is always the
// CRC-32 residue (kCrc32Residue): the writer records it without a
// second pass, and a reader checks it against the residue in the same
// pass that validates the frame trailer. Keeping the field keeps the
// manifest bytes unchanged, and an entry whose chunk_crc is not the
// residue is rejected.
//
// Commit protocol (two-phase): write every new chunk, write
// MANIFEST.tmp, then Rename() it to MANIFEST. The rename is the commit
// point — a crash before it leaves a torn epoch that readers skip
// because no committed manifest exists. Writes are incremental: a shard
// whose ShardVersion is unchanged since the last committed epoch reuses
// its chunk by name instead of rewriting the bytes.
//
// Validation is paranoid by design: ReadNewestValid() walks epochs
// newest-first and accepts the first one whose manifest parses, whose
// CRC matches, whose every chunk exists with the manifest's size and
// CRC, and whose frames all self-validate. Anything less is skipped and
// counted, never loaded. Scrub() applies the same checks to every
// object on the device.
#ifndef SRC_PS_CHECKPOINT_STORE_H_
#define SRC_PS_CHECKPOINT_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/obs/sinks.h"
#include "src/ps/clock_table.h"

namespace proteus {

// Minimal durable-storage contract. Names are flat strings ('/' is only
// a naming convention); Write replaces, Rename is atomic (the commit
// primitive), List returns all names sorted. Any call may fail — the
// store treats failure as "the process crashed here".
class DurableDevice {
 public:
  virtual ~DurableDevice() = default;

  virtual bool Write(const std::string& name, std::span<const std::uint8_t> bytes) = 0;
  virtual std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const = 0;
  virtual bool Delete(const std::string& name) = 0;
  virtual bool Rename(const std::string& from, const std::string& to) = 0;
  virtual std::vector<std::string> List() const = 0;

  bool Exists(const std::string& name) const { return Read(name).has_value(); }
};

// In-memory device for simulation and tests, with the fault hooks the
// chaos harness needs: armed one-shot crash faults (torn write, dropped
// rename) and direct corruption of stored objects.
class MemDurableDevice : public DurableDevice {
 public:
  bool Write(const std::string& name, std::span<const std::uint8_t> bytes) override;
  std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const override;
  bool Delete(const std::string& name) override;
  bool Rename(const std::string& from, const std::string& to) override;
  std::vector<std::string> List() const override;

  // The next Write persists only the first `keep_fraction` of its bytes
  // and reports failure — a crash mid-write leaving a torn frame.
  void ArmTornWrite(double keep_fraction = 0.5);
  // The next Rename does nothing and reports failure — a crash after
  // phase 1 but before the commit point, leaving MANIFEST.tmp behind.
  void ArmDropRename();

  // Bit rot / hostile-storage injection. All return false if `name` is
  // absent (or the offset is out of range).
  bool FlipBit(const std::string& name, std::size_t byte_index, int bit);
  bool Truncate(const std::string& name, std::size_t new_size);

  std::size_t object_count() const { return objects_.size(); }
  std::uint64_t bytes_written_total() const { return bytes_written_total_; }

 private:
  std::map<std::string, std::vector<std::uint8_t>> objects_;
  std::uint64_t bytes_written_total_ = 0;
  bool torn_write_armed_ = false;
  double torn_keep_fraction_ = 0.5;
  bool drop_rename_armed_ = false;
};

// File-backed device rooted at a directory; chunk/manifest names map to
// files ('/' to subdirectories). Writes go through a temp file + rename
// so the device itself never exposes a half-written object except when
// the process genuinely dies mid-write.
class FileDurableDevice : public DurableDevice {
 public:
  explicit FileDurableDevice(std::string root);

  bool Write(const std::string& name, std::span<const std::uint8_t> bytes) override;
  std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const override;
  bool Delete(const std::string& name) override;
  bool Rename(const std::string& from, const std::string& to) override;
  std::vector<std::string> List() const override;

  const std::string& root() const { return root_; }

 private:
  std::string Path(const std::string& name) const;
  std::string root_;
};

struct CheckpointStoreConfig {
  // Committed epochs kept before GC reclaims manifests and any chunks
  // no retained manifest references.
  int retain_epochs = 3;
};

struct CheckpointWriteResult {
  bool committed = false;  // False when a device fault aborted the 2PC.
  std::uint64_t epoch = 0;
  Clock clock = 0;
  std::uint64_t bytes_written = 0;  // Chunk + manifest bytes persisted.
  int chunks_written = 0;
  int chunks_reused = 0;  // Incremental hits (shard version unchanged).
};

struct LoadedCheckpoint {
  std::uint64_t epoch = 0;
  Clock clock = 0;
  std::vector<std::vector<std::uint8_t>> shard_blobs;
  std::uint64_t bytes_read = 0;
  // Committed-looking epochs rejected before this one validated.
  int corrupt_epochs_skipped = 0;
  // Epochs with only a MANIFEST.tmp (crash before the commit point).
  int torn_epochs_skipped = 0;
};

struct ScrubReport {
  int epochs_committed = 0;  // Manifests present (valid or not).
  int torn_epochs = 0;       // MANIFEST.tmp with no committed manifest.
  int frames_checked = 0;    // Manifest + chunk frames fully validated.
  std::vector<std::string> corrupt_objects;  // Failed CRC or structure.

  bool clean() const { return corrupt_objects.empty(); }
};

class CheckpointStore {
 public:
  explicit CheckpointStore(DurableDevice* device, CheckpointStoreConfig config = {});

  // Registers checkpoint.* metrics; nullptr detaches.
  void SetObservability(obs::MetricsRegistry* metrics);

  // Writes one epoch of pre-serialized shard blobs (a runtime's
  // in-memory checkpoint mirrored out) plus a manifest, commits via
  // rename, then GCs epochs beyond the retention window.
  // `shard_versions[s]` is ModelStore::ShardVersion(s) captured before
  // blob s was serialized: a shard whose version equals the one in the
  // last committed epoch is referenced by name without rewriting, so a
  // version never used before forces a full write.
  CheckpointWriteResult WriteBlobs(const std::vector<std::vector<std::uint8_t>>& blobs,
                                   const std::vector<std::uint64_t>& shard_versions,
                                   Clock clock);

  // Newest epoch that passes full validation; corrupt or torn epochs
  // are skipped (and counted in the result), never loaded.
  std::optional<LoadedCheckpoint> ReadNewestValid() const;

  // Validates every object on the device (manifests, chunks, torn
  // epochs). A corruption injected anywhere surfaces here.
  ScrubReport Scrub() const;

  std::uint64_t epochs_committed() const { return epochs_committed_; }
  std::uint64_t last_committed_epoch() const { return last_committed_epoch_; }
  std::uint64_t commit_aborts() const { return commit_aborts_; }
  const CheckpointStoreConfig& config() const { return config_; }
  DurableDevice* device() { return device_; }

 private:
  void CollectGarbage();

  DurableDevice* device_;
  CheckpointStoreConfig config_;

  std::uint64_t next_epoch_ = 1;
  std::uint64_t last_committed_epoch_ = 0;
  std::uint64_t epochs_committed_ = 0;
  std::uint64_t commit_aborts_ = 0;
  // shard -> version captured at the last *committed* epoch; the
  // incremental-reuse key. Torn commits must not update this, or a
  // later epoch would reference a chunk that was never fully written.
  std::map<int, std::uint64_t> committed_versions_;

  obs::Sinks sinks_{"checkpoint"};
};

// Exposed for tests: full validation of a single chunk object. Returns
// nullopt unless the frame parses and its CRC matches.
struct ParsedChunk {
  int shard = 0;
  std::uint64_t shard_version = 0;
  Clock clock = 0;
  std::vector<std::uint8_t> payload;
};
std::optional<ParsedChunk> ParseChunkFrame(std::span<const std::uint8_t> bytes);

}  // namespace proteus

#endif  // SRC_PS_CHECKPOINT_STORE_H_
