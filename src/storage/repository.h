#ifndef ORPHEUS_STORAGE_REPOSITORY_H_
#define ORPHEUS_STORAGE_REPOSITORY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/cvd.h"
#include "storage/wal.h"

namespace orpheus::storage {

/// Crash-safe durable repository (DESIGN.md §10): a directory holding
///   CURRENT           -> "snapshot-<seq>\n" (atomically replaced pointer)
///   snapshot-<seq>    -> full state at checkpoint seq (snapshot.h)
///   wal-<seq>         -> commits/creates/drops since that snapshot (wal.h)
///
/// Open() reads CURRENT, loads the snapshot, replays the WAL (truncating a
/// torn tail), validates every recovered CVD, and returns a Repository
/// whose WAL is positioned for appending. Creates, drops and plain
/// (single-user) commits are logged before they are applied:
/// Cvd::CommitTable hands the planned commit record to its observer, which
/// lands in LogCommit and waits out the fsync, before applying it in
/// memory, so a failed append aborts the commit with no phantom in-memory
/// version. Session commits (DESIGN.md §13.3) are enqueued by the observer,
/// applied in memory, then waited on outside the session commit lock; they
/// stay invisible until durable because the session watermark advances
/// only after the wait, and a failed batch poisons the session manager.
/// Any failed append degrades the repository (no further logging is
/// acknowledged — reopen to recover) because the WAL file may hold a torn
/// tail. Checkpoint() folds the WAL into a fresh snapshot and starts a new
/// epoch.
///
/// Concurrent committers use group commit (DESIGN.md §13.3): EnqueueCommit
/// queues the record and returns a ticket; WaitCommitDurable elects the
/// first waiter as leader, which appends every queued record under ONE
/// fsync while the repository lock is released — later committers keep
/// enqueueing meanwhile and are batched into the next flush.
class Repository {
 public:
  struct Stats {
    uint64_t seq = 0;              // current checkpoint epoch
    uint64_t wal_records = 0;      // records replayed + appended this epoch
    uint64_t wal_bytes = 0;        // current WAL size in bytes
    bool recovered_torn_tail = false;
  };

  /// Open (or initialize) a repository at `dir`. A missing directory or a
  /// directory without CURRENT is initialized fresh (seq 1, empty
  /// snapshot, empty WAL). Corruption anywhere -> DataLoss with the file
  /// and offset; a torn WAL tail is repaired silently (logged + counted).
  static Result<std::unique_ptr<Repository>> Open(const std::string& dir);

  ~Repository();
  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;

  /// The CVDs recovered by Open(), handed over exactly once (the CLI owns
  /// them afterwards and wires each Cvd's commit observer to LogCommit).
  std::vector<std::unique_ptr<core::Cvd>> TakeCvds();

  /// Durably log a freshly initialized CVD / one commit / a drop.
  /// LogCommit is EnqueueCommit + WaitCommitDurable (a group of >= 1).
  Status LogCreate(const core::Cvd& cvd);
  Status LogCommit(const std::string& cvd_name,
                   const core::CvdCommitRecord& record);
  Status LogDrop(const std::string& cvd_name);

  /// Group commit. Enqueue the record for the WAL and return its ticket;
  /// records are written in ticket order. The caller must follow up with
  /// WaitCommitDurable before acknowledging the commit. Enqueue order is
  /// the WAL order, so callers serialize Enqueue with their in-memory
  /// apply (the session layer holds its commit lock across both).
  Result<uint64_t> EnqueueCommit(const std::string& cvd_name,
                                 const core::CvdCommitRecord& record)
      ORPHEUS_EXCLUDES(mu_);

  /// Block until the batch containing `ticket` is fsync'd (leading the
  /// flush if no leader is active). Returns the batch's append status:
  /// non-OK means the record is NOT durable and the repository is
  /// degraded.
  Status WaitCommitDurable(uint64_t ticket) ORPHEUS_EXCLUDES(mu_);

  /// WaitCommitDurable with a deadline. When another committer is leading
  /// the flush (e.g. stalled in fsync) and `ticket`'s batch is still not
  /// durable at the deadline, returns DeadlineExceeded: durability is then
  /// UNKNOWN — the record stays queued/in-flight and the caller may wait
  /// again. When no leader is active this waiter leads the flush itself,
  /// to completion regardless of the deadline: its own in-progress write
  /// cannot be safely abandoned, and without a leader the queue would
  /// never drain. So the deadline bounds waiting on *others*, not this
  /// thread's own fsync.
  Status WaitCommitDurableFor(uint64_t ticket, const Deadline& deadline)
      ORPHEUS_EXCLUDES(mu_);

  /// Fold the current state (passed in by the owner of the CVDs) into a
  /// new snapshot, start a fresh WAL, repoint CURRENT, and remove the old
  /// epoch's files. Crash-safe at every step: until CURRENT is replaced,
  /// recovery uses the old snapshot+WAL; afterwards, the new one.
  Status Checkpoint(const std::vector<const core::Cvd*>& cvds);

  /// Checkpoint + close the WAL. The repository is unusable afterwards.
  Status Close(const std::vector<const core::Cvd*>& cvds);

  /// Verify the on-disk state of a repository directory without opening
  /// it for writing: snapshot + WAL parse cleanly, every CVD passes the
  /// in-memory invariant validator. Returns per-file detail lines.
  static Result<std::vector<std::string>> Fsck(const std::string& dir);

  /// True once a WAL append has failed: in-memory state is ahead of the
  /// log, so further commits are refused until the repository is reopened.
  bool degraded() const ORPHEUS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return degraded_;
  }

  const std::string& dir() const { return dir_; }

  /// Snapshot of the durability counters. By value: a reference into the
  /// guarded struct would escape the lock.
  Stats stats() const ORPHEUS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  Repository(std::string dir, uint64_t seq, WalWriter wal);

  Status RequireHealthy() ORPHEUS_REQUIRES(mu_);
  Status AppendRecord(const WalRecord& record) ORPHEUS_REQUIRES(mu_);
  /// Checkpoint body, factored out so Close can run it under its own lock.
  Status CheckpointLocked(const std::vector<const core::Cvd*>& cvds)
      ORPHEUS_REQUIRES(mu_);
  Result<uint64_t> EnqueueCommitLocked(const std::string& cvd_name,
                                       const core::CvdCommitRecord& record)
      ORPHEUS_REQUIRES(mu_);
  Status WaitCommitDurableLocked(uint64_t ticket, const Deadline& deadline)
      ORPHEUS_REQUIRES(mu_);
  /// Flush the whole pending queue as leader: swap it out, release mu_,
  /// append + fsync the batch, re-acquire mu_, publish the outcome.
  void LeadBatchLocked() ORPHEUS_REQUIRES(mu_);
  /// Wait until no leader is mid-flush and no commit is pending (leading
  /// flushes ourselves if needed). Direct WAL users (creates, drops,
  /// checkpoints, close) call this first: it orders them after every
  /// enqueued commit and guarantees exclusive use of the WAL file.
  void DrainCommitsLocked() ORPHEUS_REQUIRES(mu_);

  const std::string dir_;  // immutable after construction

  // One coarse lock serializes all logging/checkpoint state: WAL appends
  // fsync, so the lock hold time is dominated by the disk anyway. Rank
  // kRepository is the lowest in the table — the repository may call into
  // every common/ subsystem (logger, metrics, failpoints) while held.
  mutable Mutex mu_{"storage.repository", lock_rank::kRepository};
  uint64_t seq_ ORPHEUS_GUARDED_BY(mu_) = 0;
  std::optional<WalWriter> wal_ ORPHEUS_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<core::Cvd>> recovered_ ORPHEUS_GUARDED_BY(mu_);
  bool degraded_ ORPHEUS_GUARDED_BY(mu_) = false;
  bool closed_ ORPHEUS_GUARDED_BY(mu_) = false;
  Stats stats_ ORPHEUS_GUARDED_BY(mu_);

  // Group-commit state. Tickets are dense: record for ticket t is the
  // (t - durable_ticket_)'th entry of pending_ once the earlier ones are
  // flushed. While leader_active_ the in-flight leader owns the WAL file
  // with mu_ released; everyone else keeps enqueueing or waits.
  std::vector<WalRecord> pending_ ORPHEUS_GUARDED_BY(mu_);
  uint64_t enqueued_ticket_ ORPHEUS_GUARDED_BY(mu_) = 0;
  uint64_t durable_ticket_ ORPHEUS_GUARDED_BY(mu_) = 0;
  /// First ticket of the failed range (0 = no failure). Tickets >= this
  /// were never made durable: their waiters get batch_error_.
  uint64_t failed_from_ticket_ ORPHEUS_GUARDED_BY(mu_) = 0;
  Status batch_error_ ORPHEUS_GUARDED_BY(mu_);
  bool leader_active_ ORPHEUS_GUARDED_BY(mu_) = false;
  CondVar commit_cv_;
};

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_REPOSITORY_H_
