#ifndef ORPHEUS_CLI_COMMAND_PROCESSOR_H_
#define ORPHEUS_CLI_COMMAND_PROCESSOR_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/access_control.h"
#include "core/cvd.h"
#include "minidb/database.h"
#include "net/client.h"
#include "session/session.h"
#include "storage/repository.h"

namespace orpheus::cli {

/// One open session of the `session` family, served in-process or by an
/// orpheusd server (defined in command_processor.cc).
class CliSession;

/// The OrpheusDB command client (Sec. 3.3): parses git-style version
/// control commands and SQL, and executes them against an in-process
/// session. One processor is one user session holding the staging area
/// (materialized tables), the registered CVDs, and the access controller.
///
/// Supported commands:
///   create_user <name>              register a user
///   config <name>                   log in
///   whoami                          show the current user
///   init <cvd> -t <table> [-k a,b]  register a staging table as a CVD
///   init <cvd> -f <file.csv> [-s <schema.txt>] [-k a,b]
///   checkout <cvd> -v <v1[,v2...]> (-t <table> | -f <file.csv>)
///   commit -t <table> -m "<msg>"    commit a staging table
///   commit <cvd> -f <file.csv> [-s <schema.txt>] -m "<msg>"
///   diff <cvd> -v <v1>,<v2>         records in v1 but not v2
///   ls                              list CVDs
///   drop <cvd>                      remove a CVD
///   log <cvd>                       version metadata and graph
///   run "<sql>"                     versioned SQL (Sec. 3.3.2)
///   optimize <cvd> [-g <factor>]    run the partition optimizer (Ch. 5)
///   tables                          list staging tables
///   open <dir>                      open (or create) a durable repository:
///                                   recover its CVDs, then log every
///                                   init/commit/drop to its WAL
///   checkpoint                      fold the WAL into a fresh snapshot
///   close                           checkpoint, close the repository, and
///                                   release its CVDs from the session
///   fsck [cvd]                      check structural invariants; with no
///                                   argument checks every CVD and the
///                                   staging tables, reporting every
///                                   violation found
///   fsck -d <dir>                   offline check of an on-disk repository
///                                   (CURRENT, snapshot, WAL, recovered
///                                   CVD invariants) without opening it
///   stats [json] [reset] [-j file]  metrics snapshot (DESIGN.md §8):
///                                   plaintext by default, `json` for the
///                                   JSON form, `-j <file>` to write the
///                                   JSON to a file, `reset` to zero every
///                                   counter/histogram/span afterwards
///   trace start|stop|status         flight recorder (DESIGN.md §9):
///   trace dump <file>               record span begin/end events into the
///                                   per-thread ring buffers; dump writes
///                                   Chrome trace-event JSON loadable in
///                                   chrome://tracing or Perfetto
///   profile <command...>            run any single command under a fresh
///                                   trace and render its per-stage tree
///                                   (count, total, self, p95)
///
/// Session commands (DESIGN.md §13, §14), with ids assigned here — served
/// in-process from this processor's CVDs, or by an orpheusd server after
/// `session connect`, with the same output either way. Checkouts land in
/// the staging area and commits ship a staging table. The first in-process
/// `session open` on a CVD hands it to a SessionManager (plain
/// checkout/commit/drop on it are refused) until its last session closes.
///   session connect <address>       serve sessions from an orpheusd server
///                                   (unix:<path> or tcp:[host:]<port>)
///   session disconnect              serve sessions in-process again
///   session open <cvd>              open a session (prints its id)
///   session checkout <sid> -v <vids> -t <table>
///   session commit <sid> -t <table> -m "<msg>"
///                                   optimistic commit: reconciles against a
///                                   concurrent tip, or reports the conflict
///                                   set
///   session refresh <sid>           re-pin to the durable watermark
///   session heartbeat <sid>         renew a remote session's lease
///   session close <sid>             close the session, dropping its
///                                   uncommitted staging tables
///   session ls                      list CVDs with watermark and sessions
class CommandProcessor {
 public:
  CommandProcessor();
  ~CommandProcessor();

  /// Execute one command line; returns the text to display.
  Result<std::string> Execute(const std::string& line);

  /// Sticky process exit code for the CLI binary: 0 until a command
  /// reports something worse. `fsck` sets kExitCorrupt when it finds
  /// violations, on-disk corruption, or a degraded repository — distinct
  /// from kExitError so scripts can tell "bad invocation" from "bad data".
  static constexpr int kExitError = 1;
  static constexpr int kExitCorrupt = 2;
  int exit_code() const { return exit_code_; }
  void NoteError() { NoteExit(kExitError); }

  /// Accessors for tests and embedding.
  minidb::Database* staging() { return &staging_; }
  core::Cvd* cvd(const std::string& name) {
    auto it = cvds_.find(name);
    return it == cvds_.end() ? nullptr : it->second.get();
  }
  core::AccessController* access() { return &access_; }
  storage::Repository* repository() { return repo_.get(); }

 private:
  struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;  // -x value

    const std::string* Flag(const std::string& name) const {
      auto it = flags.find(name);
      return it == flags.end() ? nullptr : &it->second;
    }
  };

  static Result<Args> ParseArgs(const std::string& line);

  Result<std::string> Init(const Args& args);
  Result<std::string> Checkout(const Args& args);
  Result<std::string> Commit(const Args& args);
  Result<std::string> Diff(const Args& args);
  Result<std::string> Ls() const;
  Result<std::string> Drop(const Args& args);
  Result<std::string> Log(const Args& args);
  Result<std::string> RunSql(const Args& args);
  Result<std::string> Optimize(const Args& args);
  Result<std::string> Fsck(const Args& args);
  Result<std::string> SessionCmd(const Args& args);
  Result<std::string> Stats(const Args& args);
  Result<std::string> Trace(const Args& args);
  Result<std::string> Profile(const std::string& command);
  Result<std::string> OpenRepository(const Args& args);
  Result<std::string> CheckpointRepository();
  Result<std::string> CloseRepository();

  Result<core::Cvd*> FindCvd(const std::string& name);
  /// The CVD that owns staging table `table`, or an error.
  Result<core::Cvd*> CvdOfStagingTable(const std::string& table);

  /// Route the CVD's future commits into the repository's WAL. Safe to
  /// call whether or not a repository is open: the observer checks at
  /// commit time, so it survives close/reopen.
  void WireCommitObserver(core::Cvd* cvd);
  std::vector<const core::Cvd*> CvdPointers() const;

  /// InvalidArgument naming `action` while any CVD is session-managed.
  Status RefuseWhileSessionsOpen(const char* action) const;

  void NoteExit(int code) {
    if (code > exit_code_) exit_code_ = code;
  }

  minidb::Database staging_;
  std::map<std::string, std::unique_ptr<core::Cvd>> cvds_;
  std::unique_ptr<storage::Repository> repo_;
  core::AccessController access_;
  // CVDs handed to the concurrent session layer while in-process sessions
  // are open on them.
  std::map<std::string, std::unique_ptr<session::SessionManager>> managers_;
  // The orpheusd connection (`session connect`); null = in-process.
  std::unique_ptr<net::Client> remote_;
  // Open sessions by CLI-assigned id. Declared after managers_ and remote_,
  // which they point into, so they are destroyed first.
  struct OpenSession {
    std::string cvd;
    std::unique_ptr<CliSession> session;
    std::set<std::string> tables;  // checked out, not yet committed
  };
  std::map<int, OpenSession> sessions_;
  int next_session_id_ = 1;
  int exit_code_ = 0;
  // CSV checkout provenance: file path -> (cvd name, parent versions).
  struct FileInfo {
    std::string cvd;
    std::vector<core::VersionId> parents;
  };
  std::map<std::string, FileInfo> files_;
};

}  // namespace orpheus::cli

#endif  // ORPHEUS_CLI_COMMAND_PROCESSOR_H_
