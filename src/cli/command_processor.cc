#include "cli/command_processor.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/env.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/lyresplit.h"
#include "core/query.h"
#include "core/validate.h"
#include "minidb/csv.h"

namespace orpheus::cli {

using core::Cvd;
using core::VersionId;
using minidb::Table;

/// One open session of the `session` family, served in-process or by an
/// orpheusd server. Checkouts hand back a copy for the CLI staging area and
/// commits ship a staging table, so callers never branch on the transport.
class CliSession {
 public:
  virtual ~CliSession() = default;
  /// Materialize `vids` and return a copy for the caller's staging area.
  virtual Result<Table> Checkout(const std::vector<VersionId>& vids,
                                 const std::string& table_name) = 0;
  /// Commit `table` against the provenance recorded at its checkout.
  virtual Result<session::CommitOutcome> Commit(const Table& table,
                                                const std::string& message,
                                                const std::string& author) = 0;
  /// Re-pin to the durable watermark; returns it.
  virtual Result<VersionId> Refresh() = 0;
  /// Renew the lease; returns its term in ms, or 0 when the session has
  /// no lease (in-process).
  virtual Result<int64_t> Heartbeat() = 0;
  virtual Status Close() = 0;
};

namespace {

// Shell-style tokenizer: whitespace-separated, quotes group.
Result<std::vector<std::string>> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_token = false;
  char quote = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quote != 0) {
      if (c == quote) {
        quote = 0;
      } else {
        cur += c;
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      quote = c;
      in_token = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (in_token) {
        out.push_back(std::move(cur));
        cur.clear();
        in_token = false;
      }
      continue;
    }
    cur += c;
    in_token = true;
  }
  if (quote != 0) return Status::InvalidArgument("unterminated quote");
  if (in_token) out.push_back(std::move(cur));
  return out;
}

// A strictly parsed id in [1, INT32_MAX]. Version and session ids are
// int32, so a wider value is refused rather than truncated.
std::optional<int32_t> ParseId(std::string_view text) {
  const std::optional<int64_t> v = ParseIntStrict(text);
  if (!v || *v < 1 || *v > std::numeric_limits<int32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<int32_t>(*v);
}

Result<std::vector<VersionId>> ParseVersionList(const std::string& spec) {
  std::vector<VersionId> vids;
  for (const auto& part : Split(spec, ',')) {
    const std::optional<int32_t> v = ParseId(part);
    if (!v) {
      return Status::InvalidArgument(
          StrFormat("bad version id '%s'", part.c_str()));
    }
    vids.push_back(*v);
  }
  if (vids.empty()) return Status::InvalidArgument("no versions given");
  return vids;
}

// The one rendering of a session commit, whichever transport served it.
std::string RenderCommitOutcome(int sid, const std::string& table,
                                const std::string& cvd,
                                const session::CommitOutcome& outcome) {
  std::string out =
      StrFormat("session %d committed table %s as version %d of CVD %s", sid,
                table.c_str(), outcome.vid, cvd.c_str());
  if (outcome.reconciled) {
    out += StrFormat("\nreconciled with concurrent version %d into merge "
                     "version %d",
                     outcome.reconciled_with, outcome.merged_vid);
  } else if (!outcome.conflicts.empty()) {
    out += StrFormat("\nCONFLICT with concurrent version %d: %zu attribute "
                     "conflict(s); v%d left as a divergent branch",
                     outcome.reconciled_with, outcome.conflicts.size(),
                     outcome.vid);
    for (const session::MergeConflict& c : outcome.conflicts) {
      out += StrFormat("\n  key=%s attribute=%s base=%s ours=%s theirs=%s",
                       c.key.c_str(), c.attribute.c_str(), c.base.c_str(),
                       c.ours.c_str(), c.theirs.c_str());
    }
  }
  return out;
}

// Serves a session from this process's SessionManager the way
// SessionServer::HandleCheckout/HandleCommit serve a remote one: checkouts
// hand back a copy and commits restage the shipped table first.
class LocalSession final : public CliSession {
 public:
  explicit LocalSession(std::unique_ptr<session::Session> session)
      : session_(std::move(session)) {}

  Result<Table> Checkout(const std::vector<VersionId>& vids,
                         const std::string& table_name) override {
    ORPHEUS_RETURN_NOT_OK(session_->Checkout(vids, table_name));
    return session_->table(table_name)->Clone(table_name);
  }
  Result<session::CommitOutcome> Commit(const Table& table,
                                        const std::string& message,
                                        const std::string& author) override {
    ORPHEUS_RETURN_NOT_OK(
        session_->ReplaceStaging(table.name(), table.Clone(table.name())));
    return session_->Commit(table.name(), message, author);
  }
  Result<VersionId> Refresh() override {
    ORPHEUS_RETURN_NOT_OK(session_->Refresh());
    return session_->watermark();
  }
  Result<int64_t> Heartbeat() override { return int64_t{0}; }
  Status Close() override { return Status::OK(); }

 private:
  std::unique_ptr<session::Session> session_;
};

// Serves a session from an orpheusd server: the client plus the server's
// session id.
class RemoteSession final : public CliSession {
 public:
  RemoteSession(net::Client* client, uint64_t sid)
      : client_(client), sid_(sid) {}

  Result<Table> Checkout(const std::vector<VersionId>& vids,
                         const std::string& table_name) override {
    return client_->Checkout(sid_, vids, table_name);
  }
  Result<session::CommitOutcome> Commit(const Table& table,
                                        const std::string& message,
                                        const std::string& author) override {
    return client_->Commit(sid_, table, message, author);
  }
  Result<VersionId> Refresh() override { return client_->Refresh(sid_); }
  Result<int64_t> Heartbeat() override { return client_->Heartbeat(sid_); }
  Status Close() override { return client_->CloseSession(sid_); }

 private:
  net::Client* client_;  // the processor's connection; outlives the session
  uint64_t sid_;
};

std::string RenderTable(const Table& t, size_t max_rows = 20) {
  std::ostringstream os;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c) os << " | ";
    os << t.schema().column(c).name;
  }
  os << "\n";
  for (uint32_t r = 0; r < t.num_rows() && r < max_rows; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c) os << " | ";
      os << t.GetValue(r, c).ToString();
    }
    os << "\n";
  }
  if (t.num_rows() > max_rows) {
    os << "... (" << t.num_rows() - max_rows << " more rows)\n";
  }
  return os.str();
}

}  // namespace

CommandProcessor::CommandProcessor() = default;
CommandProcessor::~CommandProcessor() = default;

Result<CommandProcessor::Args> CommandProcessor::ParseArgs(
    const std::string& line) {
  auto tokens = Tokenize(line);
  if (!tokens.ok()) return tokens.status();
  Args args;
  for (size_t i = 0; i < tokens->size(); ++i) {
    const std::string& tok = (*tokens)[i];
    if (tok.size() >= 2 && tok[0] == '-' && !std::isdigit(
                                                static_cast<unsigned char>(
                                                    tok[1]))) {
      std::string value;
      if (i + 1 < tokens->size()) {
        value = (*tokens)[++i];
      }
      args.flags[tok.substr(1)] = value;
    } else {
      args.positional.push_back(tok);
    }
  }
  return args;
}

Result<Cvd*> CommandProcessor::FindCvd(const std::string& name) {
  auto it = cvds_.find(name);
  if (it == cvds_.end()) {
    if (managers_.count(name) != 0) {
      return Status::InvalidArgument(StrFormat(
          "CVD %s is open for concurrent use; drive it with the session "
          "commands or close its sessions first",
          name.c_str()));
    }
    return Status::NotFound(StrFormat("no CVD named %s", name.c_str()));
  }
  return it->second.get();
}

Status CommandProcessor::RefuseWhileSessionsOpen(const char* action) const {
  if (managers_.empty()) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "in-process sessions are open; close them before %s", action));
}

Result<Cvd*> CommandProcessor::CvdOfStagingTable(const std::string& table) {
  for (auto& [name, cvd] : cvds_) {
    (void)name;
    for (const auto& staged : cvd->StagedTables()) {
      if (staged == table) return cvd.get();
    }
  }
  return Status::NotFound(
      StrFormat("table %s was not checked out from any CVD", table.c_str()));
}

Result<std::string> CommandProcessor::Execute(const std::string& line) {
  // `profile` wraps the rest of the line, which must reach the inner
  // Execute verbatim (quotes intact), so it is peeled off before
  // tokenization.
  std::string_view trimmed = Trim(line);
  if (trimmed.size() > 8 && ToLower(std::string(trimmed.substr(0, 8))) ==
                                "profile ") {
    return Profile(std::string(Trim(trimmed.substr(8))));
  }
  auto args_result = ParseArgs(line);
  if (!args_result.ok()) return args_result.status();
  Args args = args_result.MoveValueOrDie();
  if (args.positional.empty()) return std::string();
  std::string cmd = ToLower(args.positional[0]);
  args.positional.erase(args.positional.begin());

  if (cmd == "create_user") {
    if (args.positional.empty()) {
      return Status::InvalidArgument("usage: create_user <name>");
    }
    ORPHEUS_RETURN_NOT_OK(access_.CreateUser(args.positional[0]));
    return StrFormat("created user %s", args.positional[0].c_str());
  }
  if (cmd == "config") {
    if (args.positional.empty()) {
      return Status::InvalidArgument("usage: config <name>");
    }
    ORPHEUS_RETURN_NOT_OK(access_.Login(args.positional[0]));
    return StrFormat("logged in as %s", args.positional[0].c_str());
  }
  if (cmd == "whoami") {
    return access_.current_user().empty() ? std::string("<anonymous>")
                                          : access_.current_user();
  }
  if (cmd == "open") return OpenRepository(args);
  if (cmd == "checkpoint") return CheckpointRepository();
  if (cmd == "close") return CloseRepository();
  if (cmd == "init") return Init(args);
  if (cmd == "checkout") return Checkout(args);
  if (cmd == "commit") return Commit(args);
  if (cmd == "diff") return Diff(args);
  if (cmd == "ls") return Ls();
  if (cmd == "drop") return Drop(args);
  if (cmd == "log") return Log(args);
  if (cmd == "run") return RunSql(args);
  if (cmd == "optimize") return Optimize(args);
  if (cmd == "fsck") return Fsck(args);
  if (cmd == "session") return SessionCmd(args);
  if (cmd == "stats") return Stats(args);
  if (cmd == "trace") return Trace(args);
  if (cmd == "tables") {
    std::string out;
    for (const auto& name : staging_.ListTables()) {
      out += name;
      out += "\n";
    }
    return out;
  }
  return Status::InvalidArgument(StrFormat("unknown command '%s'",
                                           cmd.c_str()));
}

Result<std::string> CommandProcessor::Init(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: init <cvd> (-t table | -f csv)");
  }
  const std::string& name = args.positional[0];
  if (cvds_.count(name)) {
    return Status::AlreadyExists(StrFormat("CVD %s exists", name.c_str()));
  }

  Cvd::Options options;
  if (const std::string* pk = args.Flag("k")) {
    options.primary_key = Split(*pk, ',');
  }

  const Table* source = nullptr;
  Table loaded("", minidb::Schema());
  if (const std::string* table_name = args.Flag("t")) {
    source = staging_.GetTable(*table_name);
    if (source == nullptr) {
      return Status::NotFound(
          StrFormat("no staging table %s", table_name->c_str()));
    }
  } else if (const std::string* path = args.Flag("f")) {
    minidb::Schema schema;
    const minidb::Schema* schema_ptr = nullptr;
    if (const std::string* spec_path = args.Flag("s")) {
      std::ifstream in(*spec_path);
      if (!in) {
        return Status::NotFound(
            StrFormat("cannot open schema file %s", spec_path->c_str()));
      }
      std::stringstream buf;
      buf << in.rdbuf();
      auto parsed = minidb::ParseSchemaSpec(buf.str());
      if (!parsed.ok()) return parsed.status();
      schema = *parsed;
      schema_ptr = &schema;
    }
    auto table = minidb::ReadCsv(*path, name, schema_ptr);
    if (!table.ok()) return table.status();
    loaded = table.MoveValueOrDie();
    source = &loaded;
  } else {
    return Status::InvalidArgument("init needs -t <table> or -f <csv>");
  }

  auto cvd = Cvd::Init(name, *source, options);
  if (!cvd.ok()) return cvd.status();
  if (repo_ != nullptr) {
    // Durably log the creation before registering it in the session: if
    // the log write fails, the CVD never existed anywhere.
    ORPHEUS_RETURN_NOT_OK(repo_->LogCreate(**cvd));
  }
  WireCommitObserver(cvd->get());
  cvds_[name] = cvd.MoveValueOrDie();
  return StrFormat("initialized CVD %s with version 1 (%zu records)",
                   name.c_str(), static_cast<size_t>(source->num_rows()));
}

Result<std::string> CommandProcessor::Checkout(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument(
        "usage: checkout <cvd> -v <vids> (-t table | -f csv)");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  const std::string* vspec = args.Flag("v");
  if (vspec == nullptr) {
    return Status::InvalidArgument("checkout needs -v <version list>");
  }
  auto vids = ParseVersionList(*vspec);
  if (!vids.ok()) return vids.status();

  if (const std::string* table = args.Flag("t")) {
    ORPHEUS_RETURN_NOT_OK((*cvd)->Checkout(*vids, *table, &staging_));
    access_.GrantTable(*table);
    return StrFormat("checked out version(s) %s into table %s",
                     vspec->c_str(), table->c_str());
  }
  if (const std::string* path = args.Flag("f")) {
    // Materialize, export, and drop the transient table; remember the
    // file's provenance for the later commit.
    std::string tmp = "__csv_checkout__";
    ORPHEUS_RETURN_NOT_OK((*cvd)->Checkout(*vids, tmp, &staging_));
    Table* t = staging_.GetTable(tmp);
    Status written = minidb::WriteCsv(*t, *path);
    Status forgotten = (*cvd)->ForgetStaging(tmp);
    Status dropped = staging_.DropTable(tmp);
    ORPHEUS_RETURN_NOT_OK(written);
    ORPHEUS_RETURN_NOT_OK(forgotten);
    ORPHEUS_RETURN_NOT_OK(dropped);
    files_[*path] = FileInfo{args.positional[0], *vids};
    return StrFormat("checked out version(s) %s into %s", vspec->c_str(),
                     path->c_str());
  }
  return Status::InvalidArgument("checkout needs -t <table> or -f <csv>");
}

Result<std::string> CommandProcessor::Commit(const Args& args) {
  const std::string* msg = args.Flag("m");
  std::string message = msg ? *msg : "";

  if (const std::string* table = args.Flag("t")) {
    ORPHEUS_RETURN_NOT_OK(access_.CheckTableAccess(*table));
    auto cvd = CvdOfStagingTable(*table);
    if (!cvd.ok()) return cvd.status();
    auto vid = (*cvd)->Commit(*table, &staging_, message,
                              access_.current_user());
    if (!vid.ok()) return vid.status();
    access_.RevokeTable(*table);
    return StrFormat("committed table %s as version %d of CVD %s",
                     table->c_str(), *vid, (*cvd)->name().c_str());
  }
  if (const std::string* path = args.Flag("f")) {
    auto info = files_.find(*path);
    if (info == files_.end()) {
      return Status::NotFound(
          StrFormat("%s was not checked out from any CVD", path->c_str()));
    }
    auto cvd = FindCvd(info->second.cvd);
    if (!cvd.ok()) return cvd.status();
    minidb::Schema schema;
    const minidb::Schema* schema_ptr = nullptr;
    if (const std::string* spec_path = args.Flag("s")) {
      std::ifstream in(*spec_path);
      if (!in) {
        return Status::NotFound(
            StrFormat("cannot open schema file %s", spec_path->c_str()));
      }
      std::stringstream buf;
      buf << in.rdbuf();
      auto parsed = minidb::ParseSchemaSpec(buf.str());
      if (!parsed.ok()) return parsed.status();
      schema = *parsed;
      // The exported csv carries the hidden _rid column; prepend it when
      // the user's schema file describes only the data attributes.
      if (schema.FindColumn("_rid") < 0) {
        minidb::Schema with_rid;
        with_rid.AddColumn({"_rid", minidb::ValueType::kInt64});
        for (const auto& def : schema.columns()) with_rid.AddColumn(def);
        schema = with_rid;
      }
      schema_ptr = &schema;
    }
    auto table = minidb::ReadCsv(*path, *path, schema_ptr);
    if (!table.ok()) return table.status();
    auto vid = (*cvd)->CommitTable(*table, info->second.parents, message,
                                   access_.current_user());
    if (!vid.ok()) return vid.status();
    files_.erase(info);
    return StrFormat("committed %s as version %d of CVD %s", path->c_str(),
                     *vid, (*cvd)->name().c_str());
  }
  return Status::InvalidArgument("commit needs -t <table> or -f <csv>");
}

Result<std::string> CommandProcessor::Diff(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: diff <cvd> -v <v1>,<v2>");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  const std::string* vspec = args.Flag("v");
  if (vspec == nullptr) return Status::InvalidArgument("diff needs -v v1,v2");
  auto vids = ParseVersionList(*vspec);
  if (!vids.ok()) return vids.status();
  if (vids->size() != 2) {
    return Status::InvalidArgument("diff takes exactly two versions");
  }
  auto table = (*cvd)->Diff((*vids)[0], (*vids)[1]);
  if (!table.ok()) return table.status();
  return StrFormat("records in v%d but not v%d:\n", (*vids)[0], (*vids)[1]) +
         RenderTable(*table);
}

Result<std::string> CommandProcessor::Ls() const {
  std::string out;
  for (const auto& [name, cvd] : cvds_) {
    out += StrFormat("%s  (%d versions, %llu bytes)\n", name.c_str(),
                     cvd->num_versions(),
                     static_cast<unsigned long long>(cvd->StorageBytes()));
  }
  for (const auto& [name, manager] : managers_) {
    int versions = 0;
    unsigned long long bytes = 0;
    ORPHEUS_IGNORE_ERROR(manager->ReadCvd([&](const core::Cvd& cvd) {
      versions = cvd.num_versions();
      bytes = cvd.StorageBytes();
      return Status::OK();
    }));
    out += StrFormat("%s  (%d versions, %llu bytes, session-managed)\n",
                     name.c_str(), versions, bytes);
  }
  return out.empty() ? "no CVDs\n" : out;
}

Result<std::string> CommandProcessor::Drop(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: drop <cvd>");
  }
  const std::string& name = args.positional[0];
  ORPHEUS_RETURN_NOT_OK(FindCvd(name).status());
  // Log before applying: if the drop record cannot be made durable, the
  // CVD stays (memory and disk agree either way).
  if (repo_ != nullptr) ORPHEUS_RETURN_NOT_OK(repo_->LogDrop(name));
  cvds_.erase(name);
  return StrFormat("dropped CVD %s", name.c_str());
}

Result<std::string> CommandProcessor::Log(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: log <cvd>");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  std::ostringstream os;
  for (auto it = (*cvd)->metadata().rbegin(); it != (*cvd)->metadata().rend();
       ++it) {
    os << "version " << it->vid;
    if (!it->parents.empty()) {
      os << " (parents:";
      for (auto p : it->parents) os << " " << p;
      os << ")";
    }
    os << "\n  author:  "
       << (it->author.empty() ? "<anonymous>" : it->author) << "\n  records: "
       << it->num_records << "\n  message: " << it->message << "\n";
  }
  return os.str();
}

Result<std::string> CommandProcessor::RunSql(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: run \"<sql>\"");
  }
  const std::string& sql = args.positional[0];
  // Route to the CVD named after the `CVD` keyword.
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  std::string cvd_name;
  for (size_t i = 0; i + 1 < tokens->size(); ++i) {
    if (ToLower((*tokens)[i]) == "cvd") {
      cvd_name = (*tokens)[i + 1];
      // strip trailing punctuation like ','
      while (!cvd_name.empty() &&
             (cvd_name.back() == ',' || cvd_name.back() == ';')) {
        cvd_name.pop_back();
      }
      break;
    }
  }
  if (cvd_name.empty()) {
    return Status::InvalidArgument("query must reference a CVD");
  }
  auto cvd = FindCvd(cvd_name);
  if (!cvd.ok()) return cvd.status();
  auto result = core::RunQuery(**cvd, sql);
  if (!result.ok()) return result.status();
  return RenderTable(*result, 50);
}

Result<std::string> CommandProcessor::Optimize(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: optimize <cvd> [-g factor]");
  }
  auto cvd = FindCvd(args.positional[0]);
  if (!cvd.ok()) return cvd.status();
  double factor = 2.0;
  if (const std::string* g = args.Flag("g")) {
    const std::optional<double> parsed = ParseDoubleStrict(*g);
    if (!parsed || *parsed < 1.0) {
      return Status::InvalidArgument(
          StrFormat("-g must be a number >= 1; got '%s'", g->c_str()));
    }
    factor = *parsed;
  }
  const auto& graph = (*cvd)->graph();
  // |R| estimate: records in the whole CVD (single partition union).
  auto single = core::ComputeTreeEstimatedCosts(
      graph, graph.ToTree(),
      core::Partitioning::SinglePartition(graph.num_versions()));
  // Saturate: a budget past 2^64 records (say `-g 1e300`) is unbounded,
  // and casting it to uint64_t would be undefined.
  const double budget = factor * static_cast<double>(single.storage);
  const uint64_t gamma =
      budget >= 0x1p64 ? std::numeric_limits<uint64_t>::max()
                       : static_cast<uint64_t>(budget);
  auto plan = core::LyreSplitForBudget(graph, gamma);
  return StrFormat(
      "LyreSplit plan: %d partitions (delta=%.3f), estimated storage %llu "
      "records (budget %llu), estimated avg checkout %.0f records (vs %.0f "
      "unpartitioned)",
      plan.partitioning.num_partitions, plan.delta,
      static_cast<unsigned long long>(plan.estimated.storage),
      static_cast<unsigned long long>(gamma), plan.estimated.checkout_avg,
      single.checkout_avg);
}

Result<std::string> CommandProcessor::Fsck(const Args& args) {
  if (const std::string* dir = args.Flag("d")) {
    // Offline check of an on-disk repository (works whether or not a
    // repository is open in this session — pure read). Corruption exits
    // with the distinct fsck code so scripts can tell it from a bad
    // invocation.
    auto lines = storage::Repository::Fsck(*dir);
    if (!lines.ok()) {
      NoteExit(kExitCorrupt);
      return lines.status();
    }
    std::string out =
        StrFormat("fsck %s: clean\n", dir->c_str());
    for (const std::string& line : *lines) {
      out += "  " + line + "\n";
    }
    return out;
  }
  ValidationReport report;
  int checked = 0;
  auto check_managed = [&](const std::string& name) {
    ORPHEUS_IGNORE_ERROR(managers_.at(name)->ReadCvd(
        [&report](const core::Cvd& cvd) {
          core::ValidateCvd(cvd, &report);
          return Status::OK();
        }));
    ++checked;
  };
  if (!args.positional.empty()) {
    const std::string& name = args.positional[0];
    if (managers_.count(name) != 0) {
      check_managed(name);
    } else {
      auto cvd = FindCvd(name);
      if (!cvd.ok()) return cvd.status();
      core::ValidateCvd(**cvd, &report);
      ++checked;
    }
  } else {
    for (const auto& [name, cvd] : cvds_) {
      (void)name;
      core::ValidateCvd(*cvd, &report);
      ++checked;
    }
    for (const auto& [name, manager] : managers_) {
      (void)manager;
      check_managed(name);
    }
    for (const auto& name : staging_.ListTables()) {
      const Table* table = staging_.GetTable(name);
      if (table != nullptr) table->ValidateIndexes(&report);
    }
  }
  std::string health;
  if (repo_ != nullptr && repo_->degraded()) {
    NoteExit(kExitCorrupt);
    health = StrFormat(
        "\nrepository %s is DEGRADED: a WAL append failed, commits are "
        "refused; close the process and reopen the repository to recover",
        repo_->dir().c_str());
  }
  if (report.ok()) {
    return StrFormat("fsck: %d CVD(s) checked, no violations found",
                     checked) +
           health;
  }
  NoteExit(kExitCorrupt);
  return StrFormat("fsck: %d violation(s) found\n%s",
                   static_cast<int>(report.num_violations()),
                   report.ToString().c_str()) +
         health;
}

Result<std::string> CommandProcessor::SessionCmd(const Args& args) {
  const std::string sub =
      args.positional.empty() ? "" : ToLower(args.positional[0]);
  const std::string* arg =
      args.positional.size() > 1 ? &args.positional[1] : nullptr;

  if (sub == "connect" || sub == "disconnect") {
    if (!sessions_.empty()) {
      return Status::InvalidArgument(StrFormat(
          "%zu session(s) open; close them before switching transports",
          sessions_.size()));
    }
    if (sub == "disconnect") {
      remote_.reset();
      return std::string("disconnected; sessions are served in-process");
    }
    if (arg == nullptr) {
      return Status::InvalidArgument(
          "usage: session connect <unix:<path> | tcp:[host:]<port>>");
    }
    ORPHEUS_ASSIGN_OR_RETURN(remote_, net::Client::Connect(*arg));
    return StrFormat("connected to %s as %s%s", arg->c_str(),
                     remote_->client_uuid().c_str(),
                     remote_->server_degraded()
                         ? " (server DEGRADED: read-only)"
                         : "");
  }
  if (sub == "ls") {
    std::vector<net::CvdSummary> cvds;
    if (remote_ != nullptr) {
      ORPHEUS_ASSIGN_OR_RETURN(cvds, remote_->Ls());
    } else {
      // What a server holding this processor's CVDs would list.
      const bool degraded = repo_ != nullptr && repo_->degraded();
      std::map<std::string, net::CvdSummary> local;
      for (const auto& [name, cvd] : cvds_) {
        local[name] = net::CvdSummary{name, cvd->num_versions(),
                                      cvd->num_versions(), 0, degraded};
      }
      for (const auto& [name, manager] : managers_) {
        net::CvdSummary& c = local[name] = net::CvdSummary{
            name, 0, manager->watermark(), 0, degraded || manager->failed()};
        ORPHEUS_IGNORE_ERROR(manager->ReadCvd([&c](const Cvd& cvd) {
          c.num_versions = cvd.num_versions();
          return Status::OK();
        }));
      }
      for (const auto& entry : sessions_) {
        ++local[entry.second.cvd].open_sessions;
      }
      for (auto& entry : local) cvds.push_back(std::move(entry.second));
    }
    if (cvds.empty()) return std::string("no CVDs\n");
    std::string out;
    for (const net::CvdSummary& c : cvds) {
      out += StrFormat("%s  (%d version(s), watermark v%d, %d open "
                       "session(s)%s)\n",
                       c.name.c_str(), c.num_versions, c.watermark,
                       c.open_sessions, c.failed ? ", COMMITS REFUSED" : "");
    }
    return out;
  }
  if (sub == "open") {
    if (arg == nullptr) {
      return Status::InvalidArgument("usage: session open <cvd>");
    }
    std::unique_ptr<CliSession> opened;
    VersionId watermark = core::kInvalidVersion;
    if (remote_ != nullptr) {
      ORPHEUS_ASSIGN_OR_RETURN(net::Client::OpenResult remote,
                               remote_->Open(*arg));
      opened = std::make_unique<RemoteSession>(remote_.get(), remote.sid);
      watermark = remote.watermark;
    } else {
      // The first in-process session on a CVD hands it to a SessionManager.
      if (managers_.count(*arg) == 0) {
        ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, FindCvd(*arg));
        if (!cvd->StagedTables().empty()) {
          return Status::InvalidArgument(StrFormat(
              "CVD %s has staged checkouts; commit them before `session "
              "open`",
              arg->c_str()));
        }
        managers_[*arg] = std::make_unique<session::SessionManager>(
            std::move(cvds_[*arg]), repo_.get());
        cvds_.erase(*arg);
      }
      std::unique_ptr<session::Session> local = managers_[*arg]->Open();
      watermark = local->watermark();
      opened = std::make_unique<LocalSession>(std::move(local));
    }
    const int sid = next_session_id_++;
    sessions_[sid] = OpenSession{*arg, std::move(opened), {}};
    return StrFormat("opened session %d on CVD %s (snapshot watermark v%d)",
                     sid, arg->c_str(), watermark);
  }

  // The remaining subcommands address one session: session <sub> <sid> ...
  if (sub != "checkout" && sub != "commit" && sub != "refresh" &&
      sub != "heartbeat" && sub != "close") {
    return Status::InvalidArgument(StrFormat(
        "unknown session subcommand '%s' (want connect|disconnect|open|"
        "checkout|commit|refresh|heartbeat|close|ls)",
        sub.c_str()));
  }
  const std::optional<int32_t> sid =
      arg == nullptr ? std::nullopt : ParseId(*arg);
  if (!sid) {
    return Status::InvalidArgument(
        StrFormat("bad session id '%s' (usage: session %s <sid> ...)",
                  arg == nullptr ? "" : arg->c_str(), sub.c_str()));
  }
  auto it = sessions_.find(*sid);
  if (it == sessions_.end()) {
    return Status::NotFound(StrFormat(
        "no open session %d (run `session open <cvd>`)", *sid));
  }
  CliSession* session = it->second.session.get();

  if (sub == "checkout") {
    const std::string* vspec = args.Flag("v");
    const std::string* table = args.Flag("t");
    if (vspec == nullptr || table == nullptr) {
      return Status::InvalidArgument(
          "usage: session checkout <sid> -v <vids> -t <table>");
    }
    auto vids = ParseVersionList(*vspec);
    if (!vids.ok()) return vids.status();
    if (staging_.HasTable(*table)) {
      return Status::AlreadyExists(
          StrFormat("staging table %s already exists", table->c_str()));
    }
    ORPHEUS_ASSIGN_OR_RETURN(Table fetched, session->Checkout(*vids, *table));
    const size_t rows = fetched.num_rows();
    ORPHEUS_RETURN_NOT_OK(staging_.AdoptTable(std::move(fetched)).status());
    it->second.tables.insert(*table);
    return StrFormat(
        "session %d checked out version(s) %s into table %s (%zu record(s))",
        *sid, vspec->c_str(), table->c_str(), rows);
  }
  if (sub == "commit") {
    const std::string* table = args.Flag("t");
    if (table == nullptr) {
      return Status::InvalidArgument(
          "usage: session commit <sid> -t <table> -m \"<msg>\"");
    }
    const Table* staged = staging_.GetTable(*table);
    if (staged == nullptr) {
      return Status::NotFound(
          StrFormat("no staging table named %s", table->c_str()));
    }
    const std::string* msg = args.Flag("m");
    ORPHEUS_ASSIGN_OR_RETURN(
        session::CommitOutcome outcome,
        session->Commit(*staged, msg ? *msg : "", access_.current_user()));
    ORPHEUS_RETURN_NOT_OK(staging_.DropTable(*table));
    it->second.tables.erase(*table);
    return RenderCommitOutcome(*sid, *table, it->second.cvd, outcome);
  }
  if (sub == "refresh") {
    ORPHEUS_ASSIGN_OR_RETURN(VersionId watermark, session->Refresh());
    return StrFormat("session %d now at watermark v%d", *sid, watermark);
  }
  if (sub == "heartbeat") {
    ORPHEUS_ASSIGN_OR_RETURN(int64_t lease, session->Heartbeat());
    return lease == 0 ? StrFormat("session %d is served in-process; "
                                  "in-process sessions have no lease",
                                  *sid)
                      : StrFormat("session %d lease renewed (%lld ms)", *sid,
                                  static_cast<long long>(lease));
  }
  // close: drop the session's uncommitted staging tables and forget it
  // even if the server could not be told (its lease expires it); hand an
  // in-process CVD back to single-user control once its last session is
  // gone.
  Status closed = session->Close();
  for (const std::string& table : it->second.tables) {
    ORPHEUS_IGNORE_ERROR(staging_.DropTable(table));
  }
  const std::string cvd = it->second.cvd;
  sessions_.erase(it);
  auto managed = managers_.find(cvd);
  if (managed != managers_.end() &&
      std::none_of(sessions_.begin(), sessions_.end(),
                   [&cvd](const auto& e) { return e.second.cvd == cvd; })) {
    std::unique_ptr<Cvd> released = managed->second->Release();
    managers_.erase(managed);
    WireCommitObserver(released.get());
    cvds_[cvd] = std::move(released);
  }
  ORPHEUS_RETURN_NOT_OK(closed);
  return StrFormat("closed session %d", *sid);
}

Result<std::string> CommandProcessor::Stats(const Args& args) {
  auto& registry = MetricsRegistry::Global();
  bool as_json = false;
  bool reset = false;
  for (const std::string& arg : args.positional) {
    std::string a = ToLower(arg);
    if (a == "json") {
      as_json = true;
    } else if (a == "reset") {
      reset = true;
    } else {
      return Status::InvalidArgument(
          StrFormat("usage: stats [json] [reset] [-j <file>]; got '%s'",
                    arg.c_str()));
    }
  }
  std::string out;
  if (const std::string* path = args.Flag("j")) {
    ORPHEUS_RETURN_NOT_OK(
        WriteFileAtomic(*path, registry.ToJson(), /*sync=*/false));
    out = StrFormat("metrics written to %s", path->c_str());
  } else {
    out = as_json ? registry.ToJson() : registry.ToText();
    if (!as_json && repo_ != nullptr) {
      // Surface repository health with the human-readable stats (the JSON
      // form stays pure metrics for the bench schema checker).
      out = StrFormat("repository %s: %s\n", repo_->dir().c_str(),
                      repo_->degraded()
                          ? "DEGRADED (WAL append failed; reopen to recover)"
                          : "healthy") +
            out;
    }
  }
  if (reset) registry.Reset();
  return out;
}

Result<std::string> CommandProcessor::Trace(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument(
        "usage: trace start|stop|status|dump <file>");
  }
  const std::string sub = ToLower(args.positional[0]);
  if (sub == "start") {
    if (!MetricsEnabled()) {
      return Status::NotSupported(
          "tracing requires metrics (built with ORPHEUS_METRICS=ON and not "
          "disabled via the ORPHEUS_METRICS environment variable)");
    }
    trace::SetCurrentThreadName("main");
    trace::Clear();
    trace::Start();
    return std::string("tracing started (fresh buffers)");
  }
  if (sub == "stop") {
    trace::Stop();
    return StrFormat("tracing stopped (%zu event(s) buffered)",
                     trace::NumBufferedEvents());
  }
  if (sub == "status") {
    return StrFormat("tracing %s, %zu event(s) buffered, ring capacity %zu",
                     trace::IsActive() ? "active" : "inactive",
                     trace::NumBufferedEvents(), trace::RingCapacity());
  }
  if (sub == "dump") {
    if (args.positional.size() < 2) {
      return Status::InvalidArgument("usage: trace dump <file>");
    }
    const std::string& path = args.positional[1];
    ORPHEUS_RETURN_NOT_OK(
        WriteFileAtomic(path, trace::ToChromeJson(), /*sync=*/false));
    return StrFormat("trace written to %s (%zu event(s)); load it in "
                     "chrome://tracing or https://ui.perfetto.dev",
                     path.c_str(), trace::NumBufferedEvents());
  }
  return Status::InvalidArgument(
      StrFormat("unknown trace subcommand '%s' (want start|stop|status|dump)",
                sub.c_str()));
}

Result<std::string> CommandProcessor::Profile(const std::string& command) {
  if (command.empty()) {
    return Status::InvalidArgument("usage: profile <command...>");
  }
  if (!MetricsEnabled()) {
    return Status::NotSupported(
        "profiling requires metrics (built with ORPHEUS_METRICS=ON and not "
        "disabled via the ORPHEUS_METRICS environment variable)");
  }
  // Fresh recording covering exactly the wrapped command; any recording in
  // progress is restarted afterwards with its buffers cleared.
  const bool was_active = trace::IsActive();
  trace::SetCurrentThreadName("main");
  trace::Clear();
  trace::Start();
  auto result = Execute(command);
  if (!was_active) trace::Stop();
  if (!result.ok()) return result.status();
  std::string out = *result;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += StrFormat("--- profile: %s ---\n", command.c_str());
  out += trace::ProfileReport();
  return out;
}

void CommandProcessor::WireCommitObserver(Cvd* cvd) {
  const std::string name = cvd->name();
  cvd->set_commit_observer([this, name](const core::CvdCommitRecord& record) {
    if (repo_ == nullptr) return Status::OK();
    return repo_->LogCommit(name, record);
  });
}

std::vector<const Cvd*> CommandProcessor::CvdPointers() const {
  std::vector<const Cvd*> out;
  out.reserve(cvds_.size());
  for (const auto& [name, cvd] : cvds_) {
    (void)name;
    out.push_back(cvd.get());
  }
  return out;
}

Result<std::string> CommandProcessor::OpenRepository(const Args& args) {
  if (args.positional.empty()) {
    return Status::InvalidArgument("usage: open <dir>");
  }
  if (repo_ != nullptr) {
    return Status::InvalidArgument(StrFormat(
        "a repository is already open at %s (close it first)",
        repo_->dir().c_str()));
  }
  ORPHEUS_RETURN_NOT_OK(RefuseWhileSessionsOpen("opening a repository"));
  auto repo = storage::Repository::Open(args.positional[0]);
  if (!repo.ok()) return repo.status();
  auto recovered = (*repo)->TakeCvds();
  for (const auto& cvd : recovered) {
    if (cvds_.count(cvd->name()) != 0) {
      return Status::AlreadyExists(StrFormat(
          "repository CVD %s collides with a CVD already in this session",
          cvd->name().c_str()));
    }
  }
  repo_ = repo.MoveValueOrDie();
  // CVDs created in the session before `open` become durable now: their
  // creation is logged as if they were initialized under the repository.
  for (const auto& [name, cvd] : cvds_) {
    (void)name;
    Status logged = repo_->LogCreate(*cvd);
    if (!logged.ok()) {
      repo_.reset();
      return logged;
    }
  }
  size_t num_recovered = recovered.size();
  for (auto& cvd : recovered) {
    std::string name = cvd->name();
    cvds_[std::move(name)] = std::move(cvd);
  }
  for (const auto& [name, cvd] : cvds_) {
    (void)name;
    WireCommitObserver(cvd.get());
  }
  const auto& stats = repo_->stats();
  return StrFormat(
      "opened repository %s (checkpoint %llu, %zu CVD(s) recovered, %llu WAL "
      "record(s) replayed%s, %s)",
      repo_->dir().c_str(), static_cast<unsigned long long>(stats.seq),
      num_recovered, static_cast<unsigned long long>(stats.wal_records),
      stats.recovered_torn_tail ? ", torn tail truncated" : "",
      repo_->degraded() ? "DEGRADED" : "healthy");
}

Result<std::string> CommandProcessor::CheckpointRepository() {
  if (repo_ == nullptr) {
    return Status::InvalidArgument("no repository open (use: open <dir>)");
  }
  // A checkpoint folds the passed-in CVDs into the new snapshot;
  // session-managed ones live inside their managers, so checkpointing
  // without them would silently drop their history.
  ORPHEUS_RETURN_NOT_OK(RefuseWhileSessionsOpen("checkpointing"));
  ORPHEUS_RETURN_NOT_OK(repo_->Checkpoint(CvdPointers()));
  return StrFormat("checkpoint %llu written to %s",
                   static_cast<unsigned long long>(repo_->stats().seq),
                   repo_->dir().c_str());
}

Result<std::string> CommandProcessor::CloseRepository() {
  if (repo_ == nullptr) {
    return Status::InvalidArgument("no repository open (use: open <dir>)");
  }
  ORPHEUS_RETURN_NOT_OK(RefuseWhileSessionsOpen("closing the repository"));
  ORPHEUS_RETURN_NOT_OK(repo_->Close(CvdPointers()));
  std::string dir = repo_->dir();
  size_t released = cvds_.size();
  // The repository now holds the authoritative state; release the CVDs so
  // the session cannot diverge from disk unlogged.
  cvds_.clear();
  repo_.reset();
  return StrFormat("closed repository %s (%zu CVD(s) released)", dir.c_str(),
                   released);
}

}  // namespace orpheus::cli
