#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "cli/command_processor.h"
#include "core/access_control.h"
#include "core/cvd.h"
#include "common/string_util.h"
#include "minidb/csv.h"
#include "net/server.h"

namespace orpheus::cli {
namespace {

using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "orpheus_cli_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
  }
  return tmpl;
}

class CliTest : public ::testing::Test {
 protected:
  std::string Ok(const std::string& line) {
    auto r = processor_.Execute(line);
    EXPECT_TRUE(r.ok()) << "'" << line << "': " << r.status().ToString();
    return r.ok() ? *r : "";
  }
  Status Err(const std::string& line) {
    auto r = processor_.Execute(line);
    EXPECT_FALSE(r.ok()) << "'" << line << "' unexpectedly succeeded";
    return r.status();
  }

  void SeedStagingTable(const std::string& name) {
    Table t(name, Schema({{"city", ValueType::kString},
                          {"pop", ValueType::kInt64}}));
    ASSERT_TRUE(t.InsertRow({Value("springfield"), Value(int64_t{30000})})
                    .ok());
    ASSERT_TRUE(t.InsertRow({Value("shelbyville"), Value(int64_t{20000})})
                    .ok());
    ASSERT_TRUE(processor_.staging()->AdoptTable(std::move(t)).ok());
  }

  CommandProcessor processor_;
};

TEST_F(CliTest, UserLifecycle) {
  EXPECT_EQ(Ok("whoami"), "<anonymous>");
  Ok("create_user alice");
  EXPECT_TRUE(Err("create_user alice").IsAlreadyExists());
  EXPECT_TRUE(Err("config bob").IsNotFound());
  Ok("config alice");
  EXPECT_EQ(Ok("whoami"), "alice");
}

TEST_F(CliTest, InitFromStagingTable) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  EXPECT_NE(processor_.cvd("Cities"), nullptr);
  EXPECT_TRUE(Err("init Cities -t cities").IsAlreadyExists());
  EXPECT_TRUE(Err("init Other -t missing").IsNotFound());
  EXPECT_NE(Ok("ls").find("Cities"), std::string::npos);
}

TEST_F(CliTest, CheckoutCommitCycle) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("checkout Cities -v 1 -t work");
  Table* work = processor_.staging()->GetTable("work");
  ASSERT_NE(work, nullptr);
  // Edit and commit.
  auto row = work->GetRow(0);
  row[2] = Value(int64_t{31000});
  work->SetRow(0, row);
  std::string out = Ok("commit -t work -m \"census update\"");
  EXPECT_NE(out.find("version 2"), std::string::npos);
  // Staging table gone after commit.
  EXPECT_EQ(processor_.staging()->GetTable("work"), nullptr);
  // Metadata recorded.
  std::string log = Ok("log Cities");
  EXPECT_NE(log.find("census update"), std::string::npos);
}

TEST_F(CliTest, CommitRequiresCheckoutProvenance) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities");
  SeedStagingTable("rogue");
  EXPECT_TRUE(Err("commit -t rogue -m x").IsNotFound());
}

TEST_F(CliTest, AccessControlOnStagingTables) {
  SeedStagingTable("cities");
  Ok("create_user alice");
  Ok("create_user bob");
  Ok("config alice");
  Ok("init Cities -t cities -k city");
  Ok("checkout Cities -v 1 -t alices_work");
  Ok("config bob");
  // Bob cannot commit Alice's materialized table (Sec. 3.3.1).
  auto status = Err("commit -t alices_work -m steal");
  EXPECT_TRUE(status.IsInvalidArgument());
  Ok("config alice");
  Ok("commit -t alices_work -m mine");
}

TEST_F(CliTest, DiffCommand) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("checkout Cities -v 1 -t w");
  Table* w = processor_.staging()->GetTable("w");
  w->AppendRowUnchecked({Value::Null(), Value("ogdenville"),
                         Value(int64_t{5000})});
  Ok("commit -t w -m grow");
  std::string out = Ok("diff Cities -v 2,1");
  EXPECT_NE(out.find("ogdenville"), std::string::npos);
  EXPECT_TRUE(Err("diff Cities -v 1").IsInvalidArgument());
}

TEST_F(CliTest, RunSqlCommand) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  std::string out = Ok(
      "run \"SELECT city FROM VERSION 1 OF CVD Cities WHERE pop > 25000\"");
  EXPECT_NE(out.find("springfield"), std::string::npos);
  EXPECT_EQ(out.find("shelbyville"), std::string::npos);
  EXPECT_TRUE(Err("run \"SELECT * FROM VERSION 1 OF CVD Ghost\"")
                  .IsNotFound());
}

TEST_F(CliTest, CsvWorkflow) {
  // init from csv, checkout to csv, edit the file, commit it back.
  std::string dir = testing::TempDir();
  std::string data_path = dir + "/cli_cities.csv";
  {
    std::ofstream f(data_path);
    f << "city,pop\nspringfield,30000\nshelbyville,20000\n";
  }
  Ok("init Cities -f " + data_path + " -k city");
  std::string work_path = dir + "/cli_work.csv";
  Ok("checkout Cities -v 1 -f " + work_path);
  // The exported file carries the hidden _rid column.
  auto exported = minidb::ReadCsv(work_path, "w");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->schema().column(0).name, "_rid");
  // Append a record (empty rid) and commit with a schema file.
  {
    std::ofstream f(work_path, std::ios::app);
    f << ",ogdenville,5000\n";
  }
  std::string schema_path = dir + "/cli_schema.txt";
  {
    std::ofstream f(schema_path);
    f << "city:string\npop:int64\n";
  }
  std::string out = Ok("commit -f " + work_path + " -s " + schema_path +
                       " -m \"from csv\"");
  EXPECT_NE(out.find("version 2"), std::string::npos);
  // The new version contains three records; unchanged ones kept their rids.
  auto rids = processor_.cvd("Cities")->VersionRecords(2);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 3u);
  auto diff = processor_.cvd("Cities")->VDiff(2, 1);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->size(), 1u);
  std::remove(data_path.c_str());
  std::remove(work_path.c_str());
  std::remove(schema_path.c_str());
}

TEST_F(CliTest, DropAndUnknownCommands) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities");
  Ok("drop Cities");
  EXPECT_TRUE(Err("drop Cities").IsNotFound());
  EXPECT_TRUE(Err("frobnicate").IsInvalidArgument());
  EXPECT_EQ(Ok(""), "");
}

TEST_F(CliTest, OptimizeCommand) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  for (int i = 0; i < 5; ++i) {
    Ok(orpheus::StrFormat("checkout Cities -v %d -t w%d", i + 1, i));
    Table* w = processor_.staging()->GetTable(orpheus::StrFormat("w%d", i));
    w->AppendRowUnchecked({Value::Null(), Value(orpheus::StrFormat("town%d", i)),
                           Value(static_cast<int64_t>(100 + i))});
    Ok(orpheus::StrFormat("commit -t w%d -m grow%d", i, i));
  }
  std::string out = Ok("optimize Cities -g 2");
  EXPECT_NE(out.find("LyreSplit plan"), std::string::npos);
  EXPECT_TRUE(Err("optimize Cities -g 0.5").IsInvalidArgument());
}

TEST_F(CliTest, InitFromMissingCsvNamesThePath) {
  Status s = Err("init Cities -f /no/such/dir/cities.csv");
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(s.message().find("/no/such/dir/cities.csv"), std::string::npos)
      << s.ToString();
  // A missing schema file is reported with its own path, not the CSV's.
  Status schema = Err("init Towns -f /no/such/t.csv -s /no/such/schema.txt");
  EXPECT_TRUE(schema.IsNotFound()) << schema.ToString();
  EXPECT_NE(schema.message().find("/no/such/schema.txt"), std::string::npos)
      << schema.ToString();
}

TEST_F(CliTest, CommitFromMissingCsvNamesThePath) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  const std::string path = ::testing::TempDir() + "cli_commit_missing.csv";
  Ok("checkout Cities -v 1 -f " + path);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  // The checkout provenance still knows the file; the failure must come
  // from the CSV read and name the vanished path.
  Status s = Err("commit -f " + path + " -m x");
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
}

// Replace row `row`'s pop in staging table `name` (columns _rid, city, pop).
void SetPop(CommandProcessor* processor, const std::string& name, uint32_t row,
            int64_t pop) {
  Table* t = processor->staging()->GetTable(name);
  ASSERT_NE(t, nullptr) << name;
  auto values = t->GetRow(row);
  values[2] = Value(pop);
  t->SetRow(row, values);
}

// One session script: three sessions branch from v1; the first commit
// lands, the second reconciles with it, the third conflicts. Returns the
// transcript of every command's output.
std::string RunSessionScript(CommandProcessor* processor) {
  std::string transcript;
  auto run = [&](const std::string& line) {
    auto r = processor->Execute(line);
    EXPECT_TRUE(r.ok()) << "'" << line << "': " << r.status().ToString();
    transcript += "> " + line + "\n" + (r.ok() ? *r : "") + "\n";
  };
  run("session ls");
  for (int i = 1; i <= 3; ++i) {
    run("session open Cities");
    run(StrFormat("session checkout %d -v 1 -t w%d", i, i));
  }
  SetPop(processor, "w1", 0, 31000);  // springfield
  SetPop(processor, "w2", 1, 21000);  // shelbyville: disjoint edit
  SetPop(processor, "w3", 0, 222);    // springfield again: a conflict
  run("session commit 1 -t w1 -m grow1");
  run("session commit 2 -t w2 -m grow2");
  run("session commit 3 -t w3 -m clash");
  run("session refresh 1");
  run("session ls");
  for (int i = 1; i <= 3; ++i) run(StrFormat("session close %d", i));
  run("session ls");
  return transcript;
}

TEST_F(CliTest, SessionScriptIsTransportIndependent) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  const std::string local = RunSessionScript(&processor_);
  EXPECT_NE(local.find("reconciled with concurrent version 2 into merge "
                       "version 4"),
            std::string::npos)
      << local;
  EXPECT_NE(local.find("CONFLICT with concurrent version 4"),
            std::string::npos)
      << local;
  EXPECT_NE(local.find("key=springfield attribute=pop base=30000 ours=222 "
                       "theirs=31000"),
            std::string::npos)
      << local;

  // The same script against an orpheusd server holding the same CVD.
  core::Cvd::Options options;
  options.primary_key = {"city"};
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(core::Cvd::Init("Cities",
                                 *processor_.staging()->GetTable("cities"),
                                 options)
                     .MoveValueOrDie());
  net::ServerOptions server_options;
  server_options.listen = "unix:" + MakeTempDir() + "/orpheusd.sock";
  auto server =
      net::SessionServer::Start(nullptr, std::move(cvds), server_options)
          .MoveValueOrDie();
  CommandProcessor client;
  auto connected = client.Execute("session connect " + server->address());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  EXPECT_EQ(RunSessionScript(&client), local);

  // The lease belongs to the remote transport only.
  EXPECT_NE(Ok("session open Cities").find("opened session 4"),
            std::string::npos);
  EXPECT_NE(Ok("session heartbeat 4").find("in-process sessions have no lease"),
            std::string::npos);
  auto opened = client.Execute("session open Cities");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto lease = client.Execute("session heartbeat 4");
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_NE(lease->find("lease renewed"), std::string::npos) << *lease;
  EXPECT_TRUE(
      client.Execute("session disconnect").status().IsInvalidArgument());
  ASSERT_TRUE(client.Execute("session close 4").ok());
  ASSERT_TRUE(client.Execute("session disconnect").ok());
}

TEST_F(CliTest, InProcessSessionsHoldTheCvdUntilTheLastCloses) {
  const std::string dir = MakeTempDir();
  Ok("open " + dir);
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("session open Cities");
  Ok("session open Cities");
  EXPECT_NE(Ok("ls").find("session-managed"), std::string::npos);

  // While sessions are open the single-user commands stand aside.
  Status plain = Err("checkout Cities -v 1 -t w");
  EXPECT_TRUE(plain.IsInvalidArgument()) << plain.ToString();
  EXPECT_NE(plain.message().find("open for concurrent use"), std::string::npos)
      << plain.ToString();
  EXPECT_TRUE(Err("drop Cities").IsInvalidArgument());
  for (const char* cmd : {"checkpoint", "close"}) {
    Status s = Err(cmd);
    EXPECT_TRUE(s.IsInvalidArgument()) << cmd << ": " << s.ToString();
    EXPECT_NE(s.message().find("close them"), std::string::npos)
        << s.ToString();
  }
  EXPECT_TRUE(Err("session connect unix:/nonexistent").IsInvalidArgument());

  Ok("session checkout 1 -v 1 -t w1");
  SetPop(&processor_, "w1", 0, 31000);
  EXPECT_NE(Ok("session commit 1 -t w1 -m grow").find("as version 2"),
            std::string::npos);
  Ok("session close 1");
  EXPECT_TRUE(Err("checkout Cities -v 2 -t w").IsInvalidArgument());
  Ok("session close 2");

  // The last close hands the CVD back, its history intact and durable.
  EXPECT_TRUE(Err("session checkout 1 -v 1 -t w").IsNotFound());
  EXPECT_NE(Ok("diff Cities -v 2,1").find("31000"), std::string::npos);
  Ok("checkout Cities -v 2 -t w");
  Ok("commit -t w -m again");
  Ok("close");
  Ok("open " + dir);
  EXPECT_EQ(processor_.cvd("Cities")->num_versions(), 3);
  EXPECT_EQ(processor_.exit_code(), 0);
}

TEST_F(CliTest, SessionGuards) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  EXPECT_TRUE(Err("session open Ghost").IsNotFound());
  // A pending staged checkout pins the CVD to this processor.
  Ok("checkout Cities -v 1 -t pending");
  Status staged = Err("session open Cities");
  EXPECT_TRUE(staged.IsInvalidArgument()) << staged.ToString();
  EXPECT_NE(staged.message().find("staged checkouts"), std::string::npos);
  Ok("commit -t pending -m flush");
  Ok("session open Cities");
  EXPECT_TRUE(Err("session checkout 9 -v 1 -t w").IsNotFound());
  EXPECT_TRUE(Err("session checkout bogus -v 1 -t w").IsInvalidArgument());
  EXPECT_TRUE(Err("session commit 1 -t nothing -m x").IsNotFound());
  EXPECT_TRUE(Err("session frobnicate 1").IsInvalidArgument());
  Ok("session checkout 1 -v 1 -t w");
  EXPECT_TRUE(Err("session checkout 1 -v 1 -t w").IsAlreadyExists());
  // Closing drops the session's uncommitted checkouts with it.
  Ok("session close 1");
  EXPECT_EQ(processor_.staging()->GetTable("w"), nullptr);
}

TEST_F(CliTest, SessionIdOutOfInt32RangeIsRefused) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("session open Cities");
  // 2^32 + 1 used to wrap to session 1.
  Status s = Err("session refresh 4294967297");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(CliTest, VersionIdOutOfInt32RangeIsRefused) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  // 2^32 + 1 used to wrap to version 1.
  Status s = Err("checkout Cities -v 4294967297 -t t");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(processor_.staging()->GetTable("t"), nullptr);
}

TEST_F(CliTest, OptimizeFactorWithTrailingJunkIsRefused) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  EXPECT_TRUE(Err("optimize Cities -g 3x").IsInvalidArgument());
}

TEST_F(CliTest, OptimizeFactorNanIsRefused) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  EXPECT_TRUE(Err("optimize Cities -g nan").IsInvalidArgument());
}

TEST_F(CliTest, OptimizeFactorInfIsRefused) {
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  EXPECT_TRUE(Err("optimize Cities -g inf").IsInvalidArgument());
  // A huge finite factor saturates the budget instead.
  EXPECT_NE(Ok("optimize Cities -g 1e300").find("LyreSplit plan"),
            std::string::npos);
}

TEST_F(CliTest, FsckSetsCorruptExitCode) {
  const std::string dir = MakeTempDir();
  Ok("open " + dir);
  SeedStagingTable("cities");
  Ok("init Cities -t cities -k city");
  Ok("close");
  EXPECT_NE(Ok("fsck -d " + dir).find("ok"), std::string::npos);
  EXPECT_EQ(processor_.exit_code(), 0);

  // Flip the active snapshot's format version byte (3 -> 2): the reader
  // refuses any version but 3, and fsck reports it as corruption.
  std::ifstream current(dir + "/CURRENT");
  std::string snapshot_name;
  ASSERT_TRUE(std::getline(current, snapshot_name));
  const std::string snapshot = dir + "/" + snapshot_name;
  std::fstream f(snapshot,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(8);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 1);
  f.seekp(8);
  f.write(&byte, 1);
  f.close();

  Status s = Err("fsck -d " + dir);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_EQ(processor_.exit_code(), CommandProcessor::kExitCorrupt);
  // The corrupt code is sticky and outranks plain errors.
  processor_.NoteError();
  EXPECT_EQ(processor_.exit_code(), CommandProcessor::kExitCorrupt);
}

TEST(AccessControllerTest, Basics) {
  core::AccessController ac;
  EXPECT_TRUE(ac.CreateUser("a").ok());
  EXPECT_TRUE(ac.CreateUser("").IsInvalidArgument());
  EXPECT_TRUE(ac.Login("a").ok());
  ac.GrantTable("t");
  EXPECT_TRUE(ac.CheckTableAccess("t").ok());
  EXPECT_TRUE(ac.CreateUser("b").ok());
  EXPECT_TRUE(ac.Login("b").ok());
  EXPECT_FALSE(ac.CheckTableAccess("t").ok());
  EXPECT_TRUE(ac.CheckTableAccess("untracked").ok());
  ac.RevokeTable("t");
  EXPECT_TRUE(ac.CheckTableAccess("t").ok());
  EXPECT_EQ(ac.Users().size(), 2u);
}

}  // namespace
}  // namespace orpheus::cli
