#include "src/core/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace mpps::core {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun cli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

class TempFile {
 public:
  TempFile(const std::string& name, const std::string& contents)
      : path_(std::string(::testing::TempDir()) + name) {
    std::ofstream f(path_);
    f << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A per-process scratch directory under gtest's TempDir.  ctest runs each
/// test case as its own process, all sharing TempDir() — tests that write
/// fixed filenames (`sections` emits rubik/tourney/weaver.trace) race with
/// each other under `ctest -j`, so every such test gets its own subdir.
std::string unique_temp_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (tag + "." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

constexpr const char* kProgram = R"(
  (make machine ^state s1)
  (p step1 (machine ^state s1) --> (modify 1 ^state s2))
  (p step2 (machine ^state s2) --> (halt)))";

TEST(Cli, NoArgsPrintsUsage) {
  const CliRun r = cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const CliRun r = cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("simulate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, RunExecutesProgram) {
  TempFile prog("cli_run.ops", kProgram);
  const CliRun r = cli({"run", prog.path()});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("outcome: halted"), std::string::npos);
  EXPECT_NE(r.out.find("firings: 2"), std::string::npos);
  EXPECT_NE(r.out.find("step1"), std::string::npos);
}

TEST(Cli, RunWatchTracesWmeChanges) {
  TempFile prog("cli_watch.ops", kProgram);
  const CliRun r = cli({"run", prog.path(), "--watch", "2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("=>WM: 1: (machine ^state s1)"), std::string::npos);
  EXPECT_NE(r.out.find("1. step1"), std::string::npos);
}

TEST(Cli, RunQuietSuppressesFirings) {
  TempFile prog("cli_quiet.ops", kProgram);
  const CliRun r = cli({"run", prog.path(), "--quiet"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out.find("step1"), std::string::npos);
}

TEST(Cli, RunMissingFileFails) {
  const CliRun r = cli({"run", "/nonexistent/file.ops"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, RunParseErrorReported) {
  TempFile prog("cli_bad.ops", "(p broken");
  const CliRun r = cli({"run", prog.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, TraceToStdout) {
  TempFile prog("cli_trace.ops", kProgram);
  const CliRun r = cli({"trace", prog.path()});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("# mpps-trace v1"), std::string::npos);
}

TEST(Cli, TraceStatsSimulatePipeline) {
  TempFile prog("cli_pipe.ops", kProgram);
  const std::string trace_path =
      std::string(::testing::TempDir()) + "cli_pipe.trace";
  const CliRun t = cli({"trace", prog.path(), "-o", trace_path});
  EXPECT_EQ(t.code, 0);
  EXPECT_NE(t.out.find("wrote"), std::string::npos);

  const CliRun s = cli({"stats", trace_path});
  EXPECT_EQ(s.code, 0);
  EXPECT_NE(s.out.find("total"), std::string::npos);

  const CliRun m = cli({"simulate", trace_path, "--procs", "4", "--run", "2"});
  EXPECT_EQ(m.code, 0);
  EXPECT_NE(m.out.find("speedup"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(Cli, SimulateGreedyAndPairs) {
  TempFile prog("cli_pairs.ops", kProgram);
  const std::string trace_path =
      std::string(::testing::TempDir()) + "cli_pairs.trace";
  cli({"trace", prog.path(), "-o", trace_path});
  const CliRun greedy =
      cli({"simulate", trace_path, "--procs", "4", "--assign", "greedy"});
  EXPECT_EQ(greedy.code, 0);
  const CliRun pairs = cli({"simulate", trace_path, "--procs", "4",
                            "--mapping", "pairs", "--termination", "poll"});
  EXPECT_EQ(pairs.code, 0);
  // An odd processor count under the pair mapping is a SimConfig usage
  // error, in simulate and in sweep alike.
  for (const char* command : {"simulate", "sweep"}) {
    const CliRun odd_pairs =
        cli({command, trace_path, "--procs", "3", "--mapping", "pairs"});
    EXPECT_EQ(odd_pairs.code, 2) << command;
    EXPECT_NE(odd_pairs.err.find("usage error: SimConfig: match_processors"),
              std::string::npos)
        << command << ": " << odd_pairs.err;
  }
  std::remove(trace_path.c_str());
}

TEST(Cli, SectionsWritesThreeTraces) {
  const std::string dir = unique_temp_dir("cli_sections");
  const CliRun r = cli({"sections", "-o", dir});
  EXPECT_EQ(r.code, 0);
  for (const char* name : {"rubik", "tourney", "weaver"}) {
    const std::string path = dir + "/" + name + ".trace";
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
  }
  std::filesystem::remove_all(dir);
}

TEST(Cli, SliceExtractsCycles) {
  const std::string dir = unique_temp_dir("cli_slice");
  cli({"sections", "-o", dir});
  const std::string src = dir + "/weaver.trace";
  const std::string dst = dir + "/weaver_slice.trace";
  const CliRun r =
      cli({"slice", src, "--from", "1", "--cycles", "2", "-o", dst});
  EXPECT_EQ(r.code, 0);
  const CliRun s = cli({"stats", dst});
  EXPECT_EQ(s.code, 0);
  const CliRun bad = cli({"slice", src, "--from", "9", "--cycles", "2"});
  EXPECT_EQ(bad.code, 1);
  std::filesystem::remove_all(dir);
}

TEST(Cli, StatsOnMalformedTraceFails) {
  TempFile bad("cli_bad.trace", "not a trace\n");
  const CliRun r = cli({"stats", bad.path()});
  EXPECT_EQ(r.code, 1);
}

/// Writes the weaver section to a private temp dir and returns its path.
std::string weaver_trace_path(const char* name) {
  const std::string dir = unique_temp_dir(std::string("cli_") + name);
  cli({"sections", "-o", dir});
  for (const char* other : {"rubik.trace", "tourney.trace"}) {
    std::remove((dir + "/" + other).c_str());
  }
  const std::string path = dir + "/" + name + ".weaver.trace";
  std::rename((dir + "/weaver.trace").c_str(), path.c_str());
  return path;
}

TEST(Cli, ExplicitJobsZeroIsUsageError) {
  const std::string path = weaver_trace_path("jobs0");
  const CliRun r = cli({"sweep", path, "--jobs", "0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--jobs"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("usage error"), std::string::npos) << r.err;
  const CliRun garbage = cli({"sweep", path, "--jobs", "many"});
  EXPECT_EQ(garbage.code, 2);
  const CliRun negative = cli({"simulate", path, "--procs", "1,2",
                               "--jobs", "-3"});
  EXPECT_EQ(negative.code, 2);
  // Absent --jobs still auto-detects.
  const CliRun ok = cli({"sweep", path, "--procs", "2", "--runs", "1"});
  EXPECT_EQ(ok.code, 0) << ok.err;
  std::remove(path.c_str());
}

TEST(Cli, MalformedProcsListIsUsageError) {
  const std::string path = weaver_trace_path("procs");
  for (const char* bad : {"2,,8", "0", "-4", "a,b", "2,8x", ""}) {
    const CliRun r = cli({"simulate", path, "--procs", bad});
    EXPECT_EQ(r.code, 2) << "--procs '" << bad << "': " << r.err;
    EXPECT_NE(r.err.find("--procs"), std::string::npos) << r.err;
  }
  const CliRun sweep_bad = cli({"sweep", path, "--procs", "4,nope"});
  EXPECT_EQ(sweep_bad.code, 2);
  std::remove(path.c_str());
}

/// Every "speedup" value of a --json document, each checked to be a JSON
/// number first (`-nan` and `inf` are not).
std::vector<double> json_speedups(const std::string& json) {
  const std::string key = "\"speedup\": ";
  std::vector<double> out;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const std::size_t start = at + key.size();
    const std::string token =
        json.substr(start, json.find_first_of(",\n}", start) - start);
    EXPECT_EQ(token.find_first_not_of("-+.0123456789eE"), std::string::npos)
        << "speedup is not a JSON number: " << token;
    out.push_back(std::strtod(token.c_str(), nullptr));
  }
  return out;
}

TEST(Cli, ZeroCycleTraceHasZeroSpeedup) {
  // A trace without cycles simulates in zero time: its speedup is 0 on
  // the single-run path and on the --procs list path, never -nan.
  const TempFile empty("zero_cycle.trace",
                       "# mpps-trace v1\ntrace empty buckets 4\n");
  const CliRun single = cli({"simulate", empty.path(), "--json"});
  ASSERT_EQ(single.code, 0) << single.err;
  EXPECT_EQ(json_speedups(single.out), std::vector<double>{0.0})
      << single.out;
  const CliRun listed =
      cli({"simulate", empty.path(), "--json", "--procs", "2,4"});
  ASSERT_EQ(listed.code, 0) << listed.err;
  EXPECT_EQ(json_speedups(listed.out), (std::vector<double>{0.0, 0.0}))
      << listed.out;
  const CliRun table = cli({"simulate", empty.path()});
  ASSERT_EQ(table.code, 0) << table.err;
  EXPECT_EQ(table.out.find("nan"), std::string::npos) << table.out;
}

TEST(Cli, SweepChecksInvariants) {
  const std::string path = weaver_trace_path("inv");
  const std::string metrics_path =
      std::string(::testing::TempDir()) + "inv.metrics.csv";
  const CliRun r = cli({"sweep", path, "--procs", "2,4", "--runs", "1,2",
                        "--metrics-out", metrics_path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream csv(metrics_path);
  std::ostringstream contents;
  contents << csv.rdbuf();
  EXPECT_NE(contents.str().find("sim.invariants.checked"), std::string::npos);
  std::remove(path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(Cli, SelfCheckCleanExitsZero) {
  const std::string metrics_path =
      std::string(::testing::TempDir()) + "selfcheck.metrics.csv";
  const CliRun r = cli({"selfcheck", "--rounds", "3", "--seed", "5",
                        "--metrics-out", metrics_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("0 failure(s)"), std::string::npos) << r.out;
  std::ifstream csv(metrics_path);
  std::ostringstream contents;
  contents << csv.rdbuf();
  EXPECT_NE(contents.str().find("selfcheck.rounds"), std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST(Cli, SelfCheckInjectedFaultExitsNonzero) {
  const CliRun r = cli({"selfcheck", "--rounds", "5", "--seed", "1",
                        "--fault", "left-token-undercharge"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("failure"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("minimal repro"), std::string::npos) << r.out;
}

TEST(Cli, SelfCheckBadFlagsAreUsageErrors) {
  const CliRun rounds = cli({"selfcheck", "--rounds", "0"});
  EXPECT_EQ(rounds.code, 2);
  EXPECT_NE(rounds.err.find("--rounds"), std::string::npos);
  const CliRun fault = cli({"selfcheck", "--fault", "bogus"});
  EXPECT_EQ(fault.code, 2);
  EXPECT_NE(fault.err.find("--fault"), std::string::npos);
}

TEST(Cli, CheckExhaustiveCorpusExitsZero) {
  const std::string metrics_path =
      std::string(::testing::TempDir()) + "check.metrics.csv";
  const CliRun r = cli({"check", "--exhaustive", "--metrics-out",
                        metrics_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fused-add-delete"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("explored"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("OK"), std::string::npos) << r.out;
  std::ifstream csv(metrics_path);
  std::ostringstream contents;
  contents << csv.rdbuf();
  EXPECT_NE(contents.str().find("mc.schedules_explored"), std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST(Cli, CheckPlantedFaultExitsNonzeroWithReplayHint) {
  const CliRun r = cli({"check", "--exhaustive", "--fault", "merge-order"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("FAILED"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("FAIL"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("replay: mpps check"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("expected outcome"), std::string::npos) << r.out;
}

TEST(Cli, CheckReplaySingleSchedule) {
  const CliRun r = cli({"check", "--scenario", "fused-add-delete",
                        "--replay", "-"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("replaying schedule - on fused-add-delete"),
            std::string::npos)
      << r.out;
}

TEST(Cli, CheckListEnumeratesCorpus) {
  const CliRun r = cli({"check", "--list"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fused-add-delete"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("two-keys"), std::string::npos) << r.out;
}

TEST(Cli, CheckBadFlagsAreUsageErrors) {
  const CliRun modes = cli({"check", "--exhaustive", "--schedules", "4"});
  EXPECT_EQ(modes.code, 2);
  EXPECT_NE(modes.err.find("--exhaustive"), std::string::npos) << modes.err;
  const CliRun replay = cli({"check", "--replay", "0"});
  EXPECT_EQ(replay.code, 2);
  EXPECT_NE(replay.err.find("--scenario"), std::string::npos) << replay.err;
  const CliRun scenario = cli({"check", "--scenario", "no-such-scenario"});
  EXPECT_EQ(scenario.code, 2);
  const CliRun fault = cli({"check", "--fault", "bogus"});
  EXPECT_EQ(fault.code, 2);
  const CliRun id = cli({"check", "--scenario", "send-send", "--replay",
                         "not.a.number"});
  EXPECT_EQ(id.code, 2);
  EXPECT_NE(id.err.find("malformed"), std::string::npos) << id.err;
}

}  // namespace
}  // namespace mpps::core
