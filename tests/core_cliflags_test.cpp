// The CLI's usage text is generated from the flag table in cli.cpp, and
// this suite closes the loop the old hand-maintained usage blob could
// not: every command/flag pair the table documents is actually invoked
// once and must not be rejected as unknown, and undeclared flags must be
// usage errors (exit 2) on every command.
#include "src/core/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
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

CliRun cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Shared fixture: a tiny program file and a trace recorded from it, in
/// a per-process scratch directory (ctest runs suites concurrently).
class CliFlags : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::path(::testing::TempDir()) /
         ("cli_flags." + std::to_string(::getpid())))
            .string());
    std::filesystem::create_directories(*dir_);
    program_ = new std::string(*dir_ + "/flags.ops");
    std::ofstream ops(*program_);
    ops << "(make machine ^state s1)\n"
           "(p step1 (machine ^state s1) --> (modify 1 ^state s2))\n"
           "(p step2 (machine ^state s2) --> (halt))\n";
    ops.close();
    trace_ = new std::string(*dir_ + "/flags.trace");
    const CliRun r = cli({"trace", *program_, "-o", *trace_});
    ASSERT_EQ(r.code, 0) << r.err;
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete program_;
    delete trace_;
    dir_ = program_ = trace_ = nullptr;
  }

  /// The operand a command needs, plus flags that keep it fast.
  static std::vector<std::string> base_invocation(const CliCommand& cmd) {
    std::vector<std::string> args{cmd.name};
    if (cmd.operand.find(".ops") != std::string::npos) {
      args.push_back(*program_);
    } else if (cmd.operand.find(".trace") != std::string::npos) {
      args.push_back(*trace_);
    }
    if (cmd.name == "selfcheck") {
      args.insert(args.end(), {"--rounds", "2"});
    }
    if (cmd.name == "slice") {
      // The fixture trace has 2 cycles; the default --cycles 4 would be
      // out of range, which is a runtime error rather than a flag issue.
      args.insert(args.end(), {"--cycles", "1"});
    }
    return args;
  }

  /// Output-path samples must not collide across parallel test runs, so
  /// path-valued flags get per-fixture scratch paths instead of their
  /// table samples.
  static std::string sample_for(const CliCommand& cmd, const CliFlag& flag) {
    if (flag.name == "-o") {
      return cmd.name == "sections" ? *dir_ : *dir_ + "/o_" + cmd.name;
    }
    if (flag.name == "--trace-out") return *dir_ + "/" + cmd.name + ".t.json";
    if (flag.name == "--metrics-out") return *dir_ + "/" + cmd.name + ".m.csv";
    return flag.sample;
  }

  /// Flags `flag` is only valid beside.
  static std::vector<std::string> companions(const CliFlag& flag) {
    if (flag.name == "--profile" || flag.name == "--match-assign" ||
        flag.name == "--match-batch" || flag.name == "--match-mailbox") {
      // These configure the parallel engine, so each is a usage error
      // without --match-threads.
      return {"--match-threads", "2"};
    }
    if (flag.name == "--replay") {
      // A schedule ID only means something relative to one scenario.
      return {"--scenario", "fused-add-delete"};
    }
    // Geometry flags are usage errors on a non-matching topology.
    if (flag.name == "--net-dims") return {"--net", "mesh"};
    if (flag.name == "--net-arity" || flag.name == "--net-levels") {
      return {"--net", "fattree"};
    }
    return {};
  }

  static std::string* dir_;
  static std::string* program_;
  static std::string* trace_;
};

std::string* CliFlags::dir_ = nullptr;
std::string* CliFlags::program_ = nullptr;
std::string* CliFlags::trace_ = nullptr;

TEST_F(CliFlags, EveryDocumentedFlagIsAccepted) {
  for (const CliCommand& cmd : cli_commands()) {
    for (const CliFlag& flag : cmd.flags) {
      std::vector<std::string> args = base_invocation(cmd);
      args.push_back(flag.name);
      if (!flag.value_name.empty()) {
        ASSERT_FALSE(flag.sample.empty())
            << cmd.name << " " << flag.name << ": value flag needs a sample";
        args.push_back(sample_for(cmd, flag));
      }
      const std::vector<std::string> extra = companions(flag);
      args.insert(args.end(), extra.begin(), extra.end());
      const CliRun r = cli(args);
      EXPECT_EQ(r.err.find("unknown flag"), std::string::npos)
          << cmd.name << " rejected documented flag " << flag.name << ": "
          << r.err;
      EXPECT_EQ(r.code, 0) << cmd.name << " " << flag.name << " failed: "
                           << r.err;
    }
  }
}

/// An integer flag is one whose table sample is an integer or an
/// integer list ("2,4", "6x6").
bool takes_integers(const CliFlag& flag) {
  return !flag.sample.empty() &&
         std::isdigit(static_cast<unsigned char>(flag.sample[0])) != 0 &&
         flag.sample.find_first_not_of("0123456789,x") == std::string::npos;
}

TEST_F(CliFlags, MalformedIntegerIsUsageErrorOnEveryIntegerFlag) {
  // No integer flag falls back to its default on garbage: each bad value
  // is a usage error (exit 2) that names the flag.
  std::size_t checked = 0;
  for (const CliCommand& cmd : cli_commands()) {
    for (const CliFlag& flag : cmd.flags) {
      if (!takes_integers(flag)) continue;
      ++checked;
      for (const char* bad : {"abc", "12x"}) {
        std::vector<std::string> args = base_invocation(cmd);
        const auto given = std::find(args.begin(), args.end(), flag.name);
        if (given != args.end()) {
          *(given + 1) = bad;  // a flag the base invocation already sets
        } else {
          args.insert(args.end(), {flag.name, bad});
        }
        const std::vector<std::string> extra = companions(flag);
        args.insert(args.end(), extra.begin(), extra.end());
        const CliRun r = cli(args);
        EXPECT_EQ(r.code, 2) << cmd.name << " " << flag.name << " " << bad
                             << ": " << r.err;
        EXPECT_NE(r.err.find("usage error: " + flag.name), std::string::npos)
            << cmd.name << " " << flag.name << " " << bad << ": " << r.err;
      }
    }
  }
  EXPECT_GE(checked, 30u);
}

TEST_F(CliFlags, OutOfRangeIntegerIsUsageError) {
  const struct {
    std::vector<std::string> args;
    const char* flag;
  } cases[] = {
      {{"sweep", *trace_, "--runs", "1,x"}, "--runs"},
      {{"sweep", *trace_, "--runs", "9"}, "--runs"},
      {{"simulate", *trace_, "--run", "5"}, "--run"},
      {{"run", *program_, "--watch", "3"}, "--watch"},
      {{"run", *program_, "--seed", "-1"}, "--seed"},
      {{"run", *program_, "--match-threads", "-2"}, "--match-threads"},
      {{"serve", *program_, "--sessions", "99999999999"}, "--sessions"},
      {{"slice", *trace_, "--from", "-1"}, "--from"},
      {{"trace", *program_, "--buckets", "0"}, "--buckets"},
      {{"check", "--seed", ""}, "--seed"},
  };
  for (const auto& c : cases) {
    const CliRun r = cli(c.args);
    EXPECT_EQ(r.code, 2) << c.flag << ": " << r.err;
    EXPECT_NE(r.err.find(std::string("usage error: ") + c.flag),
              std::string::npos)
        << r.err;
  }
}

TEST_F(CliFlags, UnknownEnumValueIsUsageError) {
  // No enum flag falls back to its default on an unknown value: each is
  // a usage error (exit 2) naming the flag and the values it takes.
  const struct {
    std::vector<std::string> args;
    const char* flag;
  } cases[] = {
      {{"run", *program_, "--strategy", "bogus"}, "--strategy"},
      {{"run", *program_, "--match-threads", "2", "--match-assign", "bogus"},
       "--match-assign"},
      {{"simulate", *trace_, "--mapping", "bogus"}, "--mapping"},
      {{"simulate", *trace_, "--termination", "bogus"}, "--termination"},
      {{"simulate", *trace_, "--assign", "bogus"}, "--assign"},
      {{"sweep", *trace_, "--assign", "bogus"}, "--assign"},
      {{"sweep", *trace_, "--mapping", "bogus"}, "--mapping"},
  };
  for (const auto& c : cases) {
    const CliRun r = cli(c.args);
    EXPECT_EQ(r.code, 2) << c.args[0] << " " << c.flag << ": " << r.err;
    EXPECT_NE(r.err.find(std::string("usage error: ") + c.flag),
              std::string::npos)
        << c.args[0] << ": " << r.err;
    EXPECT_NE(r.err.find("is not one of"), std::string::npos) << r.err;
  }
}

TEST_F(CliFlags, EveryDocumentedFlagAppearsInUsage) {
  const std::string usage = cli_usage();
  for (const CliCommand& cmd : cli_commands()) {
    EXPECT_NE(usage.find("  " + cmd.name), std::string::npos) << cmd.name;
    for (const CliFlag& flag : cmd.flags) {
      EXPECT_NE(usage.find(flag.name), std::string::npos)
          << cmd.name << " " << flag.name;
    }
  }
}

// Every line of the command list is indented, including the second and
// later lines of a flag's help.
TEST_F(CliFlags, UsageCommandLinesAreAllIndented) {
  const std::string usage = cli_usage();
  const std::size_t begin = usage.find("commands:\n");
  ASSERT_NE(begin, std::string::npos);
  std::istringstream lines(usage.substr(begin + 10));
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("`--trace-out`")) break;  // the trailer
    EXPECT_TRUE(line.empty() || line.starts_with("  ")) << "'" << line << "'";
  }
}

TEST_F(CliFlags, UnknownFlagIsUsageErrorOnEveryCommand) {
  for (const CliCommand& cmd : cli_commands()) {
    std::vector<std::string> args = base_invocation(cmd);
    args.push_back("--no-such-flag");
    const CliRun r = cli(args);
    EXPECT_EQ(r.code, 2) << cmd.name << ": " << r.err;
    EXPECT_NE(r.err.find("unknown flag"), std::string::npos)
        << cmd.name << ": " << r.err;
  }
}

TEST_F(CliFlags, MissingFlagValueIsUsageError) {
  const CliRun r = cli({"simulate", *trace_, "--procs"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--procs"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("needs a value"), std::string::npos) << r.err;
}

TEST_F(CliFlags, StrayPositionalIsUsageError) {
  const CliRun extra = cli({"simulate", *trace_, "another.trace"});
  EXPECT_EQ(extra.code, 2);
  EXPECT_NE(extra.err.find("unexpected argument"), std::string::npos)
      << extra.err;
  const CliRun operandless = cli({"selfcheck", "file.trace"});
  EXPECT_EQ(operandless.code, 2);
}

TEST_F(CliFlags, UniformConventionsAcrossSubcommands) {
  // The unification contract: run/stats/simulate/sweep all accept the
  // same --procs comma-list, --jobs, and --trace-out/--metrics-out pair.
  for (const char* name : {"run", "stats", "simulate", "sweep"}) {
    const auto cmds = cli_commands();
    const auto it = std::find_if(
        cmds.begin(), cmds.end(),
        [&](const CliCommand& c) { return c.name == name; });
    ASSERT_NE(it, cmds.end()) << name;
    for (const char* flag :
         {"--procs", "--jobs", "--trace-out", "--metrics-out"}) {
      const bool found = std::any_of(
          it->flags.begin(), it->flags.end(),
          [&](const CliFlag& f) { return f.name == flag; });
      EXPECT_TRUE(found) << name << " is missing " << flag;
    }
  }
}

TEST_F(CliFlags, StatsAcceptsProcsListAndJobs) {
  const CliRun r = cli({"stats", *trace_, "--procs", "2,4", "--jobs", "2",
                        "--top", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("simulated run summary (2 match processors)"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("simulated run summary (4 match processors)"),
            std::string::npos)
      << r.out;
}

TEST_F(CliFlags, RunMatchThreadsPrintsMeasuredSkew) {
  const CliRun r = cli({"run", *program_, "--match-threads", "2", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("parallel match: 2 workers"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("measured busy skew:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("outcome: halted"), std::string::npos) << r.out;
}

TEST_F(CliFlags, RunMatchThreadsWithSimulatedReplay) {
  // Measured skew (live parallel engine) and simulated skew (trace
  // replay) side by side in one invocation.
  const CliRun r = cli({"run", *program_, "--quiet", "--match-threads", "2",
                        "--match-assign", "random", "--seed", "3",
                        "--procs", "2,4", "--jobs", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("measured busy skew:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("simulated 2 match processors"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("simulated 4 match processors"), std::string::npos)
      << r.out;
}

TEST_F(CliFlags, RunMatchBatchFusesPhases) {
  const CliRun r = cli({"run", *program_, "--quiet", "--match-threads", "2",
                        "--match-batch", "8", "--match-mailbox", "64"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("parallel match: 2 workers"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("BSP phases covering"), std::string::npos) << r.out;
}

TEST_F(CliFlags, MatchBatchRequiresMatchThreads) {
  // Every flag that configures the parallel match engine is a usage
  // error without --match-threads, never silently ignored.
  const std::vector<std::vector<std::string>> cases = {
      {"--match-assign", "random"},
      {"--match-batch", "4"},
      {"--match-mailbox", "4"},
      {"--profile"},
  };
  for (const std::vector<std::string>& flag : cases) {
    std::vector<std::string> args = {"run", *program_};
    args.insert(args.end(), flag.begin(), flag.end());
    const CliRun r = cli(args);
    EXPECT_EQ(r.code, 2) << flag[0] << ": " << r.err;
    EXPECT_NE(r.err.find(flag[0] + " requires --match-threads"),
              std::string::npos)
        << flag[0] << ": " << r.err;
  }
}

TEST_F(CliFlags, MatchBatchRejectsNonPositiveValues) {
  // Zero used to be silently coerced downstream (the Mailbox(0) bug);
  // now every invalid size is a usage error at the CLI boundary.
  for (const char* flag : {"--match-batch", "--match-mailbox"}) {
    for (const char* bad : {"0", "-3", "abc", "4x"}) {
      const CliRun r =
          cli({"run", *program_, "--match-threads", "2", flag, bad});
      EXPECT_EQ(r.code, 2) << flag << "=" << bad << ": " << r.err;
      EXPECT_NE(r.err.find("not a positive integer"), std::string::npos)
          << flag << "=" << bad << ": " << r.err;
    }
  }
}

TEST_F(CliFlags, SweepAcceptsTraceOut) {
  const std::string timeline = *dir_ + "/sweep_timeline.json";
  const CliRun r = cli({"sweep", *trace_, "--procs", "2", "--runs", "1",
                        "--trace-out", timeline});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(timeline);
  EXPECT_TRUE(f.good()) << timeline;
}

}  // namespace
}  // namespace mpps::core
