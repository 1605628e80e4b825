// The profiler's engine integration and the zero-overhead guard:
// profiling must never change match results (conflict sets and firings
// byte-identical to an uninstrumented run), the disabled path must stay a
// single pointer test (asserted structurally here, and with a loose A/B
// timing check in pmatch_profile_ab_test.cpp, which runs alone), the
// attribution must explain >= 95% of every worker's wall
// time on the committed bench workloads (the PR's acceptance number,
// checked end to end through `mpps run --profile --json`), a worker
// thread must wait at one barrier per round, and the measured
// Chrome-trace lanes must ride the --trace-out plumbing.
// scripts/ci.sh runs this suite under TSan (it is part of pmatch_tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/cli.hpp"
#include "src/obs/profiler.hpp"
#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/interp.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::FlatConflictSet;
using pmatch_test::flatten;
using pmatch_test::load_program;
using pmatch_test::run_workload;
using pmatch_test::RunOutcome;

// The null-sink contract: profiling rides a plain nullable pointer in the
// options (one pointer test per recording site), not a polymorphic sink.
static_assert(std::is_same_v<decltype(pmatch::ParallelOptions::profiler),
                             obs::Profiler*>);

TEST(ProfilerOptions, ProfilingIsOffByDefault) {
  EXPECT_EQ(pmatch::ParallelOptions{}.profiler, nullptr);
}

class ProfiledWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfiledWorkload, ProfilingDoesNotChangeMatchResults) {
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    obs::Profiler profiler;
    const RunOutcome plain = run_workload(source, threads, nullptr);
    const RunOutcome profiled = run_workload(source, threads, &profiler);
    EXPECT_EQ(plain.result.cycles, profiled.result.cycles);
    EXPECT_EQ(plain.firings, profiled.firings);
    EXPECT_EQ(plain.conflict, profiled.conflict)
        << "profiling changed the conflict set at " << threads << " threads";
    EXPECT_TRUE(profiler.attached());
  }
}

TEST_P(ProfiledWorkload, AttributesAtLeast95PercentOfWorkerWall) {
  // 1 thread runs the worker's steps on the calling thread; 2 and 4 run
  // them on worker threads between barriers.  Both must tile.
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    obs::Profiler profiler;
    run_workload(source, threads, &profiler);
    const obs::ProfileReport report = profiler.report();
    ASSERT_EQ(report.workers.size(), threads);
    EXPECT_GE(report.min_attributed_pct(), 95.0)
        << GetParam() << " at " << threads << " threads";
    EXPECT_GT(report.phases, 0u);
    EXPECT_GE(report.rounds, report.phases);
    for (const obs::ProfileReport::Worker& w : report.workers) {
      EXPECT_GT(w.wall_ns, 0u);
    }
  }
}

TEST_P(ProfiledWorkload, WorkerThreadsWaitOnceAtEachRoundBarrier) {
  // A round is one match step, one barrier and one exchange step, so a
  // worker thread records one barrier_wait span per round: as many as
  // the phases' rounds in all, and one at round 0 of each phase.
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  for (const std::uint32_t threads : {2u, 4u}) {
    obs::Profiler profiler;
    run_workload(source, threads, &profiler);
    const obs::ProfileReport report = profiler.report();
    ASSERT_GT(report.phases, 0u);
    for (std::uint32_t w = 0; w < threads; ++w) {
      std::uint64_t waits = 0;
      std::uint64_t phases = 0;
      for (const obs::ProfSpan& span : profiler.lane(w)->spans()) {
        if (span.category != obs::ProfCategory::BarrierWait) continue;
        if (span.round == 0) ++phases;
        ++waits;
      }
      EXPECT_EQ(waits, report.rounds)
          << GetParam() << " at " << threads << " threads, worker " << w;
      EXPECT_EQ(phases, report.phases);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BenchWorkloads, ProfiledWorkload,
                         ::testing::Values("bench_fanout.ops",
                                           "bench_chain.ops"));

double json_number_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "missing key " << key << " in: " << json;
    return -1.0;
  }
  return std::stod(json.substr(pos + needle.size()));
}

TEST(ProfileCli, RunProfileJsonMeetsAcceptanceOnBenchWorkloads) {
  // The acceptance criterion end to end: `mpps run --profile --json` on
  // both committed workloads attributes >= 95% of each worker's wall
  // time to named categories.
  for (const char* program : {"bench_fanout.ops", "bench_chain.ops"}) {
    const std::string path =
        std::string(MPPS_PROGRAMS_DIR) + "/" + program;
    std::ostringstream out;
    std::ostringstream err;
    const int code =
        core::run_cli({"run", path, "--match-threads", "2", "--profile",
                       "--json", "--quiet"},
                      out, err);
    ASSERT_EQ(code, 0) << err.str();
    const std::string json = out.str();
    EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"profile\""), std::string::npos);
    EXPECT_NE(json.find("\"category_totals_ns\""), std::string::npos);
    EXPECT_GE(json_number_field(json, "min_attributed_pct"), 95.0)
        << program;
    EXPECT_GT(json_number_field(json, "phases"), 0.0) << program;
  }
}

TEST(ProfileCli, ProfileRequiresMatchThreads) {
  const std::string path =
      std::string(MPPS_PROGRAMS_DIR) + "/bench_fanout.ops";
  std::ostringstream out;
  std::ostringstream err;
  const int code = core::run_cli({"run", path, "--profile"}, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.str().find("--match-threads"), std::string::npos);
}

TEST(ProfileCli, TraceOutCarriesMeasuredWorkerLanes) {
  const std::string path =
      std::string(MPPS_PROGRAMS_DIR) + "/bench_fanout.ops";
  const std::string trace_path =
      std::string(::testing::TempDir()) + "profile_lanes.trace.json";
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      core::run_cli({"run", path, "--match-threads", "2", "--profile",
                     "--quiet", "--trace-out", trace_path},
                    out, err);
  ASSERT_EQ(code, 0) << err.str();
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // Both timelines share the file: the profiler's measured lanes and the
  // simulated replay's processor lanes.
  EXPECT_NE(json.find("measured worker 0"), std::string::npos);
  EXPECT_NE(json.find("measured worker 1"), std::string::npos);
  EXPECT_NE(json.find("measured control"), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait\""), std::string::npos);
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace mpps
