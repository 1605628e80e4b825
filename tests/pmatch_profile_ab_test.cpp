// The profiler's zero-overhead A/B guard: with profiling off, a run must
// not be slower than a profiled one.  It compares wall times, so it has a
// binary of its own that ctest runs alone (RUN_SERIAL): other test
// processes loading the host while it times would skew one side.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/obs/profiler.hpp"
#include "tests/pmatch_test_util.hpp"

namespace mpps {
namespace {

using pmatch_test::load_program;
using pmatch_test::run_workload;

class ProfiledWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfiledWorkload, DisabledPathIsNotSlowerThanProfiled) {
  // A/B guard, deliberately loose for noisy CI hosts: the uninstrumented
  // run does strictly less work than the profiled one (no clock reads, no
  // span appends), so its median wall time must not exceed the profiled
  // median by more than generous jitter slack.  A real hot-path cost on
  // the disabled branch (e.g. an unconditional clock read) shows up as a
  // consistent violation, not jitter.  One untimed run warms caches and
  // the allocator, then the two sides alternate, so a slow stretch of the
  // host (the first runs after a build, say) lands on both of them.
  const std::string source = load_program(GetParam());
  ASSERT_FALSE(source.empty());
  run_workload(source, 2, nullptr);
  std::vector<double> walls[2];  // [0] disabled, [1] profiled
  for (int i = 0; i < 5; ++i) {
    for (const bool with_profiler : {false, true}) {
      obs::Profiler profiler;
      walls[with_profiler].push_back(
          run_workload(source, 2, with_profiler ? &profiler : nullptr)
              .wall_ms);
    }
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double disabled = median(walls[0]);
  const double profiled = median(walls[1]);
  EXPECT_LE(disabled, profiled * 1.5 + 10.0)
      << "disabled " << disabled << " ms vs profiled " << profiled << " ms";
}

INSTANTIATE_TEST_SUITE_P(BenchWorkloads, ProfiledWorkload,
                         ::testing::Values("bench_fanout.ops",
                                           "bench_chain.ops"));

}  // namespace
}  // namespace mpps
