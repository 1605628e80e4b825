// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload manners|sweep-sections|tenants --seed N
//             --seconds S --trace 0|1 [--chrome-trace FILE]
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics.
// --trace 1 runs it untraced, then again traced on the same seed and
// sizes, and prints the per-layer metrics plus obs.trace_overhead_pct.
// Human-readable lines come first; the last line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u, "samples": n}, ...}}
// (perfbench/run.py turns it into the benchmark's result line.)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "src/host.hpp"
#include "src/probe.hpp"
#include "src/spans.hpp"
#include "src/stats.hpp"
#include "src/workload.hpp"

namespace {

using namespace perfbench;

struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Every per-layer metric a traced run may report, with its unit.
const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"ops5.parse_ms", "ms"},
      {"rete.compile_ms", "ms"},
      {"rete.match_us_per_cycle", "us"},
      {"rete.resolve_act_us_per_cycle", "us"},
      {"rete.activations_per_change", "1/change"},
      {"rete.tokens_per_change", "1/change"},
      {"rete.scanned_per_activation", "1/activation"},
      {"rete.cs_size_mean", "count"},
      {"rete.cs_size_max", "count"},
      {"rete.cs_deltas_per_cycle", "1/cycle"},
      {"rete.cs_fired_share", "ratio"},
      {"rete.cs_add_ns", "ns"},
      {"rete.cs_remove_ns", "ns"},
      {"rete.cs_select_ns", "ns"},
      {"rete.cs_share_pct", "%"},
      {"pmatch.phase_us", "us"},
      {"pmatch.rounds_per_phase", "1/phase"},
      {"pmatch.match_pct", "%"},
      {"pmatch.mailbox_enqueue_pct", "%"},
      {"pmatch.mailbox_dequeue_pct", "%"},
      {"pmatch.barrier_wait_pct", "%"},
      {"pmatch.round_merge_pct", "%"},
      {"pmatch.conflict_update_pct", "%"},
      {"pmatch.match_skew", "ratio"},
      {"pmatch.remote_share", "ratio"},
      {"pmatch.worker_idle_pct", "%"},
      {"serve.fanin_mean", "tx/phase"},
      {"serve.queue_wait_us", "us"},
      {"serve.settle_us", "us"},
      {"serve.dispatch_self_us", "us"},
      {"trace.synth_ms", "ms"},
      {"sim.ns_per_event", "ns"},
      {"sim.net_ns_per_message.torus", "ns"},
      {"sim.net_ns_per_message.fattree", "ns"},
      {"sim.baseline_pct", "%"},
      {"sim.invariants_pct", "%"},
      {"core.sweep_self_pct", "%"},
      {"sim.events", "count"},
      {"sim.messages", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.unattributed_pct", "%"},
  };
  return units;
}

/// JSON has no NaN or infinity; a non-finite value prints as null (and
/// run.py rejects the run).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload manners|sweep-sections|tenants "
               "--seed N --seconds S --trace 0|1 [--chrome-trace FILE]\n";
  return 2;
}

/// A run that failed before its timed loop closed a window has no
/// figures: print why and exit 1 (run.py then prints no result).
int no_figures(const std::string& workload, const Measured& m) {
  for (const std::string& f : m.failures) std::cout << "FAILED " << f << "\n";
  std::cerr << "perfbench: " << workload << " produced no timed window\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--chrome-trace") {
      config.chrome_trace = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  Measured (*run)(const RunConfig&, SpanLog*, const Measured*) = nullptr;
  if (workload == "manners") run = run_manners;
  if (workload == "sweep-sections") run = run_sweep;
  if (workload == "tenants") run = run_tenants;
  if (run == nullptr) return usage("unknown --workload");
  if (trace < 0) return usage("missing --trace");

  const HostSnapshot host_begin = host_snapshot();
  const Measured base = run(config, nullptr, nullptr);
  if (base.windows.empty()) return no_figures(workload, base);
  std::vector<Row> rows;
  std::uint64_t attempted = base.attempted;
  std::uint64_t failed = base.failed;
  std::vector<std::string> failures = base.failures;
  std::vector<std::string> info = base.info;
  const WindowSummary timed = base.timed();
  info.push_back("windows " + std::to_string(base.windows.size()));
  const WindowSummary raw = base.measured();
  info.push_back("host slowdown (median over windows) " +
                 std::to_string(timed.slowdown));
  info.push_back("as measured: work_per_s " + std::to_string(raw.work_per_s) +
                 " op_p50_us " + std::to_string(raw.op_p50_us) +
                 " op_p99_us " + std::to_string(raw.op_p99_us) +
                 " cpu_us_per_op " + std::to_string(raw.cpu_us_per_op));
  if (trace == 0) {
    // The probe's arena stays resident for the whole run; it is not the
    // program's memory.
    const double rss_mb = peak_rss_mb() - static_cast<double>(
                                              HostProbe::kArenaBytes) /
                                              (1024.0 * 1024.0);
    rows = {{"setup_s", median(base.setup_s), "s", base.setup_s.size()},
            {"peak_rss_mb", rss_mb, "MiB", 1},
            {"work_per_s", timed.work_per_s, "1/s", timed.ops},
            {"op_p50_us", timed.op_p50_us, "us", timed.ops},
            {"op_p99_us", timed.op_p99_us, "us", timed.ops},
            {"cpu_us_per_op", timed.cpu_us_per_op, "us", timed.ops}};
    info.push_back(std::string("work_per_s = ") + base.throughput_name +
                   " [" + base.throughput_unit + "]");
    info.push_back(std::string("op = ") + base.op_name);
  } else {
    // The traced pass measures for half as long: per-layer figures need
    // fewer samples than the bounded end-to-end ones.
    RunConfig traced_config = config;
    traced_config.seconds = config.seconds / 2;
    SpanLog spans;
    const Measured traced = run(traced_config, &spans, &base);
    if (traced.windows.empty()) return no_figures(workload, traced);
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    if (traced.exact != base.exact) {
      ++failed;
      failures.push_back(workload +
                         ": exact counts differ between the traced and "
                         "untraced runs");
    }
    for (const auto& [name, value] : traced.layers) {
      const auto unit = layer_units().find(name);
      if (unit == layer_units().end()) {
        ++failed;
        failures.push_back("unlisted per-layer metric " + name);
        continue;
      }
      rows.push_back({name, value, unit->second, 1});
    }
    const WindowSummary traced_timed = traced.timed();
    rows.push_back({"obs.trace_overhead_pct",
                    100.0 * (timed.work_per_s / traced_timed.work_per_s - 1.0),
                    "%", traced_timed.ops});
    info.push_back("spans " + std::to_string(spans.spans().size()));
  }
  const HostSnapshot host_end = host_snapshot();

  std::cout << "workload " << workload << " seed " << config.seed
            << " seconds " << config.seconds << " trace " << trace << "\n";
  print_host_record(std::cout, host_begin, host_end);
  for (const std::string& line : info) std::cout << "info " << line << "\n";
  for (const auto& [name, value] : base.exact) {
    std::cout << "exact " << name << " " << value << "\n";
  }
  for (const Row& r : rows) {
    std::cout << "metric " << r.name << " " << json_number(r.value) << " "
              << r.unit << " (samples " << r.samples << ")\n";
  }
  for (const std::string& f : failures) std::cout << "FAILED " << f << "\n";

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << rows[i].name
              << "\": {\"value\": " << json_number(rows[i].value)
              << ", \"unit\": \"" << rows[i].unit
              << "\", \"samples\": " << rows[i].samples << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
