// The paper's speedup grid re-run per interconnection topology: the
// rubik / tourney / weaver sections under the Table 5-1 Run 2 cost model
// at {2, 8, 32} match processors, on the flat wire (the paper's
// machine), a 2-d mesh, a 2-d torus and a binary fat-tree, each with the
// per-hop latency set to the paper's 0.5 us wire latency.  This is the
// scenario axis the 1989 hardware could not explore: how much of the
// published speedup survives when remote messages pay hop-distance and
// uplink contention instead of one flat charge.
//
// Writes BENCH_topology.json so successive PRs leave a tracked
// trajectory (scripts/check_pct.py gates the *_pct and *_speedup fields).
//
// Usage:
//   topology_speedup [--smoke] [-o FILE]
//
// `--smoke` trims the processor grid; every configuration is still run
// (the numbers are simulated-model outputs, deterministic by
// construction, so there is nothing to warm up — but each configuration
// IS simulated twice and compared bit-for-bit as a determinism guard).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/assignment.hpp"
#include "src/sim/network.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/record.hpp"
#include "src/trace/synth.hpp"

namespace {

namespace sim = mpps::sim;

struct Row {
  std::string workload;
  std::string topology;
  std::string geometry;
  std::uint32_t procs = 0;
  double makespan_ms = 0.0;
  double speedup = 0.0;
  double network_busy_ms = 0.0;
  double contention_ms = 0.0;
  double avg_hops = 0.0;
  std::uint32_t max_hops = 0;
  double network_util_pct = 0.0;
};

std::string geometry_of(const sim::NetStats& net) {
  switch (net.kind) {
    case sim::NetKind::Constant:
      return "wire";
    case sim::NetKind::FatTree: {
      std::string out = "a";
      out += std::to_string(net.arity);
      out += " l";
      out += std::to_string(net.levels);
      return out;
    }
    default: {
      std::string out;
      for (const std::uint32_t d : net.dims) {
        if (!out.empty()) out += 'x';
        out += std::to_string(d);
      }
      return out;
    }
  }
}

Row measure(const std::string& workload, const mpps::trace::Trace& trace,
            mpps::SimTime baseline, std::uint32_t procs,
            const sim::NetworkConfig& net) {
  sim::SimConfig config;
  config.match_processors = procs;
  config.costs = sim::CostModel::paper_run(2);
  config.network = net;
  config.network.hop_latency = config.costs.wire_latency;
  const sim::Assignment assignment =
      sim::Assignment::round_robin(trace.num_buckets, config.partitions());

  const sim::SimResult result = sim::simulate(trace, config, assignment);
  const sim::SimResult again = sim::simulate(trace, config, assignment);
  if (result.makespan != again.makespan || !(result.net == again.net)) {
    std::cerr << "non-deterministic simulation on " << workload << " / "
              << config.network.describe() << " at " << procs << " procs\n";
    std::exit(1);
  }

  Row row;
  row.workload = workload;
  row.topology = sim::net_kind_name(result.net.kind);
  row.geometry = geometry_of(result.net);
  row.procs = procs;
  row.makespan_ms = static_cast<double>(result.makespan.nanos()) / 1e6;
  row.speedup = sim::speedup_ratio(baseline, result.makespan);
  row.network_busy_ms = static_cast<double>(result.network_busy.nanos()) / 1e6;
  row.contention_ms = static_cast<double>(result.net.total_delay.nanos()) / 1e6;
  row.avg_hops = result.net.avg_hops();
  row.max_hops = result.net.max_hops();
  row.network_util_pct = 100.0 * result.network_utilization();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_topology.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: topology_speedup [--smoke] [-o FILE]\n";
      return 2;
    }
  }

  using mpps::trace::Trace;
  const std::vector<std::pair<std::string, Trace>> workloads = {
      {"rubik", mpps::trace::make_rubik_section(256, 1)},
      {"tourney", mpps::trace::make_tourney_section(256, 1)},
      {"weaver", mpps::trace::make_weaver_section(256, 1)},
  };
  const std::vector<std::uint32_t> proc_counts =
      smoke ? std::vector<std::uint32_t>{8}
            : std::vector<std::uint32_t>{2, 8, 32};

  std::vector<sim::NetworkConfig> topologies(4);
  topologies[0].kind = sim::NetKind::Constant;
  topologies[1].kind = sim::NetKind::Mesh;
  topologies[2].kind = sim::NetKind::Torus;
  topologies[3].kind = sim::NetKind::FatTree;  // auto geometry throughout

  std::vector<Row> rows;
  for (const auto& [name, trace] : workloads) {
    const mpps::SimTime baseline = sim::baseline_time(trace);
    for (const std::uint32_t procs : proc_counts) {
      for (const sim::NetworkConfig& net : topologies) {
        Row row = measure(name, trace, baseline, procs, net);
        std::cout << row.workload << " @ " << row.procs << " procs on "
                  << row.topology << " (" << row.geometry
                  << "): speedup " << row.speedup << ", makespan "
                  << row.makespan_ms << " ms, contention "
                  << row.contention_ms << " ms\n";
        rows.push_back(std::move(row));
      }
    }
  }

  std::ofstream file(out_path);
  if (!file) {
    std::cerr << "cannot write '" << out_path << "'\n";
    return 1;
  }
  file << "{\n"
       << "  \"benchmark\": \"topology_speedup\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"cost_model\": \"table5_1_run2\",\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    file << "    {\"workload\": \"" << r.workload << "\", \"topology\": \""
         << r.topology << "\", \"geometry\": \"" << r.geometry
         << "\", \"procs\": " << r.procs
         << ", \"makespan_ms\": " << r.makespan_ms
         << ", \"net_speedup\": " << r.speedup
         << ", \"network_busy_ms\": " << r.network_busy_ms
         << ", \"contention_ms\": " << r.contention_ms
         << ", \"avg_hops\": " << r.avg_hops
         << ", \"max_hops\": " << r.max_hops
         << ", \"network_util_pct\": " << r.network_util_pct << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  file << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
