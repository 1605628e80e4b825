#include "src/core/cli.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <random>
#include <sstream>
#include <thread>

#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/common/table.hpp"
#include "src/core/distribution.hpp"
#include "src/core/jsonw.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/selfcheck.hpp"
#include "src/core/sweep.hpp"
#include "src/mc/checker.hpp"
#include "src/mc/controller.hpp"
#include "src/mc/scenario.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/summary.hpp"
#include "src/obs/timeline.hpp"
#include "src/obs/tracer.hpp"
#include "src/ops5/parser.hpp"
#include "src/pmatch/engine.hpp"
#include "src/rete/interp.hpp"
#include "src/serve/serve.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/io.hpp"
#include "src/trace/synth.hpp"

namespace mpps::core {
namespace {

// ---------------------------------------------------------------------------
// The flag table.  Everything the CLI accepts is declared here; the usage
// text is generated from it, unknown flags are rejected against it, and
// cli_commands() exposes it so tests can assert that every documented
// flag really parses.  `sample` is a valid example value for those tests.
// ---------------------------------------------------------------------------

/// Version stamp every `--json` document carries.  v2 added the `serve`
/// command with its "serve"/"latency" objects (docs/API.md has the
/// v1 → v2 delta).
constexpr int kSchemaVersion = 2;

struct FlagSpec {
  const char* name;    // "--procs", "-o", ...
  const char* value;   // metavar; nullptr for boolean flags
  const char* sample;  // a valid example value; nullptr for boolean flags
  const char* help;    // one clause, kept short enough for one help line
};

struct CommandSpec {
  const char* name;
  const char* operand;  // nullptr if the command takes no file argument
  const char* summary;  // '\n'-separated summary lines
  std::vector<FlagSpec> flags;
};

constexpr FlagSpec kJobs{"--jobs", "N", "2",
                         "worker threads for a --procs fan-out (default: auto)"};
constexpr FlagSpec kTraceOut{
    "--trace-out", "FILE", "mpps_cli.trace.json",
    "write a Chrome trace_event timeline of the simulated run(s)"};
constexpr FlagSpec kMetricsOut{"--metrics-out", "FILE", "mpps_cli.metrics.csv",
                               "write the metrics-registry CSV"};
constexpr FlagSpec kJson{"--json", nullptr, nullptr,
                         "machine-readable output (\"schema_version\": 2)"};
constexpr FlagSpec kRunModel{"--run", "0..4", "2",
                             "overhead cost model: 0 zero-overhead, 1..4 the "
                             "paper's runs (default 1)"};
constexpr FlagSpec kMapping{"--mapping", "merged|pairs", "pairs",
                            "map each bucket pair to one processor or to a "
                            "left/right pair"};
constexpr FlagSpec kAssign{"--assign", "rr|random|greedy", "greedy",
                           "bucket-to-processor assignment policy"};
constexpr FlagSpec kSeed{"--seed", "S", "7", "seed for randomized choices"};
constexpr FlagSpec kNet{"--net", "constant|mesh|torus|fattree", "mesh",
                        "interconnect model messages are charged on "
                        "(default constant: the paper's flat wire)"};
constexpr FlagSpec kNetDims{"--net-dims", "AxB[xC..]", "6x6",
                            "mesh/torus geometry (default: near-square 2-d "
                            "grid covering the machine)"};
constexpr FlagSpec kNetArity{"--net-arity", "K", "4",
                             "fat-tree switch arity (default 2)"};
constexpr FlagSpec kNetLevels{"--net-levels", "L", "6",
                              "fat-tree depth (default: smallest whose "
                              "leaves cover the machine)"};
constexpr FlagSpec kNetHopNs{"--net-hop-ns", "NS", "250",
                             "per-hop wire latency in ns (default: the cost "
                             "model's wire latency)"};

const std::vector<CommandSpec>& commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"run", "<file.ops>",
       "run an OPS5 program to halt/quiescence and print its firings;\n"
       "--match-threads runs the parallel match engine and prints the\n"
       "measured per-worker skew; with --procs and/or --trace-out/\n"
       "--metrics-out the match trace is also replayed on the simulated\n"
       "MPC (one summary line per --procs entry, fanned out over --jobs)",
       {
           {"--strategy", "lex|mea", "mea",
            "conflict-resolution strategy (default lex)"},
           {"--max-cycles", "N", "500", "cycle limit (default 100000)"},
           {"--quiet", nullptr, nullptr, "suppress the per-firing lines"},
           {"--watch", "0|1|2", "1", "OPS5 watch level (default 0)"},
           {"--match-threads", "N", "2",
            "match with N parallel worker threads (default: serial)"},
           {"--match-assign", "rr|random", "random",
            "bucket partition across match workers (default rr;\n"
            "requires --match-threads)"},
           {"--match-batch", "N", "16",
            "fuse up to N WM changes into one BSP phase (default 1;\n"
            "requires --match-threads)"},
           {"--match-mailbox", "N", "1024",
            "items a worker may receive from others per round before\n"
            "they count as mailbox overflows (default 1024; never blocks;\n"
            "requires --match-threads)"},
           {"--profile", nullptr, nullptr,
            "attribute each worker's wall time to match/mailbox/barrier/"
            "merge categories (requires --match-threads)"},
           kSeed,
           kJson,
           {"--procs", "P[,P...]", "2,4",
            "simulated match-processor counts (default 8)"},
           kRunModel,
           kJobs,
           kTraceOut,
           kMetricsOut,
       }},
      {"serve", "<file.ops>",
       "serve the rule base to concurrent client sessions through the\n"
       "Session/Transaction API: each session is an isolated WM\n"
       "partition, the admission queue fuses different sessions'\n"
       "transactions into shared BSP phases, and the run ends with the\n"
       "latency report (docs/SERVING.md)",
       {
           {"--sessions", "N", "2", "concurrent client sessions (default 8)"},
           {"--transactions", "N", "8",
            "transactions each client submits (default 64)"},
           {"--seconds", "S", "1",
            "time-bound the run instead: clients submit until S seconds\n"
            "elapse (the soak mode; overrides --transactions)"},
           {"--wm-window", "W", "4",
            "live wmes retained per session -- each transaction retracts\n"
            "beyond-window wmes it submitted earlier, keeping WM and RSS\n"
            "flat (default 32)"},
           {"--match-threads", "N", "2",
            "parallel match worker threads (default 2)"},
           {"--admission-batch", "N", "4",
            "max transactions (one per session) fused into one BSP phase\n"
            "(default 16)"},
           {"--queue-capacity", "N", "32",
            "admission-queue bound; submits block while full (default 256)"},
           {"--rss-ceiling-mb", "M", "4096",
            "fail (exit 1) if peak RSS exceeds M MiB -- the soak\n"
            "assertion (default: unchecked)"},
           kSeed,
           kJson,
           kMetricsOut,
       }},
      {"trace", "<file.ops>",
       "record the program's match-phase activation trace",
       {
           {"-o", "FILE", "mpps_cli.trace", "output path (default stdout)"},
           {"--buckets", "B", "64", "hash buckets per memory (default 256)"},
       }},
      {"stats", "<file.trace>",
       "print activation statistics plus a simulated-run summary per\n"
       "--procs entry: busy skew, message histogram, hottest buckets",
       {
           {"--procs", "P[,P...]", "4,8",
            "simulated match-processor counts (default 16)"},
           kRunModel,
           {"--top", "K", "4", "hottest buckets to list (default 8)"},
           kNet,
           kNetDims,
           kNetArity,
           kNetLevels,
           kNetHopNs,
           kJobs,
           kJson,
           kTraceOut,
           kMetricsOut,
       }},
      {"simulate", "<file.trace>",
       "replay a trace on the simulated message-passing machine; a\n"
       "--procs comma list sweeps the counts in parallel (the exports\n"
       "then hold the merged registry and merged timeline)",
       {
           {"--procs", "P[,P...]", "1,2,4",
            "match-processor counts (default 8)"},
           kRunModel,
           kMapping,
           kAssign,
           kSeed,
           {"--ct", "K", "1", "dedicated constant-test processors"},
           {"--cs", "M", "1", "dedicated conflict-set processors"},
           {"--termination", "none|ack|poll", "ack",
            "cycle-termination detection model"},
           kNet,
           kNetDims,
           kNetArity,
           kNetLevels,
           kNetHopNs,
           kJobs,
           kJson,
           kTraceOut,
           kMetricsOut,
       }},
      {"sweep", "<file.trace>",
       "fan a (processors x overhead-runs) grid across worker threads\n"
       "and print the speedup table; results are bit-identical for every\n"
       "--jobs value and checked against the simulator's invariant laws",
       {
           {"--procs", "P[,P...]", "2,4",
            "processor counts (default 2,4,8,16,32)"},
           {"--runs", "R[,R...]", "1,2", "overhead runs (default 1,2,3,4)"},
           kNet,
           kNetDims,
           kNetArity,
           kNetLevels,
           kNetHopNs,
           kJobs,
           kMapping,
           kAssign,
           kSeed,
           {"--csv", nullptr, nullptr, "print the table as CSV"},
           kJson,
           kTraceOut,
           kMetricsOut,
       }},
      {"selfcheck", nullptr,
       "differential self-test: N seeded scenarios through the optimized\n"
       "AND the naive reference simulator plus the invariant laws;\n"
       "failing scenarios are shrunk to a minimal repro (exit 0 clean,\n"
       "1 on any failure)",
       {
           {"--rounds", "N", "3", "scenarios to run (default 200)"},
           kSeed,
           {"--fault",
            "none|left-token-undercharge|free-remote-send|free-remote-hop",
            "none", "inject a known bug to prove the oracle catches it"},
           kMetricsOut,
       }},
      {"check", nullptr,
       "model-check the parallel match engine: explore the round-item\n"
       "and merge orderings of every BSP round (partial-order reduced)\n"
       "and assert conflict-set equality against the serial engine on\n"
       "every explored schedule (exit 0 clean, 1 on any mismatch or a\n"
       "truncated exploration)",
       {
           {"--exhaustive", nullptr, nullptr,
            "DFS every distinguishable schedule (the default mode)"},
           {"--schedules", "N", "8",
            "fuzz N seeded random schedules instead of the DFS; every\n"
            "run gets a replayable schedule ID"},
           kSeed,
           {"--scenario", "NAME", "fused-add-delete",
            "check one corpus scenario (default: all; see --list)"},
           {"--replay", "ID", "-",
            "replay one recorded schedule ID (requires --scenario)"},
           {"--fault", "none|merge-order|drain-fifo", "none",
            "inject a known engine bug to prove the checker catches it"},
           {"--max-schedules", "N", "4096",
            "exhaustive-mode safety cap; hitting it fails the scenario\n"
            "(default 1048576)"},
           {"--list", nullptr, nullptr,
            "list the corpus scenarios and exit"},
           kMetricsOut,
       }},
      {"sections", nullptr,
       "write the synthetic Rubik/Tourney/Weaver sections as traces",
       {
           {"-o", "DIR", ".", "output directory (default '.')"},
       }},
      {"slice", "<file.trace>",
       "extract consecutive cycles -- how the paper built its sections",
       {
           {"--from", "N", "0", "first cycle (default 0)"},
           {"--cycles", "K", "2", "cycle count (default 4)"},
           {"-o", "FILE", "mpps_cli.slice.trace",
            "output path (default stdout)"},
       }},
  };
  return kCommands;
}

constexpr const char* kUsageTrailer =
    "`--trace-out` writes a Chrome trace_event JSON timeline (load it in\n"
    "chrome://tracing or https://ui.perfetto.dev); `--metrics-out` writes\n"
    "the metrics registry (plus per-cycle busy/idle for single runs) as\n"
    "CSV; `--json` output carries \"schema_version\": 2.\n"
    "docs/OBSERVABILITY.md documents the export formats; docs/SIMULATOR.md\n"
    "the sweep engine; docs/PARALLEL_MATCH.md the --match-threads engine;\n"
    "docs/SERVING.md the `serve` session/transaction engine.\n";

std::string usage_text() {
  std::ostringstream os;
  os << "usage: mpps <command> [options]\n\ncommands:\n";
  for (const CommandSpec& cmd : commands()) {
    os << "  " << cmd.name;
    if (cmd.operand != nullptr) os << " " << cmd.operand;
    os << "\n";
    std::istringstream summary(cmd.summary);
    for (std::string line; std::getline(summary, line);) {
      os << "      " << line << "\n";
    }
    for (const FlagSpec& flag : cmd.flags) {
      std::string label = flag.name;
      if (flag.value != nullptr) {
        label += ' ';
        label += flag.value;
      }
      os << "      " << label;
      const std::size_t column = 34;
      if (label.size() + 7 < column) {
        os << std::string(column - 7 - label.size(), ' ');
      } else {
        os << "\n" << std::string(column - 1, ' ');
      }
      // Help lines after the first start at the help column too.
      std::istringstream help(flag.help);
      std::string line;
      std::getline(help, line);
      os << " " << line << "\n";
      while (std::getline(help, line)) {
        os << std::string(column, ' ') << line << "\n";
      }
    }
    os << "\n";
  }
  os << kUsageTrailer;
  return os.str();
}

// Bad command-line input is an mpps::UsageError (common/error.hpp) —
// reported with usage exit code 2, unlike runtime failures (exit 1).
// The options structs' `validate()` throws the same type, so an option
// the flags parse but the consumer rejects exits 2 as well.

/// Flag cursor over one subcommand's argument vector, validated against
/// the command's spec on construction: an undeclared flag, a missing
/// flag value, or a stray positional argument is a UsageError.
class Args {
 public:
  Args(const std::vector<std::string>& args, const CommandSpec& spec)
      : spec_(&spec) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const FlagSpec* flag = find_flag(spec, args[i]);
      if (flag != nullptr) {
        if (flag->value != nullptr) {
          if (i + 1 >= args.size()) {
            throw UsageError(std::string(spec.name) + ": " + flag->name +
                             " needs a value (" + flag->value + ")");
          }
          values_.emplace_back(args[i], args[i + 1]);
          ++i;
        } else {
          switches_.push_back(args[i]);
        }
        continue;
      }
      if (args[i].size() > 1 && args[i][0] == '-') {
        throw UsageError(std::string(spec.name) + ": unknown flag '" +
                         args[i] + "' (see 'mpps help')");
      }
      positionals_.push_back(args[i]);
    }
    const std::size_t max_positionals = spec.operand != nullptr ? 1 : 0;
    if (positionals_.size() > max_positionals) {
      throw UsageError(std::string(spec.name) + ": unexpected argument '" +
                       positionals_[max_positionals] + "'");
    }
  }

  /// The operand (file argument), or empty if none was given.
  [[nodiscard]] std::string positional() const {
    return positionals_.empty() ? std::string() : positionals_.front();
  }

  /// Value of `--name <value>`, or null when the flag is absent.
  [[nodiscard]] const std::string* find(const std::string& name) const {
    for (const auto& [flag, value] : values_) {
      if (flag == name) return &value;
    }
    return nullptr;
  }

  /// Value of `--name <value>`, or `fallback`.
  [[nodiscard]] std::string value(const std::string& name,
                                  const std::string& fallback) const {
    const std::string* v = find(name);
    return v == nullptr ? fallback : *v;
  }

  [[nodiscard]] bool flag(const std::string& name) const {
    return std::find(switches_.begin(), switches_.end(), name) !=
           switches_.end();
  }

  /// The metavar the flag table declares for `name` ("lex|mea").
  [[nodiscard]] std::string_view metavar(const std::string& name) const {
    return find_flag(*spec_, name)->value;
  }

 private:
  static const FlagSpec* find_flag(const CommandSpec& spec,
                                   const std::string& name) {
    for (const FlagSpec& flag : spec.flags) {
      if (name == flag.name) return &flag;
    }
    return nullptr;
  }

  const CommandSpec* spec_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> switches_;
  std::vector<std::string> positionals_;
};

/// The largest value of T that a `long` holds.
template <typename T>
constexpr long max_of() {
  return static_cast<long>(std::min<std::uint64_t>(
      std::numeric_limits<T>::max(), std::numeric_limits<long>::max()));
}

/// The one integer reader for flag values: all of `raw` must be a base-10
/// integer in [lo, hi] (lo is 0 or 1), else it is a UsageError naming
/// `flag` — never a silent fallback to a default.
long parse_int_in(const std::string& flag, std::string_view raw, long lo,
                  long hi) {
  long v = 0;
  const bool is_int = parse_int(trim(raw), v);
  if (is_int && v >= lo && v <= hi) return v;
  const std::string what =
      is_int && v > hi ? "is above the maximum " + std::to_string(hi)
      : lo > 0         ? std::string("is not a positive integer")
                       : std::string("is not a non-negative integer");
  throw UsageError(flag + ": '" + std::string(raw) + "' " + what);
}

/// An integer flag: `fallback` when absent, else a value in [lo, hi]
/// (hi defaults to the largest T).
template <typename T>
T int_flag(const Args& args, const std::string& flag, T fallback,
           long lo = 1, long hi = max_of<T>()) {
  const std::string* raw = args.find(flag);
  return raw == nullptr ? fallback
                        : static_cast<T>(parse_int_in(flag, *raw, lo, hi));
}

/// An integer-list flag ("2,4,8", or "6x6" with `sep` 'x'): every field
/// is read by parse_int_in; `fallback`, in the same syntax, when absent.
template <typename T>
std::vector<T> int_list_flag(const Args& args, const std::string& flag,
                             std::string_view fallback, long lo,
                             long hi = max_of<T>(), char sep = ',') {
  const std::string* given = args.find(flag);
  const std::string_view list = given == nullptr ? fallback : *given;
  std::vector<T> out;
  for (std::size_t start = 0;;) {
    const std::size_t end = std::min(list.find(sep, start), list.size());
    out.push_back(static_cast<T>(
        parse_int_in(flag, list.substr(start, end - start), lo, hi)));
    if (end == list.size()) return out;
    start = end + 1;
  }
}

/// An enumerated flag: one of the values its table metavar lists
/// ("lex|mea"), the first of them when absent; any other value is a
/// UsageError naming the flag and the allowed values.
std::string enum_flag(const Args& args, const std::string& flag) {
  const std::string_view allowed = args.metavar(flag);
  const std::string* given = args.find(flag);
  if (given == nullptr) {
    return std::string(allowed.substr(0, allowed.find('|')));
  }
  for (std::size_t start = 0;;) {
    const std::size_t end = std::min(allowed.find('|', start), allowed.size());
    if (allowed.substr(start, end - start) == *given) return *given;
    if (end == allowed.size()) break;
    start = end + 1;
  }
  throw UsageError(flag + ": '" + *given + "' is not one of " +
                   std::string(allowed));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

trace::Trace read_trace_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw RuntimeError("cannot open '" + path + "'");
  return trace::read_trace(file);
}

/// The uniform `--trace-out` / `--metrics-out` export pair.
struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;

  [[nodiscard]] bool any() const {
    return !trace_path.empty() || !metrics_path.empty();
  }

  static ObsOutputs from(const Args& args) {
    return ObsOutputs{args.value("--trace-out", ""),
                      args.value("--metrics-out", "")};
  }

  /// Single-run export: timeline + per-cycle busy/idle CSV + registry.
  void write(const obs::Tracer& tracer, const obs::Registry& registry,
             const sim::SimResult& result, std::ostream& note) const {
    if (!trace_path.empty()) {
      std::ofstream file(trace_path);
      if (!file) throw RuntimeError("cannot write '" + trace_path + "'");
      tracer.write_chrome_json(file);
      note << "wrote trace timeline to " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream file(metrics_path);
      if (!file) throw RuntimeError("cannot write '" + metrics_path + "'");
      obs::write_metrics_csv(file, result, &registry);
      note << "wrote metrics to " << metrics_path << "\n";
    }
  }

  /// Fan-out export: merged timeline + merged registry CSV.
  void write_merged(const obs::Tracer& tracer, const obs::Registry& registry,
                    std::ostream& note) const {
    if (!trace_path.empty()) {
      std::ofstream file(trace_path);
      if (!file) throw RuntimeError("cannot write '" + trace_path + "'");
      tracer.write_chrome_json(file);
      note << "wrote trace timeline to " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream file(metrics_path);
      if (!file) throw RuntimeError("cannot write '" + metrics_path + "'");
      registry.write_csv(file);
      note << "wrote metrics to " << metrics_path << "\n";
    }
  }
};

/// The shared `--net*` flag group → a validated NetworkConfig.  Geometry
/// is checked against the LARGEST machine the command will simulate
/// (`total_nodes`), so an undersized grid is a usage error (exit 2)
/// before any run starts.
sim::NetworkConfig parse_network(const Args& args, std::uint32_t total_nodes) {
  sim::NetworkConfig net;
  const std::string kind = args.value("--net", "");
  if (!kind.empty()) {
    try {
      net.kind = sim::parse_net_kind(kind);
    } catch (const RuntimeError& e) {
      throw UsageError(std::string("--net: ") + e.what());
    }
  }
  if (args.find("--net-dims") != nullptr) {
    if (net.kind != sim::NetKind::Mesh && net.kind != sim::NetKind::Torus) {
      throw UsageError("--net-dims only applies to --net mesh|torus");
    }
    net.dims = int_list_flag<std::uint32_t>(args, "--net-dims", "", 1,
                                            max_of<std::uint32_t>(), 'x');
  }
  for (const char* flag : {"--net-arity", "--net-levels"}) {
    if (!args.value(flag, "").empty() &&
        net.kind != sim::NetKind::FatTree) {
      throw UsageError(std::string(flag) + " only applies to --net fattree");
    }
  }
  net.arity = int_flag<std::uint32_t>(args, "--net-arity", 2);
  net.levels = int_flag<std::uint32_t>(args, "--net-levels", 0);
  net.hop_latency =
      SimTime::ns(int_flag<std::int64_t>(args, "--net-hop-ns", 0));
  try {
    sim::validate_network(net, total_nodes);
  } catch (const RuntimeError& e) {
    throw UsageError(std::string("--net: ") + e.what());
  }
  return net;
}

/// Resolved geometry as one token: "wire", "4x8", "a2 l3".
std::string net_geometry(const sim::NetStats& net) {
  switch (net.kind) {
    case sim::NetKind::Constant:
      return "wire";
    case sim::NetKind::Mesh:
    case sim::NetKind::Torus: {
      std::string out;
      for (std::size_t i = 0; i < net.dims.size(); ++i) {
        if (i != 0) out += 'x';
        out += std::to_string(net.dims[i]);
      }
      return out;
    }
    case sim::NetKind::FatTree:
      return "a" + std::to_string(net.arity) + " l" +
             std::to_string(net.levels);
  }
  return "?";
}

/// One-line topology traffic summary (silent on the flat wire, whose
/// numbers already appear in the main table).
void print_network_line(std::ostream& out, const sim::NetStats& net) {
  if (net.kind == sim::NetKind::Constant) return;
  out << "network: " << sim::net_kind_name(net.kind) << " "
      << net_geometry(net) << ", " << net.messages << " charged messages, "
      << "avg " << std::fixed << std::setprecision(2) << net.avg_hops()
      << std::defaultfloat << " hops (max " << net.max_hops()
      << "), contention delay " << net.total_delay.micros() << " us";
  const std::size_t hot = net.hottest_link();
  if (hot < net.links.size()) {
    out << ", hottest link " << sim::net_link_name(net, hot) << " ("
        << net.links[hot].messages << " msgs, " << net.links[hot].busy.micros()
        << " us busy)";
  }
  out << "\n";
}

int parse_run_model(const Args& args, int fallback) {
  return int_flag<int>(args, "--run", fallback, 0, 4);
}

/// The bucket assignment an `--assign rr|random|greedy` policy deals for
/// `config`'s partitions.  Throws what `config.validate()` throws.
sim::Assignment assignment_for(const std::string& policy,
                               const trace::Trace& t,
                               const sim::SimConfig& config,
                               std::uint64_t seed) {
  config.validate();
  if (policy == "random") {
    return sim::Assignment::random(t.num_buckets, config.partitions(), seed);
  }
  if (policy == "greedy") {
    return greedy_assignment(t, config.partitions(), config.costs);
  }
  return sim::Assignment::round_robin(t.num_buckets, config.partitions());
}

/// The `--json` network object of one run: resolved geometry plus the
/// charged-traffic aggregates (shared by every command emitting results).
void json_network(JsonWriter& w, const sim::NetStats& net) {
  w.begin_object();
  w.field("kind", sim::net_kind_name(net.kind));
  w.field("geometry", net_geometry(net));
  w.field("hop_latency_ns",
          static_cast<std::uint64_t>(net.hop_latency.nanos()));
  w.field("charged_messages", net.messages);
  w.field("total_latency_us", net.total_latency.micros());
  w.field("contention_delay_us", net.total_delay.micros());
  w.field("avg_hops", net.avg_hops());
  w.field("max_hops", static_cast<std::uint64_t>(net.max_hops()));
  const std::size_t hot = net.hottest_link();
  if (hot < net.links.size()) {
    w.key("hottest_link");
    w.begin_object();
    w.field("link", sim::net_link_name(net, hot));
    w.field("messages", net.links[hot].messages);
    w.field("busy_us", net.links[hot].busy.micros());
    w.end_object();
  }
  w.end_object();
}

/// One simulated-run result object of the `--json` schema (shared by
/// simulate, sweep and stats so downstream tooling parses one shape).
void json_sim_result(JsonWriter& w, std::uint32_t procs, int run,
                     const sim::SimResult& result, double speedup) {
  w.begin_object();
  w.field("procs", procs);
  w.field("run", run);
  w.field("makespan_us", result.makespan.micros());
  w.field("speedup", speedup);
  w.field("messages", result.messages);
  w.field("local_deliveries", result.local_deliveries);
  w.field("network_idle_pct", 100.0 * (1.0 - result.network_utilization()));
  w.field("avg_proc_util_pct", 100.0 * result.avg_processor_utilization());
  w.key("network");
  json_network(w, result.net);
  w.end_object();
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// The `--json` profile object — the machine-readable Table 5-1-style
/// breakdown (`min_attributed_pct` is the acceptance number).
void json_profile_report(JsonWriter& w, const obs::ProfileReport& report) {
  w.begin_object();
  w.field("phases", report.phases);
  w.field("changes", report.changes);
  w.field("rounds", report.rounds);
  w.field("rounds_per_phase", report.rounds_per_phase());
  w.field("rounds_per_change", report.rounds_per_change());
  w.field("min_attributed_pct", report.min_attributed_pct());
  w.field("match_skew", report.match_skew);
  w.field("total_wall_ns", report.total_wall_ns);
  w.field("total_unattributed_ns", report.total_unattributed_ns);
  w.field("engine_wall_ns", report.engine_wall_ns);
  w.field("conflict_update_ns", report.conflict_update_ns);
  // Normalized against the engine wall (the control lane's phase spans),
  // not the summed worker walls — in [0, 100] by construction.
  w.field("conflict_update_pct", report.conflict_update_pct());
  w.key("category_totals_ns");
  w.begin_object();
  for (std::size_t c = 0; c < obs::kProfCategories; ++c) {
    w.field(obs::prof_category_name(static_cast<obs::ProfCategory>(c)),
            report.total_ns[c]);
  }
  w.end_object();
  w.key("workers");
  w.begin_array();
  for (std::size_t i = 0; i < report.workers.size(); ++i) {
    const obs::ProfileReport::Worker& worker = report.workers[i];
    w.begin_object();
    w.field("worker", static_cast<std::uint64_t>(i));
    w.field("wall_ns", worker.wall_ns);
    w.field("attributed_pct", worker.attributed_pct());
    w.field("unattributed_ns", worker.unattributed_ns);
    w.field("activations", worker.activations);
    w.key("category_ns");
    w.begin_object();
    for (std::size_t c = 0; c < obs::kProfCategories; ++c) {
      w.field(obs::prof_category_name(static_cast<obs::ProfCategory>(c)),
              worker.category_ns[c]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("merge");
  w.begin_object();
  w.field("rounds", report.merge_rounds);
  w.field("merged_items", report.merged_items);
  w.field("max_round_items", report.max_merge_items);
  w.end_object();
  w.key("hot_buckets");
  w.begin_array();
  for (const obs::ProfileReport::HotBucket& hot : report.hot_buckets) {
    w.begin_object();
    w.field("bucket", hot.bucket);
    w.field("worker", hot.worker);
    w.field("activations", hot.activations);
    w.field("tokens_touched", hot.tokens_touched);
    w.field("share_pct", hot.share_pct);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

int cmd_run(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.positional();
  if (path.empty()) {
    err << "run: missing program file\n";
    return 2;
  }
  const ObsOutputs obs_out = ObsOutputs::from(args);
  const bool json = args.flag("--json");
  const bool profile = args.flag("--profile");
  obs::Registry registry;
  obs::Tracer tracer;
  obs::Profiler profiler;
  rete::InterpreterOptions options;
  options.strategy = enum_flag(args, "--strategy") == "mea"
                         ? rete::Strategy::Mea
                         : rete::Strategy::Lex;
  options.max_cycles = int_flag<std::size_t>(args, "--max-cycles", 100000, 0);
  const bool quiet = args.flag("--quiet");
  options.out = quiet || json ? nullptr : &out;
  options.watch = int_flag<int>(args, "--watch", 0, 0, 2);
  if (obs_out.any()) options.engine.metrics = &registry;

  // Every integer and enum flag is read before the run, so a malformed
  // one fails fast even when this invocation would not use it.
  const auto match_threads =
      int_flag<std::uint32_t>(args, "--match-threads", 0, 0);
  const std::string match_assign = enum_flag(args, "--match-assign");
  const auto seed = int_flag<std::uint64_t>(args, "--seed", 1, 0);
  const int run_model = parse_run_model(args, 1);
  const std::vector<std::uint32_t> procs_list =
      int_list_flag<std::uint32_t>(args, "--procs", "8", 1);
  const auto jobs = int_flag<unsigned>(args, "--jobs", 0);
  if (match_threads == 0) {
    for (const char* flag :
         {"--match-assign", "--match-batch", "--match-mailbox", "--profile"}) {
      if (args.find(flag) != nullptr || args.flag(flag)) {
        throw UsageError(std::string(flag) +
                         " requires --match-threads (it configures the "
                         "parallel match engine)");
      }
    }
  } else {
    pmatch::ParallelOptions popts;
    popts.threads = match_threads;
    if (match_assign == "random") {
      popts.partition = pmatch::ParallelOptions::Partition::Random;
      popts.seed = seed;
    }
    popts.max_batch = int_flag<std::uint32_t>(args, "--match-batch", 1);
    popts.mailbox_capacity =
        int_flag<std::size_t>(args, "--match-mailbox", 1024);
    if (profile) popts.profiler = &profiler;
    options.engine_factory = pmatch::parallel_engine_factory(popts);
  }

  const std::string source = read_file(path);
  rete::Interpreter interp(ops5::parse_program(source), options);
  interp.load_initial_wmes();
  const rete::RunResult result = interp.run();
  const char* outcome_name =
      result.outcome == rete::RunResult::Outcome::Halted ? "halted"
      : result.outcome == rete::RunResult::Outcome::Quiescent ? "quiescent"
                                                              : "cycle-limit";
  if (!json) {
    out << "outcome: " << outcome_name << "\ncycles: " << result.cycles
        << "\nfirings: " << result.firings << "\n";
    if (!quiet) {
      for (const auto& firing : interp.firings()) {
        out << "  cycle " << firing.cycle << ": " << firing.production
            << "\n";
      }
    }
  }

  std::vector<pmatch::WorkerStats> workers;
  std::uint64_t engine_rounds = 0;
  if (match_threads > 0) {
    // Measured (wall-clock) behaviour of the parallel match engine — the
    // real-hardware counterpart of the simulated skew below / in `stats`.
    const auto& engine =
        dynamic_cast<const pmatch::ParallelEngine&>(interp.match_engine());
    workers = engine.worker_stats();
    engine_rounds = engine.rounds();
    std::uint64_t total_busy = 0;
    std::uint64_t max_busy = 0;
    for (const pmatch::WorkerStats& w : workers) {
      total_busy += w.busy_ns;
      max_busy = std::max(max_busy, w.busy_ns);
    }
    if (!json) {
      out << "parallel match: " << workers.size() << " workers, "
          << engine.phases() << " BSP phases covering " << engine.changes()
          << " WM changes, " << engine_rounds << " activation rounds\n";
      for (std::size_t i = 0; i < workers.size(); ++i) {
        const pmatch::WorkerStats& w = workers[i];
        out << "  worker " << i << ": busy "
            << static_cast<double>(w.busy_ns) / 1e6 << " ms, "
            << w.activations << " activations, " << w.messages_sent
            << " messages sent, " << w.local_deliveries
            << " local, max mailbox depth " << w.max_mailbox_depth << "\n";
      }
      const double mean_busy =
          static_cast<double>(total_busy) /
          static_cast<double>(workers.empty() ? 1 : workers.size());
      const double skew =
          mean_busy > 0.0 ? static_cast<double>(max_busy) / mean_busy : 1.0;
      out << "measured busy skew: " << std::fixed << std::setprecision(2)
          << skew << std::defaultfloat
          << " (max/mean worker busy; `mpps stats` prints the simulated "
             "skew)\n";
    }
  }

  obs::ProfileReport profile_report;
  if (profile) {
    profile_report = profiler.report();
    if (!json) obs::print_profile_report(out, profile_report);
    if (!obs_out.trace_path.empty()) {
      // Measured worker timelines ride in the same Chrome trace as the
      // simulated replay below, on tids clear of the simulator's lanes.
      profiler.export_chrome_trace(tracer);
    }
  }

  std::vector<SweepOutcome> outcomes;
  if (obs_out.any() || args.find("--procs") != nullptr) {
    // Replay the program's match trace on the simulated machine and export
    // the run's timeline + metrics (rete.* counters above were recorded by
    // the live engine; sim.* come from this replay).  With a --procs list
    // the entries fan out across --jobs worker threads; the exports
    // describe the first entry.
    PipelineOptions pipeline;
    pipeline.interpreter.strategy = options.strategy;
    pipeline.interpreter.max_cycles = options.max_cycles;
    const PipelineResult recorded =
        record_trace(ops5::parse_program(source), path, pipeline);
    sim::SimConfig base_config;
    base_config.costs = sim::CostModel::paper_run(run_model);
    SweepOptions sweep_options;
    sweep_options.jobs = jobs;
    if (obs_out.any()) {
      sweep_options.metrics = &registry;
      sweep_options.tracer = &tracer;
    }
    std::vector<SweepScenario> scenarios;
    for (std::uint32_t procs : procs_list) {
      SweepScenario scenario;
      scenario.label = "p" + std::to_string(procs);
      scenario.trace = &recorded.trace;
      scenario.config = base_config;
      scenario.config.match_processors = procs;
      scenario.assignment = sim::Assignment::round_robin(
          recorded.trace.num_buckets, scenario.config.partitions());
      scenarios.push_back(std::move(scenario));
    }
    outcomes = SweepRunner(sweep_options).run(scenarios);
    if (!json) {
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        out << "simulated " << procs_list[i] << " match processors: "
            << "makespan " << outcomes[i].result.makespan.micros()
            << " us, speedup " << outcomes[i].speedup << "\n";
      }
    }
    obs_out.write(tracer, registry, outcomes.front().result,
                  json ? err : out);
  }

  if (json) {
    JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", kSchemaVersion);
    w.field("command", "run");
    w.field("program", path);
    w.field("outcome", outcome_name);
    w.field("cycles", static_cast<std::uint64_t>(result.cycles));
    w.field("firings", static_cast<std::uint64_t>(result.firings));
    if (match_threads > 0) {
      w.key("parallel");
      w.begin_object();
      w.field("threads", static_cast<std::uint64_t>(workers.size()));
      w.field("rounds", engine_rounds);
      w.key("workers");
      w.begin_array();
      for (std::size_t i = 0; i < workers.size(); ++i) {
        const pmatch::WorkerStats& ws = workers[i];
        w.begin_object();
        w.field("worker", static_cast<std::uint64_t>(i));
        w.field("busy_ns", ws.busy_ns);
        w.field("idle_ns", ws.idle_ns);
        w.field("activations", ws.activations);
        w.field("messages_sent", ws.messages_sent);
        w.field("local_deliveries", ws.local_deliveries);
        w.field("max_mailbox_depth", ws.max_mailbox_depth);
        w.field("mailbox_overflows", ws.mailbox_overflows);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    if (profile) {
      w.key("profile");
      json_profile_report(w, profile_report);
    }
    if (!outcomes.empty()) {
      w.key("simulated");
      w.begin_array();
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        json_sim_result(w, procs_list[i], run_model, outcomes[i].result,
                        outcomes[i].speedup);
      }
      w.end_array();
    }
    w.end_object();
  }
  return 0;
}

/// Peak resident set (VmHWM) in MiB, or -1 where /proc is unavailable.
double peak_rss_mb() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long kb = 0;
      std::istringstream fields(line.substr(6));
      fields >> kb;
      return static_cast<double>(kb) / 1024.0;
    }
  }
#endif
  return -1.0;
}

/// The serve load generator's payload: the program's top-level
/// `(make ...)` forms with constant slots — the wmes `load_initial_wmes`
/// would assert once, here re-asserted per transaction per session so the
/// workload actually exercises the program's own alpha/beta network.
std::vector<ops5::Wme> serve_payloads(const ops5::Program& program) {
  std::vector<ops5::Wme> out;
  for (const auto& make : program.initial_wmes) {
    std::vector<std::pair<Symbol, ops5::Value>> attrs;
    bool constant = true;
    for (const auto& [attr, term] : make.slots) {
      if (term.kind != ops5::Term::Kind::Constant) {
        constant = false;
        break;
      }
      attrs.emplace_back(attr, term.constant);
    }
    if (constant) out.emplace_back(make.wme_class, std::move(attrs));
  }
  return out;
}

int cmd_serve(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.positional();
  if (path.empty()) {
    err << "serve: missing program file\n";
    return 2;
  }
  const bool json = args.flag("--json");
  const auto sessions = int_flag<std::uint32_t>(args, "--sessions", 8);
  const auto transactions =
      int_flag<std::uint64_t>(args, "--transactions", 64);
  const auto seconds = int_flag<std::uint64_t>(args, "--seconds", 0);
  const auto window = int_flag<std::size_t>(args, "--wm-window", 32);
  const auto rss_ceiling =
      int_flag<std::uint64_t>(args, "--rss-ceiling-mb", 0);
  const auto seed = int_flag<std::uint64_t>(args, "--seed", 1, 0);
  const std::string metrics_path = args.value("--metrics-out", "");

  obs::Registry registry;
  serve::ServeOptions sopts;
  sopts.match.threads = int_flag<std::uint32_t>(args, "--match-threads", 2);
  sopts.admission_batch =
      int_flag<std::uint32_t>(args, "--admission-batch", 16);
  sopts.queue_capacity = int_flag<std::size_t>(args, "--queue-capacity", 256);
  sopts.max_sessions = sessions;
  sopts.metrics = &registry;

  const ops5::Program program = ops5::parse_program(read_file(path));
  std::vector<ops5::Wme> payloads = serve_payloads(program);
  if (payloads.empty()) {
    // No top-level makes: drive the queue anyway with an inert wme so the
    // latency path is still measured (it just matches nothing).
    payloads.emplace_back(
        Symbol::intern("mpps-serve-load"),
        std::vector<std::pair<Symbol, ops5::Value>>{
            {Symbol::intern("payload"), ops5::Value{1L}}});
  }

  serve::ServeEngine engine(program, sopts);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::seconds(static_cast<std::int64_t>(seconds));
  std::vector<std::string> failures(sessions);
  {
    // Closed-loop clients: each thread owns one session and submits its
    // next transaction when the previous one completes; fusion across
    // sessions comes from their natural overlap at the admission queue.
    std::vector<std::thread> clients;
    clients.reserve(sessions);
    for (std::uint32_t c = 0; c < sessions; ++c) {
      clients.emplace_back([&, c] {
        try {
          serve::SessionOptions sess;
          sess.label = "client" + std::to_string(c);
          serve::Session session = engine.open_session(sess);
          std::mt19937_64 rng(seed * 7919 + c);
          std::deque<WmeId> live;
          for (std::uint64_t t = 0;
               seconds > 0 ? std::chrono::steady_clock::now() < deadline
                           : t < transactions;
               ++t) {
            serve::Transaction tx;
            while (live.size() >= window) {
              tx.remove(live.front());
              live.pop_front();
            }
            tx.add(payloads[rng() % payloads.size()]);
            const serve::TxResult r = session.transact(std::move(tx));
            live.insert(live.end(), r.added.begin(), r.added.end());
          }
          session.close();
        } catch (const std::exception& e) {
          failures[c] = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const serve::ServeStats stats = engine.stats();
  const serve::LatencyReport latency = engine.latency_report();
  engine.shutdown();

  for (std::uint32_t c = 0; c < sessions; ++c) {
    if (!failures[c].empty()) {
      err << "serve: client" << c << " failed: " << failures[c] << "\n";
      return 1;
    }
  }
  const double rss_mb = peak_rss_mb();
  if (!json) {
    out << "served " << stats.sessions_opened << " sessions: "
        << stats.transactions << " transactions, " << stats.changes
        << " WM changes in " << stats.batches
        << " fused phases (max fan-in " << stats.max_fused
        << ", max queue depth " << stats.max_queue_depth << ")\n"
        << "activations: " << stats.activations << " (+"
        << stats.retractions << " retractions), cross-session deltas: "
        << stats.cross_session_deltas << "\n"
        << std::fixed << std::setprecision(1) << "latency: p50 "
        << latency.p50_us << " us, p95 " << latency.p95_us << " us, p99 "
        << latency.p99_us << " us, mean " << latency.mean_us
        << " us, max " << latency.max_us << " us\n"
        << "throughput: " << latency.tx_per_s << " tx/s, "
        << latency.changes_per_s << " changes/s, "
        << latency.activations_per_s << " activations/s over "
        << std::setprecision(2) << latency.wall_s << " s\n"
        << std::defaultfloat;
    if (rss_mb >= 0.0) {
      out << "peak rss: " << std::fixed << std::setprecision(1) << rss_mb
          << " MiB\n"
          << std::defaultfloat;
    }
  } else {
    JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", kSchemaVersion);
    w.field("command", "serve");
    w.field("program", path);
    w.key("serve");
    w.begin_object();
    w.field("sessions", static_cast<std::uint64_t>(stats.sessions_opened));
    w.field("match_threads", static_cast<std::uint64_t>(engine.threads()));
    w.field("transactions", stats.transactions);
    w.field("rejected", stats.rejected);
    w.field("changes", stats.changes);
    w.field("batches", stats.batches);
    w.field("max_fused", stats.max_fused);
    w.field("max_queue_depth", stats.max_queue_depth);
    w.field("activations", stats.activations);
    w.field("retractions", stats.retractions);
    w.field("cross_session_deltas", stats.cross_session_deltas);
    if (rss_mb >= 0.0) w.field("peak_rss_mb", rss_mb);
    w.end_object();
    w.key("latency");
    w.begin_object();
    w.field("wall_s", latency.wall_s);
    w.field("p50_us", latency.p50_us);
    w.field("p95_us", latency.p95_us);
    w.field("p99_us", latency.p99_us);
    w.field("mean_us", latency.mean_us);
    w.field("max_us", latency.max_us);
    w.field("tx_per_s", latency.tx_per_s);
    w.field("changes_per_s", latency.changes_per_s);
    w.field("activations_per_s", latency.activations_per_s);
    w.end_object();
    w.end_object();
  }
  if (!metrics_path.empty()) {
    std::ofstream file(metrics_path);
    if (!file) throw RuntimeError("cannot write '" + metrics_path + "'");
    registry.write_csv(file);
    (json ? err : out) << "wrote metrics to " << metrics_path << "\n";
  }
  if (rss_ceiling > 0 && rss_mb > static_cast<double>(rss_ceiling)) {
    err << "serve: peak rss " << rss_mb << " MiB exceeds --rss-ceiling-mb "
        << rss_ceiling << "\n";
    return 1;
  }
  return 0;
}

int cmd_trace(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.positional();
  if (path.empty()) {
    err << "trace: missing program file\n";
    return 2;
  }
  PipelineOptions options;
  options.interpreter.engine.num_buckets =
      int_flag<std::uint32_t>(args, "--buckets", 256);
  const PipelineResult result =
      record_trace_from_source(read_file(path), path, options);
  const std::string out_path = args.value("-o", "");
  if (out_path.empty()) {
    trace::write_trace(out, result.trace);
  } else {
    std::ofstream file(out_path);
    if (!file) throw RuntimeError("cannot write '" + out_path + "'");
    trace::write_trace(file, result.trace);
    out << "wrote " << result.trace.total_activations() << " activations ("
        << result.trace.cycles.size() << " cycles) to " << out_path << "\n";
  }
  return 0;
}

int cmd_stats(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.positional();
  if (path.empty()) {
    err << "stats: missing trace file\n";
    return 2;
  }
  const trace::Trace t = read_trace_file(path);
  const trace::TraceStats stats = trace::compute_stats(t);
  const bool json = args.flag("--json");

  // The paper's uneven-distribution diagnosis, automated: replay the trace
  // on the simulated machine for every --procs entry (fanned out across
  // --jobs worker threads) and summarize skew, traffic and hot buckets.
  const std::vector<std::uint32_t> procs_list =
      int_list_flag<std::uint32_t>(args, "--procs", "16", 1);
  const int run = parse_run_model(args, 1);
  const auto top_k = int_flag<std::size_t>(args, "--top", 8, 0);
  const sim::NetworkConfig network = parse_network(
      args, 1 + *std::max_element(procs_list.begin(), procs_list.end()));
  const ObsOutputs obs_out = ObsOutputs::from(args);
  obs::Registry registry;
  obs::Tracer tracer;
  SweepOptions sweep_options;
  sweep_options.jobs = int_flag<unsigned>(args, "--jobs", 0);
  if (obs_out.any()) {
    sweep_options.metrics = &registry;
    sweep_options.tracer = &tracer;
  }
  std::vector<SweepScenario> scenarios;
  for (std::uint32_t procs : procs_list) {
    SweepScenario scenario;
    scenario.label = "p" + std::to_string(procs);
    scenario.trace = &t;
    scenario.config.match_processors = procs;
    scenario.config.costs = sim::CostModel::paper_run(run);
    scenario.config.network = network;
    scenario.assignment = sim::Assignment::round_robin(
        t.num_buckets, scenario.config.partitions());
    scenarios.push_back(std::move(scenario));
  }
  const std::vector<SweepOutcome> outcomes =
      SweepRunner(sweep_options).run(scenarios);

  if (json) {
    JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", kSchemaVersion);
    w.field("command", "stats");
    w.field("trace", t.name);
    w.field("cycles", static_cast<std::uint64_t>(t.cycles.size()));
    w.key("activations");
    w.begin_object();
    w.field("left", stats.left);
    w.field("right", stats.right);
    w.field("total", stats.total());
    w.field("instantiations", stats.instantiations);
    w.field("left_pct", stats.left_pct());
    w.end_object();
    w.key("simulated");
    w.begin_array();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const sim::SimResult& result = outcomes[i].result;
      const obs::RunSummary summary = obs::summarize_run(t, result, top_k);
      w.begin_object();
      w.field("procs", procs_list[i]);
      w.field("run", run);
      w.field("makespan_us", result.makespan.micros());
      w.field("speedup", outcomes[i].speedup);
      w.field("messages", summary.messages);
      w.field("local_deliveries", summary.local_deliveries);
      w.key("busy_skew");
      w.begin_object();
      w.field("p50", summary.busy_skew.p50);
      w.field("p95", summary.busy_skew.p95);
      w.field("max", summary.busy_skew.max);
      w.field("mean", summary.busy_skew.mean);
      w.end_object();
      w.field("avg_proc_util_pct", summary.avg_processor_utilization_pct);
      w.key("hot_buckets");
      w.begin_array();
      for (const obs::HotBucket& hot : summary.hot_buckets) {
        w.begin_object();
        w.field("bucket", hot.bucket);
        w.field("activations", hot.activations);
        w.field("share_pct", hot.share_pct);
        w.end_object();
      }
      w.end_array();
      w.key("network");
      json_network(w, result.net);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  } else {
    TextTable table({"trace", "cycles", "left", "right", "total",
                     "instantiations", "left %"});
    table.row()
        .cell(t.name)
        .cell(static_cast<unsigned long>(t.cycles.size()))
        .cell(static_cast<unsigned long>(stats.left))
        .cell(static_cast<unsigned long>(stats.right))
        .cell(static_cast<unsigned long>(stats.total()))
        .cell(static_cast<unsigned long>(stats.instantiations))
        .cell(stats.left_pct(), 1);
    table.print(out);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      out << "\nsimulated run summary (" << procs_list[i]
          << " match processors):\n";
      const obs::RunSummary summary =
          obs::summarize_run(t, outcomes[i].result, top_k);
      obs::print_run_summary(out, summary);
      print_network_line(out, outcomes[i].result.net);
    }
  }
  obs_out.write_merged(tracer, registry, json ? err : out);
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.positional();
  if (path.empty()) {
    err << "simulate: missing trace file\n";
    return 2;
  }
  const trace::Trace t = read_trace_file(path);
  const bool json = args.flag("--json");

  const std::vector<std::uint32_t> procs_list =
      int_list_flag<std::uint32_t>(args, "--procs", "8", 1);

  sim::SimConfig config;
  config.match_processors = procs_list.front();
  const int run = parse_run_model(args, 1);
  config.costs = sim::CostModel::paper_run(run);
  const std::string mapping = enum_flag(args, "--mapping");
  if (mapping == "pairs") {
    config.mapping = sim::MappingMode::ProcessorPairs;
  }
  config.constant_test_processors = int_flag<std::uint32_t>(args, "--ct", 0, 0);
  config.conflict_set_processors = int_flag<std::uint32_t>(args, "--cs", 0, 0);
  const std::string termination = enum_flag(args, "--termination");
  if (termination == "ack") {
    config.termination = sim::TerminationModel::AckCounting;
  } else if (termination == "poll") {
    config.termination = sim::TerminationModel::BarrierPoll;
  }
  config.network = parse_network(
      args, 1 + *std::max_element(procs_list.begin(), procs_list.end()) +
                config.constant_test_processors +
                config.conflict_set_processors);

  const std::string assign = enum_flag(args, "--assign");
  const auto seed = int_flag<std::uint64_t>(args, "--seed", 1, 0);
  const auto jobs = int_flag<unsigned>(args, "--jobs", 0);

  const ObsOutputs obs_out = ObsOutputs::from(args);
  obs::Registry registry;
  obs::Tracer tracer;

  const auto write_json = [&](const std::vector<std::uint32_t>& procs,
                              const std::vector<const sim::SimResult*>& results,
                              const std::vector<double>& speedups) {
    JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", kSchemaVersion);
    w.field("command", "simulate");
    w.field("trace", t.name);
    w.field("mapping", mapping);
    w.field("assign", assign);
    w.field("termination", termination);
    w.key("results");
    w.begin_array();
    for (std::size_t i = 0; i < results.size(); ++i) {
      json_sim_result(w, procs[i], run, *results[i], speedups[i]);
    }
    w.end_array();
    w.end_object();
  };

  if (procs_list.size() == 1) {
    if (obs_out.any()) {
      config.metrics = &registry;
      config.tracer = &tracer;
    }
    const sim::SimResult result =
        sim::simulate(t, config, assignment_for(assign, t, config, seed));
    const double speedup =
        sim::speedup_ratio(sim::baseline_time(t), result.makespan);
    if (json) {
      write_json(procs_list, {&result}, {speedup});
    } else {
      TextTable table({"makespan (us)", "speedup", "messages", "local",
                       "network idle %", "avg proc util %"});
      table.row()
          .cell(result.makespan.micros(), 1)
          .cell(speedup, 2)
          .cell(static_cast<unsigned long>(result.messages))
          .cell(static_cast<unsigned long>(result.local_deliveries))
          .cell(100.0 * (1.0 - result.network_utilization()), 1)
          .cell(100.0 * result.avg_processor_utilization(), 1);
      table.print(out);
      print_network_line(out, result.net);
    }
    obs_out.write(tracer, registry, result, json ? err : out);
    return 0;
  }

  // A comma list sweeps the processor counts across worker threads; the
  // exports then hold the merged registry / merged timeline.
  SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  if (obs_out.any()) {
    sweep_options.metrics = &registry;
    sweep_options.tracer = &tracer;
  }
  std::vector<SweepScenario> scenarios;
  for (std::uint32_t procs : procs_list) {
    SweepScenario scenario;
    scenario.label = "p" + std::to_string(procs);
    scenario.trace = &t;
    scenario.config = config;
    scenario.config.match_processors = procs;
    scenario.assignment = assignment_for(assign, t, scenario.config, seed);
    scenarios.push_back(std::move(scenario));
  }
  const SweepRunner runner(sweep_options);
  const std::vector<SweepOutcome> outcomes = runner.run(scenarios);

  if (json) {
    std::vector<const sim::SimResult*> results;
    std::vector<double> speedups;
    for (const SweepOutcome& outcome : outcomes) {
      results.push_back(&outcome.result);
      speedups.push_back(outcome.speedup);
    }
    write_json(procs_list, results, speedups);
  } else {
    TextTable table({"procs", "makespan (us)", "speedup", "messages", "local",
                     "network idle %", "avg proc util %"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const sim::SimResult& result = outcomes[i].result;
      table.row()
          .cell(static_cast<unsigned long>(procs_list[i]))
          .cell(result.makespan.micros(), 1)
          .cell(outcomes[i].speedup, 2)
          .cell(static_cast<unsigned long>(result.messages))
          .cell(static_cast<unsigned long>(result.local_deliveries))
          .cell(100.0 * (1.0 - result.network_utilization()), 1)
          .cell(100.0 * result.avg_processor_utilization(), 1);
    }
    table.print(out);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].result.net.kind != sim::NetKind::Constant) {
        out << "p" << procs_list[i] << " ";
        print_network_line(out, outcomes[i].result.net);
      }
    }
    out << "swept " << outcomes.size() << " configurations on "
        << runner.jobs() << " worker thread(s)\n";
  }
  obs_out.write_merged(tracer, registry, json ? err : out);
  return 0;
}

/// `sweep` — fan a (processors x overhead-runs) grid across worker
/// threads and print the per-run speedup columns.  Scenario order (and
/// thus every byte of the output) is fixed regardless of --jobs.
int cmd_sweep(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.positional();
  if (path.empty()) {
    err << "sweep: missing trace file\n";
    return 2;
  }
  const trace::Trace t = read_trace_file(path);
  const bool json = args.flag("--json");

  const std::vector<std::uint32_t> procs =
      int_list_flag<std::uint32_t>(args, "--procs", "2,4,8,16,32", 1);
  // Overhead runs: 0 = zero-overhead cost model, 1..4 = the paper's runs.
  const std::vector<int> runs =
      int_list_flag<int>(args, "--runs", "1,2,3,4", 0, 4);

  const bool pairs = enum_flag(args, "--mapping") == "pairs";
  const std::string assign = enum_flag(args, "--assign");
  const auto seed = int_flag<std::uint64_t>(args, "--seed", 1, 0);
  const sim::NetworkConfig network = parse_network(
      args, 1 + *std::max_element(procs.begin(), procs.end()));

  std::vector<SweepScenario> scenarios;
  scenarios.reserve(procs.size() * runs.size());
  for (std::uint32_t p : procs) {
    for (int run : runs) {
      SweepScenario scenario;
      scenario.label = "p";
      scenario.label += std::to_string(p);
      scenario.label += "/r";
      scenario.label += std::to_string(run);
      scenario.trace = &t;
      scenario.config.match_processors = p;
      if (pairs) scenario.config.mapping = sim::MappingMode::ProcessorPairs;
      scenario.config.costs = sim::CostModel::paper_run(run);
      scenario.config.network = network;
      scenario.assignment = assignment_for(assign, t, scenario.config, seed);
      scenarios.push_back(std::move(scenario));
    }
  }

  obs::Registry registry;
  obs::Tracer tracer;
  SweepOptions options;
  options.jobs = int_flag<unsigned>(args, "--jobs", 0);
  options.check_invariants = true;
  const ObsOutputs obs_out = ObsOutputs::from(args);
  if (obs_out.any()) {
    options.metrics = &registry;
    options.tracer = &tracer;
  }
  const SweepRunner runner(options);
  const std::vector<SweepOutcome> outcomes = runner.run(scenarios);

  if (json) {
    JsonWriter w(out);
    w.begin_object();
    w.field("schema_version", kSchemaVersion);
    w.field("command", "sweep");
    w.field("trace", t.name);
    w.field("mapping", pairs ? "pairs" : "merged");
    w.field("assign", assign);
    w.key("results");
    w.begin_array();
    std::size_t index = 0;
    for (std::uint32_t p : procs) {
      for (int run : runs) {
        json_sim_result(w, p, run, outcomes[index].result,
                        outcomes[index].speedup);
        ++index;
      }
    }
    w.end_array();
    w.end_object();
  } else {
    std::vector<std::string> headers{"procs"};
    for (int run : runs) {
      headers.push_back("run " + std::to_string(run) + " speedup");
    }
    TextTable table(std::move(headers));
    std::size_t index = 0;
    for (std::uint32_t p : procs) {
      TextTable& row = table.row();
      row.cell(static_cast<unsigned long>(p));
      for (std::size_t r = 0; r < runs.size(); ++r) {
        row.cell(outcomes[index++].speedup, 2);
      }
    }
    if (args.flag("--csv")) {
      table.print_csv(out);
    } else {
      table.print(out);
    }
    out << "swept " << outcomes.size() << " configurations on "
        << runner.jobs() << " worker thread(s)\n";
  }
  obs_out.write_merged(tracer, registry, json ? err : out);
  return 0;
}

/// `selfcheck` — the differential + metamorphic self-test of the
/// simulator (docs/TESTING.md).  Deterministic for a fixed --seed.
int cmd_selfcheck(const Args& args, std::ostream& out, std::ostream& err) {
  SelfCheckOptions options;
  options.rounds = int_flag<std::uint64_t>(args, "--rounds", 200);
  options.seed = int_flag<std::uint64_t>(args, "--seed", 1, 0);
  try {
    options.fault = parse_fault(args.value("--fault", "none"));
  } catch (const RuntimeError& e) {
    throw UsageError(std::string("--fault: ") + e.what());
  }
  obs::Registry registry;
  options.metrics = &registry;
  options.log = &out;

  const SelfCheckResult result = run_selfcheck(options);
  (result.ok() ? out : err) << result.summary() << "\n";

  const std::string metrics_path = args.value("--metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream sink(metrics_path);
    if (!sink) throw RuntimeError("cannot write '" + metrics_path + "'");
    registry.write_csv(sink);
    out << "wrote metrics to " << metrics_path << "\n";
  }
  return result.ok() ? 0 : 1;
}

/// `check` — the pmatch model checker (docs/TESTING.md): schedule-
/// controlled runs of the parallel engine against the serial oracle.
int cmd_check(const Args& args, std::ostream& out, std::ostream& err) {
  const std::vector<mc::Scenario> corpus = mc::builtin_corpus();
  if (args.flag("--list")) {
    for (const mc::Scenario& s : corpus) {
      out << s.name << ": " << s.description << " (" << s.phases.size()
          << " phases, " << s.change_count() << " changes, " << s.threads
          << " threads)\n";
    }
    return 0;
  }

  mc::CheckOptions options;
  const bool fuzz = args.find("--schedules") != nullptr;
  if (args.flag("--exhaustive") && fuzz) {
    throw UsageError(
        "check: --exhaustive and --schedules are mutually exclusive");
  }
  if (fuzz) {
    options.mode = mc::CheckOptions::Mode::Random;
    options.schedules = int_flag<std::uint64_t>(args, "--schedules", 64);
  }
  options.seed = int_flag<std::uint64_t>(args, "--seed", 1, 0);
  options.max_schedules = int_flag<std::uint64_t>(args, "--max-schedules",
                                                  options.max_schedules);
  try {
    options.fault = mc::parse_fault(args.value("--fault", "none"));
  } catch (const RuntimeError& e) {
    throw UsageError(std::string("--fault: ") + e.what());
  }

  const std::string scenario_name = args.value("--scenario", "");
  std::vector<mc::Scenario> selected;
  if (!scenario_name.empty()) {
    const mc::Scenario* s = mc::find_scenario(corpus, scenario_name);
    if (s == nullptr) {
      throw UsageError("check: unknown scenario '" + scenario_name +
                       "' (see 'mpps check --list')");
    }
    selected.push_back(*s);
  } else {
    selected = corpus;
  }

  const std::string replay_raw = args.value("--replay", "");
  if (!replay_raw.empty()) {
    if (scenario_name.empty()) {
      throw UsageError(
          "check: --replay needs --scenario (a schedule ID only means "
          "something relative to one scenario)");
    }
    options.mode = mc::CheckOptions::Mode::Replay;
    try {
      options.replay = mc::ScheduleId::parse(replay_raw);
    } catch (const RuntimeError& e) {
      throw UsageError(std::string("--replay: ") + e.what());
    }
    out << "replaying schedule " << options.replay.to_string() << " on "
        << scenario_name << "\n";
  }

  obs::Registry registry;
  const std::string metrics_path = args.value("--metrics-out", "");
  if (!metrics_path.empty()) options.metrics = &registry;

  const mc::CheckReport report = mc::check_corpus(selected, options);
  mc::print_report(report, out);
  if (options.fault != mc::Fault::None) {
    out << "fault '" << mc::to_string(options.fault)
        << "' injected: a failure above is the expected outcome\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream sink(metrics_path);
    if (!sink) throw RuntimeError("cannot write '" + metrics_path + "'");
    registry.write_csv(sink);
    out << "wrote metrics to " << metrics_path << "\n";
  }
  if (!report.ok()) {
    err << "check: " << (selected.size() == 1 ? "scenario" : "corpus")
        << " FAILED (see replay hints above)\n";
    return 1;
  }
  return 0;
}

int cmd_slice(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.positional();
  if (path.empty()) {
    err << "slice: missing trace file\n";
    return 2;
  }
  const trace::Trace t = read_trace_file(path);
  const auto first = int_flag<std::size_t>(args, "--from", 0, 0);
  const auto count = int_flag<std::size_t>(args, "--cycles", 4);
  const trace::Trace section = trace::slice(t, first, count);
  const std::string out_path = args.value("-o", "");
  if (out_path.empty()) {
    trace::write_trace(out, section);
  } else {
    std::ofstream sink(out_path);
    if (!sink) throw RuntimeError("cannot write '" + out_path + "'");
    trace::write_trace(sink, section);
    out << "wrote " << section.total_activations() << " activations ("
        << count << " cycles) to " << out_path << "\n";
  }
  return 0;
}

int cmd_sections(const Args& args, std::ostream& out, std::ostream&) {
  const std::string dir = args.value("-o", ".");
  for (const auto& [name, section] :
       {std::pair<const char*, trace::Trace>{"rubik",
                                             trace::make_rubik_section()},
        {"tourney", trace::make_tourney_section()},
        {"weaver", trace::make_weaver_section()}}) {
    const std::string path = dir + "/" + name + ".trace";
    std::ofstream file(path);
    if (!file) throw RuntimeError("cannot write '" + path + "'");
    trace::write_trace(file, section);
    out << "wrote " << path << " (" << section.total_activations()
        << " activations)\n";
  }
  return 0;
}

}  // namespace

std::vector<CliCommand> cli_commands() {
  std::vector<CliCommand> out;
  for (const CommandSpec& cmd : commands()) {
    CliCommand info;
    info.name = cmd.name;
    info.operand = cmd.operand != nullptr ? cmd.operand : "";
    for (const FlagSpec& flag : cmd.flags) {
      CliFlag f;
      f.name = flag.name;
      f.value_name = flag.value != nullptr ? flag.value : "";
      f.sample = flag.sample != nullptr ? flag.sample : "";
      info.flags.push_back(std::move(f));
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::string cli_usage() { return usage_text(); }

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    err << usage_text();
    return 2;
  }
  const std::string& command = args[0];
  if (command == "help" || command == "--help") {
    out << usage_text();
    return 0;
  }
  const CommandSpec* spec = nullptr;
  for (const CommandSpec& candidate : commands()) {
    if (command == candidate.name) {
      spec = &candidate;
      break;
    }
  }
  if (spec == nullptr) {
    err << "unknown command '" << command << "'\n" << usage_text();
    return 2;
  }
  try {
    const std::vector<std::string> tail(args.begin() + 1, args.end());
    const Args cursor(tail, *spec);
    if (command == "run") return cmd_run(cursor, out, err);
    if (command == "serve") return cmd_serve(cursor, out, err);
    if (command == "trace") return cmd_trace(cursor, out, err);
    if (command == "stats") return cmd_stats(cursor, out, err);
    if (command == "simulate") return cmd_simulate(cursor, out, err);
    if (command == "sweep") return cmd_sweep(cursor, out, err);
    if (command == "selfcheck") return cmd_selfcheck(cursor, out, err);
    if (command == "check") return cmd_check(cursor, out, err);
    if (command == "sections") return cmd_sections(cursor, out, err);
    return cmd_slice(cursor, out, err);
  } catch (const UsageError& e) {
    err << "usage error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mpps::core
