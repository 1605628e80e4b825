#include "src/host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

HostSnapshot host_snapshot() {
  HostSnapshot snap;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream fields(line.substr(4));
    std::uint64_t value = 0;
    for (int i = 0; fields >> value; ++i) {
      // user nice system idle iowait irq softirq steal guest guest_nice;
      // guest time is already counted in user, so stop after steal.
      if (i > 7) break;
      snap.total_ticks += value;
      if (i == 7) snap.steal_ticks = value;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  snap.involuntary_switches = usage.ru_nivcsw;
  return snap;
}

double steal_pct(const HostSnapshot& begin, const HostSnapshot& end) {
  const std::uint64_t total = end.total_ticks - begin.total_ticks;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(end.steal_ticks -
                                                  begin.steal_ticks) /
                          static_cast<double>(total);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) out.push_back(static_cast<int>(cpu));
  }
  return out;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(cpu), &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

void print_host_record(std::ostream& out, const HostSnapshot& begin,
                       const HostSnapshot& end) {
  const std::uint64_t steal = end.steal_ticks - begin.steal_ticks;
  const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  out << "host nproc " << std::thread::hardware_concurrency() << "\n"
      << "host compiler " << __VERSION__ << "\n"
      << "host build_type " << PERFBENCH_BUILD_TYPE << "\n"
      << "host cpu_steal_s " << static_cast<double>(steal) * tick_s << " ("
      << steal_pct(begin, end) << " % of all CPU time over the run)\n"
      << "host involuntary_context_switches "
      << end.involuntary_switches - begin.involuntary_switches << "\n";
}

}  // namespace perfbench
