#include "src/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double order_stat(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("order_stat: no samples");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("order_stat: q outside [0, 1]");
  }
  const auto n = static_cast<double>(samples.size());
  // The epsilon keeps q * n from rounding up past an exact integer rank
  // (0.99 * 1000 is not exactly 990 in binary floating point).
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double median(std::vector<double> samples) {
  return order_stat(std::move(samples), 0.5);
}

WindowSummary summarize(const Window& window) {
  const auto n = static_cast<double>(window.op_us.size());
  const double k = window.slowdown;
  return {window.work / window.wall_s * k,
          order_stat(window.op_us, 0.50) / k,
          order_stat(window.op_us, 0.99) / k,
          window.cpu_s * 1e6 / n / k,
          window.op_us.size(),
          k};
}

WindowSummary as_measured(WindowSummary w) {
  const double k = w.slowdown;
  w.work_per_s /= k;
  w.op_p50_us *= k;
  w.op_p99_us *= k;
  w.cpu_us_per_op *= k;
  w.slowdown = 1.0;
  return w;
}

WindowSummary window_medians(const std::vector<WindowSummary>& windows) {
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> cpu;
  std::vector<double> slowdown;
  WindowSummary out;
  for (const WindowSummary& w : windows) {
    rate.push_back(w.work_per_s);
    p50.push_back(w.op_p50_us);
    p99.push_back(w.op_p99_us);
    cpu.push_back(w.cpu_us_per_op);
    slowdown.push_back(w.slowdown);
    out.ops += w.ops;
  }
  out.work_per_s = median(rate);
  out.op_p50_us = median(p50);
  out.op_p99_us = median(p99);
  out.cpu_us_per_op = median(cpu);
  out.slowdown = median(slowdown);
  return out;
}

}  // namespace perfbench
