#include "src/replay.hpp"

#include <algorithm>

#include "src/spans.hpp"
#include "src/stats.hpp"

namespace perfbench {

namespace rete = mpps::rete;

ReplayResult replay_conflict_set(
    const std::vector<CsOp>& ops,
    const std::function<std::size_t(mpps::ProductionId)>& specificity_of,
    rete::Strategy strategy) {
  ReplayResult r;
  rete::ConflictSet cs(specificity_of);
  std::size_t i = 0;
  while (i < ops.size()) {
    const CsOp::Kind kind = ops[i].kind;
    std::size_t end = i;
    while (end < ops.size() && ops[end].kind == kind) ++end;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = i; k < end; ++k) {
      const CsOp& op = ops[k];
      if (kind == CsOp::Kind::Add) {
        cs.add(op.inst);
      } else if (kind == CsOp::Kind::Remove) {
        if (!cs.remove(op.inst)) ++r.failed_removes;
      } else {
        const auto picked = cs.select(strategy);
        if (picked.has_value()) cs.mark_fired(*picked);
        if (picked.has_value() != op.fired ||
            (op.fired && !(*picked == op.inst))) {
          ++r.select_mismatches;
        }
      }
    }
    const std::uint64_t ns = ns_between(start, Clock::now());
    const std::uint64_t count = end - i;
    if (kind == CsOp::Kind::Add) {
      r.adds += count;
      r.add_ns += ns;
    } else if (kind == CsOp::Kind::Remove) {
      r.removes += count;
      r.remove_ns += ns;
    } else {
      r.selects += count;
      r.select_ns += ns;
    }
    i = end;
  }
  r.final_set = cs.all();
  return r;
}

ReplayCosts replay_costs(
    const std::vector<CsOp>& ops,
    const std::function<std::size_t(mpps::ProductionId)>& specificity_of,
    rete::Strategy strategy, int reps) {
  const auto per_op = [](std::uint64_t ns, std::uint64_t n) {
    return static_cast<double>(ns) / static_cast<double>(std::max<std::uint64_t>(1, n));
  };
  std::vector<double> add;
  std::vector<double> remove;
  std::vector<double> select;
  std::vector<double> total;
  ReplayCosts costs;
  for (int rep = 0; rep < reps; ++rep) {
    ReplayResult r = replay_conflict_set(ops, specificity_of, strategy);
    add.push_back(per_op(r.add_ns, r.adds));
    remove.push_back(per_op(r.remove_ns, r.removes));
    select.push_back(per_op(r.select_ns, r.selects));
    total.push_back(static_cast<double>(r.total_ns()));
    if (rep == 0) costs.first = std::move(r);
  }
  costs.add_ns = median(add);
  costs.remove_ns = median(remove);
  costs.select_ns = median(select);
  costs.total_ns = median(total);
  return costs;
}

bool same_instantiations(std::vector<rete::Instantiation> a,
                         std::vector<rete::Instantiation> b) {
  const auto less = [](const rete::Instantiation& x,
                       const rete::Instantiation& y) {
    if (x.production != y.production) return x.production < y.production;
    return x.token.wmes < y.token.wmes;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return a == b;
}

}  // namespace perfbench
