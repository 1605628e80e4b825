// The paper's cost model (Section 4) and message-passing overhead settings
// (Table 5-1).
#pragma once

#include <string>

#include "src/common/error.hpp"
#include "src/common/simtime.hpp"

namespace mpps::sim {

struct CostModel {
  /// Evaluating all constant-test nodes, paid by EVERY match processor at
  /// the start of each MRA cycle (work is duplicated across processors).
  SimTime constant_tests = SimTime::us(30);
  /// Adding or deleting one left token (32 us) / right token (16 us).
  SimTime left_token = SimTime::us(32);
  SimTime right_token = SimTime::us(16);
  /// Comparing a token with the opposite memory, per successor generated.
  SimTime per_successor = SimTime::us(16);
  /// Interconnection-network latency per message (Nectar: 0.5 us).
  SimTime wire_latency = SimTime::half_us(1);
  /// Message-processing overheads (Table 5-1 varies these).
  SimTime send_overhead{};
  SimTime recv_overhead{};
  /// True: the cycle-start wme packet is a hardware broadcast (one send on
  /// the control processor).  False: one send per match processor,
  /// serialized on the control processor.
  bool hardware_broadcast = true;
  /// Control-processor cost per cycle for conflict-resolution + act.  The
  /// paper's match-focused simulation charges none.
  SimTime resolve_cost{};

  [[nodiscard]] SimTime token_cost(bool left) const {
    return left ? left_token : right_token;
  }

  /// Figure 5-1's setting: zero latency, zero message-processing overhead.
  static CostModel zero_overhead() {
    CostModel m;
    m.wire_latency = SimTime::ns(0);
    return m;
  }

  /// Table 5-1's Run 1..4: latency 0.5 us; send/recv overheads
  /// 0/0, 5/3, 10/6, 20/12 us.  Run 0 is `zero_overhead()`; any other
  /// run is a UsageError naming `run`.
  static CostModel paper_run(int run) {
    CostModel m;
    switch (run) {
      case 0: return zero_overhead();
      case 1: break;
      case 2:
        m.send_overhead = SimTime::us(5);
        m.recv_overhead = SimTime::us(3);
        break;
      case 3:
        m.send_overhead = SimTime::us(10);
        m.recv_overhead = SimTime::us(6);
        break;
      case 4:
        m.send_overhead = SimTime::us(20);
        m.recv_overhead = SimTime::us(12);
        break;
      default:
        throw UsageError("CostModel: run must be in 0..4, got " +
                         std::to_string(run));
    }
    return m;
  }
};

}  // namespace mpps::sim
