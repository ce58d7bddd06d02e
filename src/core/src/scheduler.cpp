#include "fhg/core/scheduler.hpp"

namespace fhg::core {

Scheduler::~Scheduler() = default;

std::optional<std::uint64_t> Scheduler::phase_of(graph::NodeId) const { return std::nullopt; }

std::vector<PeriodPhaseRow> Scheduler::period_phase_rows() const {
  if (!perfectly_periodic()) {
    return {};
  }
  const graph::NodeId n = num_nodes();
  std::vector<PeriodPhaseRow> rows(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto period = period_of(v);
    const auto phase = phase_of(v);
    if (!period || !phase || *period == 0 || *phase == 0) {
      return {};
    }
    rows[v] = PeriodPhaseRow{.period = *period, .phase = *phase};
  }
  return rows;
}

void Scheduler::advance_to(std::uint64_t t) {
  while (current_holiday() < t) {
    (void)next_holiday();
  }
}

}  // namespace fhg::core
