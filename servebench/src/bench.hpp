#pragma once

/// \file bench.hpp
/// The parts of one benchmark run that follow the timed phases: the output
/// checks, the fairness audit, and the isolated waterfall rows of the traced
/// run.

#include <cstdint>
#include <string>
#include <vector>

#include "fhg/engine/engine.hpp"
#include "fhg/workload/scenario.hpp"
#include "loadgen.hpp"
#include "workload.hpp"

namespace servebench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Everything a run built, for the untimed steps after the load phases.
struct RunState {
  const WorkloadDef& def;
  const fhg::workload::ScenarioSpec& spec;
  Stack& stack;
  const FrameSet& frames;
  const LoadGen& load;
  const Blobs& blobs;
};

/// Compares every answer the load generator received with a direct engine
/// call (a twin engine replaying each tenant's requests in order, on
/// write-mix), and the final engine state with the reference.  Appends one
/// line per failed check to `problems`.
void check_outputs(const RunState& run, std::vector<std::string>& problems);

/// The paper's gap-bound guard: a fixed sample of tenants, stepped one
/// horizon, then audited.
struct AuditResult {
  std::uint64_t worst_gap = 0;         ///< largest observed gap over the sample
  std::uint64_t bound_violations = 0;  ///< nodes whose gap passed their scheduler's bound
};
[[nodiscard]] AuditResult audit_fleet(const fhg::workload::ScenarioSpec& spec,
                                      fhg::engine::Engine& engine);

/// The isolated rows of the layer waterfall, measured on the run's own
/// fleet and frames: engine query paths, codec, synchronous client
/// roundtrips, snapshot-view rebuild, instance snapshot/adopt and the Elias
/// coder.  Appends to `metrics`; failed calls go to `problems`.
void waterfall_rows(const RunState& run, Metrics& metrics, std::vector<std::string>& problems);

}  // namespace servebench
