#include "fhg/dynamic/adapter.hpp"

#include <stdexcept>
#include <string>

namespace fhg::dynamic {

DynamicSchedulerAdapter::DynamicSchedulerAdapter(const graph::Graph& initial,
                                                 coding::CodeFamily family,
                                                 std::uint32_t deletion_slack)
    : dynamic_(initial), scheduler_(dynamic_, family, deletion_slack) {}

DynamicSchedulerAdapter::DynamicSchedulerAdapter(const graph::Graph& initial,
                                                 const DynamicOptions& options)
    : dynamic_(initial),
      scheduler_(dynamic_, options.family, options.deletion_slack, options.parallel_crossover,
                 options.jp_seed),
      bulk_threshold_(options.bulk_threshold) {}

const graph::Graph& DynamicSchedulerAdapter::graph() const noexcept {
  if (!current_) {
    current_ = dynamic_.snapshot();
  }
  return *current_;
}

std::vector<core::PeriodPhaseRow> DynamicSchedulerAdapter::period_phase_rows() const {
  std::vector<core::PeriodPhaseRow> rows(dynamic_.num_nodes());
  for (graph::NodeId v = 0; v < dynamic_.num_nodes(); ++v) {
    const coding::ScheduleSlot slot = scheduler_.slot_of(v);
    rows[v] = {slot.period(), slot.first_holiday()};
  }
  return rows;
}

ApplyResult DynamicSchedulerAdapter::apply_one(const MutationCommand& cmd) {
  ApplyResult result;
  switch (cmd.op) {
    case MutationOp::kInsertEdge:
      if (!dynamic_.has_edge(cmd.u, cmd.v)) {
        // insert_edge validates endpoints (throws on self-loop / range).
        result.recolor = scheduler_.insert_edge(cmd.u, cmd.v);
        result.applied = true;
      }
      return result;
    case MutationOp::kEraseEdge:
      if (cmd.u >= dynamic_.num_nodes() || cmd.v >= dynamic_.num_nodes() || cmd.u == cmd.v) {
        throw std::invalid_argument("DynamicSchedulerAdapter: bad erase_edge endpoints " +
                                    std::to_string(cmd.u) + "-" + std::to_string(cmd.v));
      }
      if (dynamic_.has_edge(cmd.u, cmd.v)) {
        result.recolor = scheduler_.erase_edge(cmd.u, cmd.v);
        result.applied = true;
      }
      return result;
    case MutationOp::kAddNode:
      (void)scheduler_.add_node();
      result.applied = true;
      return result;
  }
  throw std::invalid_argument("DynamicSchedulerAdapter: unknown mutation op");
}

ApplyResult DynamicSchedulerAdapter::apply(MutationCommand cmd, bool restamp) {
  if (restamp) {
    cmd.holiday = scheduler_.current_holiday();
  }
  const ApplyResult result = apply_one(cmd);
  if (result.applied) {
    log_.push_back(cmd);
    batches_.push_back({1, false});
    ++version_;
    current_.reset();
  }
  return result;
}

void DynamicSchedulerAdapter::validate(std::span<const MutationCommand> commands) const {
  // Track the node count across the batch so an add_node legitimately widens
  // the range for later commands.
  std::uint64_t n = dynamic_.num_nodes();
  for (const MutationCommand& cmd : commands) {
    switch (cmd.op) {
      case MutationOp::kInsertEdge:
      case MutationOp::kEraseEdge:
        if (cmd.u >= n || cmd.v >= n || cmd.u == cmd.v) {
          throw std::invalid_argument("DynamicSchedulerAdapter: bad edge endpoints " +
                                      std::to_string(cmd.u) + "-" + std::to_string(cmd.v) +
                                      " (n=" + std::to_string(n) + ")");
        }
        break;
      case MutationOp::kAddNode:
        ++n;
        break;
    }
  }
}

BatchResult DynamicSchedulerAdapter::apply_bulk(std::span<const MutationCommand> commands,
                                                bool restamp) {
  BatchResult result;
  result.bulk = true;
  const std::uint64_t now = scheduler_.current_holiday();
  const BulkOutcome outcome = scheduler_.bulk_apply(commands);
  result.jp = outcome.jp;
  for (std::size_t i = 0; i < commands.size(); ++i) {
    if (outcome.applied[i] == 0) {
      continue;
    }
    MutationCommand cmd = commands[i];
    if (restamp) {
      cmd.holiday = now;
    }
    log_.push_back(cmd);
    ++version_;
    ++result.applied;
  }
  if (result.applied > 0) {
    batches_.push_back({static_cast<std::uint32_t>(result.applied), true});
    current_.reset();
  }
  return result;
}

BatchResult DynamicSchedulerAdapter::apply_batch(std::span<const MutationCommand> commands) {
  // Validate up front so a malformed command cannot leave a half-applied
  // batch: after this, nothing below can throw.
  validate(commands);
  if (bulk_threshold_ > 0 && commands.size() >= bulk_threshold_) {
    return apply_bulk(commands, /*restamp=*/true);
  }
  BatchResult result;
  const std::uint64_t now = scheduler_.current_holiday();
  for (MutationCommand cmd : commands) {
    cmd.holiday = now;
    if (apply_one(cmd).applied) {
      log_.push_back(cmd);
      ++version_;
      ++result.applied;
    }
  }
  if (result.applied > 0) {
    batches_.push_back({static_cast<std::uint32_t>(result.applied), false});
    current_.reset();
  }
  return result;
}

void DynamicSchedulerAdapter::replay_log(std::span<const MutationCommand> log,
                                         std::span<const BatchRecord> records) {
  validate(log);
  std::size_t total = 0;
  for (const BatchRecord& record : records) {
    total += record.size;
  }
  if (!records.empty() && total != log.size()) {
    throw std::invalid_argument("DynamicSchedulerAdapter: batch records cover " +
                                std::to_string(total) + " commands, log has " +
                                std::to_string(log.size()));
  }
  std::size_t offset = 0;
  const auto replay_segment = [this, log](std::size_t lo, std::size_t size, bool bulk) {
    const auto segment = log.subspan(lo, size);
    if (bulk) {
      // The whole batch landed at one holiday on the live path; land there
      // first, then re-run the identical bulk policy with stamps kept.
      scheduler_.skip_to(segment.front().holiday);
      (void)apply_bulk(segment, /*restamp=*/false);
      return;
    }
    for (const MutationCommand& cmd : segment) {
      // Land each command at its persisted holiday: the happy sets in
      // between are pure functions of the slots, so an O(1) skip is exact.
      scheduler_.skip_to(cmd.holiday);
      if (apply_one(cmd).applied) {
        log_.push_back(cmd);
        ++version_;
      }
    }
    batches_.push_back({static_cast<std::uint32_t>(size), false});
  };
  if (records.empty()) {
    // Pre-segmentation logs (snapshot v2): every command was logged from
    // the per-command path, one batch each.
    for (std::size_t i = 0; i < log.size(); ++i) {
      replay_segment(i, 1, false);
    }
  } else {
    for (const BatchRecord& record : records) {
      replay_segment(offset, record.size, record.bulk);
      offset += record.size;
    }
  }
  current_.reset();
}

BatchResult DynamicSchedulerAdapter::replay_batch(std::span<const MutationCommand> commands,
                                                  BatchRecord record) {
  if (record.size != commands.size()) {
    throw std::invalid_argument("DynamicSchedulerAdapter: replay record covers " +
                                std::to_string(record.size) + " commands, segment has " +
                                std::to_string(commands.size()));
  }
  validate(commands);
  BatchResult result;
  if (record.bulk) {
    if (commands.empty()) {
      throw std::invalid_argument("DynamicSchedulerAdapter: empty bulk replay batch");
    }
    // Land at the batch's holiday, then re-run the identical bulk policy
    // with the persisted stamps kept (mirrors replay_log's bulk segment).
    scheduler_.skip_to(commands.front().holiday);
    result = apply_bulk(commands, /*restamp=*/false);
  } else {
    for (const MutationCommand& cmd : commands) {
      scheduler_.skip_to(cmd.holiday);
      if (apply_one(cmd).applied) {
        log_.push_back(cmd);
        ++version_;
        ++result.applied;
      }
    }
    if (result.applied > 0) {
      batches_.push_back({static_cast<std::uint32_t>(result.applied), false});
      current_.reset();
    }
  }
  // Every logged command applied once on the live path and must apply again:
  // replay is deterministic over identical state, so a shortfall means the
  // log and the restored state have diverged.
  if (result.applied != commands.size()) {
    throw std::runtime_error("DynamicSchedulerAdapter: replay batch applied " +
                             std::to_string(result.applied) + " of " +
                             std::to_string(commands.size()) + " commands (state diverged)");
  }
  return result;
}

}  // namespace fhg::dynamic
