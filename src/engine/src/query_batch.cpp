#include "fhg/engine/query_batch.hpp"

#include <stdexcept>
#include <string>

#include "fhg/engine/registry.hpp"

namespace fhg::engine {

std::shared_ptr<const QuerySnapshot> QuerySnapshot::build(const InstanceRegistry& registry,
                                                          std::uint64_t epoch) {
  auto snapshot = std::shared_ptr<QuerySnapshot>(new QuerySnapshot());
  snapshot->epoch_ = epoch;
  snapshot->instances_ = registry.all_sorted();
  const std::size_t n = snapshot->instances_.size();
  snapshot->names_.reserve(n);
  snapshot->tables_.reserve(n);
  snapshot->dynamic_.reserve(n);
  snapshot->num_nodes_.reserve(n);
  snapshot->ids_.reserve(n);
  for (const auto& instance : snapshot->instances_) {
    snapshot->names_.push_back(instance->name());
    snapshot->ids_.emplace(snapshot->names_.back(),
                           static_cast<std::uint32_t>(snapshot->names_.size() - 1));
    const bool dynamic = instance->dynamic();
    snapshot->dynamic_.push_back(dynamic ? 1 : 0);
    // Dynamic tenants republish in place, so their table (and node count)
    // is read through the instance at query time instead.  Aperiodic
    // tenants are never dynamic; their recipe graph is immutable.
    snapshot->tables_.push_back(dynamic ? nullptr : instance->period_table_shared());
    const auto& table = snapshot->tables_.back();
    snapshot->num_nodes_.push_back(table ? table->num_nodes() : instance->graph().num_nodes());
  }
  return snapshot;
}

std::optional<std::uint32_t> QuerySnapshot::id_of(std::string_view name) const {
  const auto it = ids_.find(name);  // transparent: no temporary string
  if (it == ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void QuerySnapshot::throw_bad_node(std::uint32_t id, graph::NodeId node) const {
  throw std::out_of_range("QuerySnapshot: probe node " + std::to_string(node) +
                          " out of range for instance '" + std::string(names_[id]) + "'");
}

std::vector<std::uint32_t> QuerySnapshot::sorted_order(std::span<const Probe> probes) const {
  const auto n = static_cast<std::uint32_t>(instances_.size());
  // Histogram pass doubles as validation, so the kernels index unchecked.
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(n) + 1, 0);
  for (const Probe& probe : probes) {
    if (probe.instance >= n) {
      throw std::out_of_range("QuerySnapshot: probe instance " + std::to_string(probe.instance) +
                              " out of range (snapshot holds " + std::to_string(n) + ")");
    }
    if (dynamic_[probe.instance] == 0 && probe.node >= num_nodes_[probe.instance]) {
      throw_bad_node(probe.instance, probe.node);
    }
    ++counts[probe.instance + 1];
  }
  for (std::uint32_t id = 1; id <= n; ++id) {
    counts[id] += counts[id - 1];
  }
  std::vector<std::uint32_t> order(probes.size());
  for (std::uint32_t i = 0; i < probes.size(); ++i) {
    order[counts[probes[i].instance]++] = i;
  }
  return order;
}

template <typename OnTable, typename OnInstance>
void QuerySnapshot::for_each_run(std::span<const Probe> probes, OnTable on_table,
                                 OnInstance on_instance) const {
  const std::vector<std::uint32_t> order = sorted_order(probes);
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint32_t id = probes[order[i]].instance;
    // One run per instance: all its probes answered back-to-back.
    std::size_t end = i;
    while (end < order.size() && probes[order[end]].instance == id) {
      ++end;
    }
    std::shared_ptr<const PeriodTable> held;
    const PeriodTable* table = tables_[id].get();
    if (dynamic_[id] != 0) {
      // One load per run: the whole run answers from this version, and the
      // bound comes from it too, so a batch republishing concurrently can
      // never let a probe index past the table actually held.
      held = instances_[id]->period_table_shared();
      table = held.get();
      const graph::NodeId bound = table ? table->num_nodes() : 0;
      for (std::size_t k = i; k < end; ++k) {
        if (probes[order[k]].node >= bound) {
          throw_bad_node(id, probes[order[k]].node);
        }
      }
    }
    if (table != nullptr) {
      for (std::size_t k = i; k < end; ++k) {
        on_table(*table, probes[order[k]], order[k]);
      }
    } else {
      Instance& instance = *instances_[id];
      for (std::size_t k = i; k < end; ++k) {
        on_instance(instance, probes[order[k]], order[k]);
      }
    }
    i = end;
  }
}

void QuerySnapshot::query_batch(std::span<const Probe> probes, std::span<std::uint8_t> out) const {
  if (out.size() < probes.size()) {
    throw std::invalid_argument("QuerySnapshot::query_batch: output span too small");
  }
  for_each_run(
      probes,
      [out](const PeriodTable& table, const Probe& probe, std::uint32_t k) {
        out[k] = table.is_happy(probe.node, probe.holiday) ? 1 : 0;
      },
      [out](Instance& instance, const Probe& probe, std::uint32_t k) {
        out[k] = instance.is_happy(probe.node, probe.holiday) ? 1 : 0;
      });
}

void QuerySnapshot::next_gathering_batch(std::span<const Probe> probes,
                                         std::span<std::uint64_t> out) const {
  if (out.size() < probes.size()) {
    throw std::invalid_argument("QuerySnapshot::next_gathering_batch: output span too small");
  }
  for_each_run(
      probes,
      [out](const PeriodTable& table, const Probe& probe, std::uint32_t k) {
        out[k] = table.next_gathering(probe.node, probe.holiday);
      },
      [out](Instance& instance, const Probe& probe, std::uint32_t k) {
        out[k] = instance.next_gathering(probe.node, probe.holiday).value_or(kNoGathering);
      });
}

}  // namespace fhg::engine
