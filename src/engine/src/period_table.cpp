#include "fhg/engine/period_table.hpp"

#include <iterator>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "fhg/parallel/rng.hpp"

namespace fhg::engine {

std::optional<PeriodTable> PeriodTable::build(const core::Scheduler& s) {
  if (!s.perfectly_periodic()) {
    return std::nullopt;
  }
  const std::vector<core::PeriodPhaseRow> rows = s.period_phase_rows();
  if (rows.size() != s.num_nodes()) {
    return std::nullopt;  // some node lacks an exposed (period, phase)
  }
  const std::size_t n = rows.size();
  std::vector<std::uint64_t> periods(n);
  std::vector<std::uint64_t> residues(n);
  std::vector<std::uint64_t> phases(n);
  for (std::size_t v = 0; v < n; ++v) {
    periods[v] = rows[v].period;
    residues[v] = rows[v].phase % rows[v].period;
    phases[v] = rows[v].phase;
  }
  return PeriodTable(std::move(periods), std::move(residues), std::move(phases));
}

std::uint64_t PeriodTable::content_hash() const noexcept {
  std::uint64_t h = parallel::mix64(periods_.size());
  for (std::size_t v = 0; v < periods_.size(); ++v) {
    h = parallel::mix_keys(h, periods_[v]);
    h = parallel::mix_keys(h, phases_[v]);
  }
  return h;
}

namespace {

/// Process-wide content-addressed intern pool.  Entries are weak, so a table
/// lives exactly as long as the instances sharing it.  Expired slots are
/// reclaimed on collision and by a periodic full sweep, so a long-running
/// churny tenancy (every replacement minting a distinct table) cannot grow
/// the map without bound.
struct InternPool {
  std::mutex mutex;
  std::unordered_multimap<std::uint64_t, std::weak_ptr<const PeriodTable>> tables;
  std::size_t inserts_since_sweep = 0;

  static constexpr std::size_t kSweepInterval = 256;

  /// Drops every expired entry.  Caller must hold `mutex`.
  void sweep() {
    for (auto it = tables.begin(); it != tables.end();) {
      it = it->second.expired() ? tables.erase(it) : std::next(it);
    }
    inserts_since_sweep = 0;
  }
};

InternPool& intern_pool() {
  static InternPool pool;
  return pool;
}

}  // namespace

std::shared_ptr<const PeriodTable> PeriodTable::build_shared(const core::Scheduler& s) {
  auto built = build(s);
  if (!built) {
    return nullptr;
  }
  const std::uint64_t key = built->content_hash();
  InternPool& pool = intern_pool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  auto [first, last] = pool.tables.equal_range(key);
  for (auto it = first; it != last;) {
    if (auto existing = it->second.lock()) {
      if (*existing == *built) {
        return existing;
      }
      ++it;
    } else {
      it = pool.tables.erase(it);  // reclaim an expired slot in passing
    }
  }
  auto shared = std::make_shared<const PeriodTable>(std::move(*built));
  pool.tables.emplace(key, shared);
  if (++pool.inserts_since_sweep >= InternPool::kSweepInterval) {
    pool.sweep();
  }
  return shared;
}

}  // namespace fhg::engine
