#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "fhg/engine/query_batch.hpp"

namespace servebench {

namespace {

constexpr std::size_t kAuditSample = 16;

/// The answer `engine` gives `request` directly, in `answer_of` form;
/// nullopt when the call throws or the kind has no direct form.
std::optional<std::uint64_t> direct_answer(fhg::engine::Engine& engine,
                                           const fhg::api::Request& request) {
  using namespace fhg::api;
  try {
    if (const auto* r = std::get_if<IsHappyRequest>(&request)) {
      return engine.is_happy(r->instance, r->node, r->holiday) ? 1 : 0;
    }
    if (const auto* r = std::get_if<NextGatheringRequest>(&request)) {
      return engine.next_gathering(r->instance, r->node, r->after)
          .value_or(fhg::engine::kNoGathering);
    }
    if (const auto* r = std::get_if<ApplyMutationsRequest>(&request)) {
      const fhg::engine::MutationResult result = engine.apply_mutations(r->instance, r->commands);
      return pack_mutation(result.applied, result.recolors, result.table_version);
    }
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// Counts mismatches and keeps the first one as a readable line.
struct Tally {
  std::uint64_t mismatches = 0;
  std::string first;

  void note(std::size_t c, std::uint64_t pos, const std::string& what) {
    if (mismatches++ == 0) {
      std::ostringstream line;
      line << "connection " << c << " frame " << pos << ": " << what;
      first = line.str();
    }
  }
  void report(const char* check, std::vector<std::string>& problems) const {
    if (mismatches != 0) {
      problems.push_back(std::string(check) + ": " + std::to_string(mismatches) +
                         " mismatches, first at " + first);
    }
  }
};

/// Every answered frame's first answer equals `expected(c, f)`, the
/// reference for frame `f` of connection `c`, and its status is ok.  Walks
/// each connection's frames in the order they were sent, so `expected` may
/// replay them.  (A repeated frame must match its first answer; the load
/// generator counts those that do not.)
template <typename Expected>
Tally compare_answers(const RunState& run, Expected expected) {
  Tally tally;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const auto& answers = run.load.answers(c);
    const auto& statuses = run.load.statuses(c);
    for (std::size_t f = 0; f < run.load.answered(c); ++f) {
      const std::optional<std::uint64_t> want = expected(c, f);
      if (statuses[f] != 0) {
        tally.note(c, f, "status " + std::to_string(statuses[f]));
      } else if (!want || *want != answers[f]) {
        tally.note(c, f, "served " + std::to_string(answers[f]));
      }
    }
  }
  return tally;
}

void check_reads(const RunState& run, std::vector<std::string>& problems) {
  fhg::engine::Engine& engine = run.stack.engine(0);
  compare_answers(run, [&](std::size_t c, std::size_t f) {
    return direct_answer(engine, run.frames.requests[c][f]);
  }).report("read answers vs Engine::is_happy/next_gathering", problems);
}

void check_write_mix(const RunState& run, std::vector<std::string>& problems) {
  // The twin replays each connection's requests in the order they were
  // sent.  A tenant lives on one connection only, so this is every tenant's
  // own order, which is all its answers depend on.
  fhg::engine::Engine twin({.shards = 64, .threads = 1});
  fhg::workload::ScenarioGenerator(run.spec).populate(twin);
  compare_answers(run, [&](std::size_t c, std::size_t f) {
    return direct_answer(twin, run.frames.requests[c][f]);
  }).report("write-mix answers vs twin replay", problems);
  if (run.stack.engine(0).snapshot() != twin.snapshot()) {
    problems.push_back("write-mix: final Engine::snapshot() differs from the twin's");
  }
}

void check_migrate(const RunState& run, std::vector<std::string>& problems) {
  const fhg::workload::ScenarioGenerator generator(run.spec);
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t k = 0; k < run.spec.fleet; ++k) {
    index.emplace(generator.tenant_name(k), k);
  }
  compare_answers(run, [&](std::size_t c, std::size_t f) -> std::optional<std::uint64_t> {
    const std::string name(fhg::api::routing_instance(run.frames.requests[c][f]));
    // Reads return the blob; every restore replaces a tenant B already holds.
    return c < 2 ? blob_hash(run.blobs[index.at(name)]) : 1;
  }).report("migrate answers vs source blobs", problems);
  for (std::size_t k = 0; k < run.spec.fleet; ++k) {
    std::vector<std::uint8_t> source;
    std::vector<std::uint8_t> restored;
    const std::string name = generator.tenant_name(k);
    if (!run.stack.engine(0).snapshot_instance(name, source).ok() ||
        !run.stack.engine(1).snapshot_instance(name, restored).ok() || source != restored) {
      problems.push_back("migrate: restored tenant " + name + " differs from its source");
    }
  }
}

}  // namespace

void check_outputs(const RunState& run, std::vector<std::string>& problems) {
  switch (run.def.kind) {
    case Kind::kRead:
    case Kind::kReadRouted:
      check_reads(run, problems);
      break;
    case Kind::kWriteMix:
      check_write_mix(run, problems);
      break;
    case Kind::kMigrate:
      check_migrate(run, problems);
      break;
  }
}

AuditResult audit_fleet(const fhg::workload::ScenarioSpec& spec, fhg::engine::Engine& engine) {
  const fhg::workload::ScenarioGenerator generator(spec);
  AuditResult result;
  for (std::size_t i = 0; i < kAuditSample; ++i) {
    const std::string name = generator.tenant_name(i * spec.fleet / kAuditSample);
    engine.find(name)->step(spec.horizon);
    const fhg::engine::FairnessAudit audit = engine.audit(name);
    result.worst_gap = std::max(result.worst_gap, audit.worst_gap);
    if (!audit.bounds_respected) {
      result.bound_violations += std::max<std::size_t>(1, audit.bound_violators.size());
    }
  }
  return result;
}

}  // namespace servebench
