#include <memory>
#include <random>

#include "bench.hpp"
#include "fhg/api/client.hpp"
#include "fhg/api/codec.hpp"
#include "fhg/api/transport.hpp"
#include "fhg/coding/bitio.hpp"
#include "fhg/engine/query_batch.hpp"
#include "stats.hpp"

namespace servebench {

namespace {

constexpr double kRowSeconds = 0.2;          ///< budget of each repeated-loop row
constexpr double kRoundtripSeconds = 0.4;    ///< budget of each client roundtrip row
constexpr std::size_t kMaxRoundtrips = 20000;
constexpr std::size_t kSampleTenants = 16;
constexpr std::size_t kCodingValues = 65536;

/// Runs `body` (which returns the items it processed) until `seconds` have
/// passed; returns nanoseconds per item.
template <typename Body>
double ns_per_item(double seconds, Body body) {
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t items = 0;
  std::int64_t elapsed = 0;
  do {
    items += body();
    elapsed = now_ns() - start;
  } while (elapsed < budget);
  return ratio(static_cast<double>(elapsed), static_cast<double>(items));
}

/// The typed response a request's recorded answer stands for (the inverse
/// of `answer_of`), for the codec row.
fhg::api::Response response_for(const RunState& run, const fhg::api::Request& request,
                                 std::uint64_t answer) {
  using namespace fhg::api;
  Response response;
  if (std::holds_alternative<IsHappyRequest>(request)) {
    response.payload = IsHappyResponse{answer == 1};
  } else if (std::holds_alternative<NextGatheringRequest>(request)) {
    response.payload = NextGatheringResponse{answer};
  } else if (std::holds_alternative<ApplyMutationsRequest>(request)) {
    response.payload =
        ApplyMutationsResponse{answer & 0xFFFF, (answer >> 16) & 0xFFFF, answer >> 32};
  } else if (const auto* r = std::get_if<SnapshotInstanceRequest>(&request)) {
    SnapshotInstanceResponse payload;
    (void)run.stack.engine(0).snapshot_instance(r->instance, payload.bytes);
    response.payload = std::move(payload);
  } else {
    response.payload = RestoreInstanceResponse{answer == 1};
  }
  return response;
}

/// `api.codec_ns_per_roundtrip`: the four codec passes of one roundtrip
/// over the run's own requests and answers.
double codec_row(const RunState& run) {
  std::vector<std::pair<const fhg::api::Request*, fhg::api::Response>> pairs;
  for (std::size_t f = 0; f < std::min<std::size_t>(run.frames.length, 1024); ++f) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (f < run.load.answered(c)) {
        const fhg::api::Request& request = run.frames.requests[c][f];
        pairs.emplace_back(&request, response_for(run, request, run.load.answers(c)[f]));
      }
    }
  }
  return ns_per_item(kRowSeconds, [&] {
    std::uint64_t id = 1;
    for (const auto& [request, response] : pairs) {
      const auto request_frame =
          fhg::api::encode_request(id, *request, fhg::api::kProtocolVersion, id);
      fhg::api::DecodedRequest decoded_request;
      (void)fhg::api::decode_request(request_frame, decoded_request);
      const auto response_frame = fhg::api::encode_response(id, response);
      fhg::api::DecodedResponse decoded_response;
      (void)fhg::api::decode_response(response_frame, decoded_response);
      ++id;
    }
    return pairs.size();
  });
}

/// One synchronous `api::Client` caller per stack target over the run's own
/// requests (interleaved across connections); p50 and p99 in µs.
std::pair<double, double> roundtrip_row(const RunState& run, bool socket,
                                        std::vector<std::string>& problems) {
  std::vector<std::unique_ptr<fhg::api::Client>> clients;
  for (std::size_t t = 0; t < run.stack.num_targets(); ++t) {
    std::unique_ptr<fhg::api::Transport> transport;
    if (socket) {
      transport = std::make_unique<fhg::api::SocketTransport>("127.0.0.1", run.stack.port(t));
    } else {
      transport = std::make_unique<fhg::api::InProcessTransport>(run.stack.handler(t));
    }
    clients.push_back(std::make_unique<fhg::api::Client>(std::move(transport)));
  }
  std::vector<double> samples;
  std::uint64_t failures = 0;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(kRoundtripSeconds * 1e9);
  for (std::size_t i = 0; i < kMaxRoundtrips && now_ns() - start < budget; ++i) {
    const std::size_t c = i % kConnections;
    const std::size_t f = (i / kConnections) % run.frames.length;
    const std::int64_t t0 = now_ns();
    const fhg::api::Response response =
        clients[run.frames.target[c]]->call(run.frames.requests[c][f]);
    samples.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    failures += response.ok() ? 0 : 1;
  }
  if (failures != 0) {
    problems.push_back(std::string(socket ? "socket" : "in-process") + " client row: " +
                       std::to_string(failures) + " failed calls");
  }
  const double p50 = percentile_of(samples, 0.50);
  return {p50, percentile(std::span<const double>(samples), 0.99)};
}

/// `engine.snapshot_rebuild_us`: the query view rebuilt after an epoch
/// move.  Dynamic fleets move it the way serving does, with one mutation
/// batch; static fleets rebuild the same view directly.
double rebuild_row(const RunState& run) {
  fhg::engine::Engine& engine = run.stack.engine(0);
  const fhg::workload::ScenarioGenerator generator(run.spec);
  std::vector<double> samples;
  for (std::size_t k = 0; k < kSampleTenants; ++k) {
    const std::size_t slot = k * run.spec.fleet / kSampleTenants;
    if (run.def.kind == Kind::kWriteMix) {
      const std::uint64_t epoch = engine.registry().epoch();
      (void)engine.apply_mutations(generator.tenant_name(slot),
                                   generator.mutation_commands(slot, 1'000'000 + k,
                                                               run.spec.nodes));
      if (engine.registry().epoch() == epoch) {
        continue;  // nothing applied: no rebuild to time
      }
      const std::int64_t t0 = now_ns();
      (void)engine.query_snapshot();
      samples.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    } else {
      const std::int64_t t0 = now_ns();
      (void)fhg::engine::QuerySnapshot::build(engine.registry(), engine.registry().epoch());
      samples.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    }
  }
  return samples.empty() ? 0.0 : median(samples);
}

}  // namespace

void waterfall_rows(const RunState& run, Metrics& metrics, std::vector<std::string>& problems) {
  fhg::engine::Engine& engine = run.stack.engine(0);
  const fhg::workload::ScenarioGenerator generator(run.spec);

  // Engine query paths, on the fleet's own membership probes.
  std::vector<fhg::api::IsHappyRequest> probes;
  for (fhg::api::Request& request : generator.request_stream(8192, 0)) {
    if (auto* r = std::get_if<fhg::api::IsHappyRequest>(&request)) {
      probes.push_back(std::move(*r));
    }
  }
  metrics.push_back({"engine.is_happy_ns", ns_per_item(kRowSeconds, [&] {
                       for (const auto& q : probes) {
                         (void)engine.is_happy(q.instance, q.node, q.holiday);
                       }
                       return probes.size();
                     }),
                     "ns"});
  const auto view = engine.query_snapshot();
  std::vector<fhg::engine::Probe> resolved;
  for (const auto& q : probes) {
    resolved.push_back({*view->id_of(q.instance), q.node, q.holiday});
  }
  std::vector<std::uint8_t> out(resolved.size());
  metrics.push_back({"engine.query_batch_ns_per_probe", ns_per_item(kRowSeconds, [&] {
                       view->query_batch(resolved, out);
                       return resolved.size();
                     }),
                     "ns"});
  std::uint64_t disagreements = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const bool direct = engine.is_happy(probes[i].instance, probes[i].node, probes[i].holiday);
    disagreements += direct == (out[i] != 0) ? 0 : 1;
  }

  metrics.push_back({"api.codec_ns_per_roundtrip", codec_row(run), "ns"});
  const auto [inproc_p50, inproc_p99] = roundtrip_row(run, false, problems);
  metrics.push_back({"api.inproc_roundtrip_us_p50", inproc_p50, "us"});
  metrics.push_back({"api.inproc_roundtrip_us_p99", inproc_p99, "us"});
  const auto [socket_p50, socket_p99] = roundtrip_row(run, true, problems);
  metrics.push_back({"api.socket_roundtrip_us_p50", socket_p50, "us"});
  metrics.push_back({"api.socket_roundtrip_us_p99", socket_p99, "us"});
  metrics.push_back({"engine.snapshot_rebuild_us", rebuild_row(run), "us"});

  // Instance snapshot and adoption, the migration unit, on a tenant sample.
  double snapshot_us = 0;
  double adopt_us = 0;
  double bytes = 0;
  fhg::engine::Engine scratch({.shards = 16, .threads = 1});
  for (std::size_t k = 0; k < kSampleTenants; ++k) {
    const std::string name = generator.tenant_name(k * run.spec.fleet / kSampleTenants);
    std::vector<std::uint8_t> blob;
    const std::int64_t t0 = now_ns();
    const bool took = engine.snapshot_instance(name, blob).ok();
    const std::int64_t t1 = now_ns();
    const bool adopted = scratch.adopt_instance(blob, name).ok();
    const std::int64_t t2 = now_ns();
    if (!took || !adopted) {
      problems.push_back("instance snapshot/adopt failed for " + name);
    }
    snapshot_us += static_cast<double>(t1 - t0) / 1000.0;
    adopt_us += static_cast<double>(t2 - t1) / 1000.0;
    bytes += static_cast<double>(blob.size());
  }
  metrics.push_back({"engine.instance_snapshot_us", snapshot_us / kSampleTenants, "us"});
  metrics.push_back({"engine.adopt_us", adopt_us / kSampleTenants, "us"});
  metrics.push_back({"engine.snapshot_bytes", bytes / kSampleTenants, "bytes"});

  // The Elias-delta coder under every frame, snapshot and WAL record, on a
  // seeded log-uniform value set.
  std::mt19937_64 rng(run.spec.seed);
  std::vector<std::uint64_t> values(kCodingValues);
  for (std::uint64_t& value : values) {
    const unsigned width = 1 + static_cast<unsigned>(rng() % 62);
    value = (std::uint64_t{1} << (width - 1)) | (rng() & ((std::uint64_t{1} << (width - 1)) - 1));
  }
  std::vector<std::uint8_t> encoded;
  metrics.push_back({"coding.put_uint_ns", ns_per_item(kRowSeconds, [&] {
                       fhg::coding::BitWriter writer;
                       for (const std::uint64_t value : values) {
                         writer.put_uint(value);
                       }
                       encoded = writer.finish();
                       return values.size();
                     }),
                     "ns"});
  bool decoded_ok = true;
  metrics.push_back({"coding.get_uint_ns", ns_per_item(kRowSeconds, [&] {
                       fhg::coding::BitReader reader(encoded);
                       for (const std::uint64_t value : values) {
                         decoded_ok = reader.get_uint() == value && decoded_ok;
                       }
                       return values.size();
                     }),
                     "ns"});
  if (!decoded_ok) {
    problems.push_back("coding: get_uint did not return the values put_uint wrote");
  }
  if (disagreements != 0) {
    problems.push_back("engine: query_batch and is_happy disagree on the probe set");
  }
}

}  // namespace servebench
