#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "fhg/api/codec.hpp"

namespace servebench {

namespace {

// Thread budget for a 4-CPU box, identical on every workload: one engine
// pool thread (idle while serving), one socket event loop per server, and
// the per-workload service shards and router workers in the table below.
constexpr std::size_t kEngineThreads = 1;
constexpr std::size_t kEngineShards = 64;
constexpr std::size_t kSocketWorkers = 1;
constexpr std::size_t kWalShards = 2;

// Open-loop rates are frozen.  They sit at 7-20% of the closed-loop
// capacity measured on a quiet 4-CPU host when the benchmark was defined, so
// the latencies reflect the stack rather than queueing, and a host that
// slows by half mid-run still drains the schedule without refusing requests.
constexpr WorkloadDef kWorkloads[] = {
    {.name = "read",
     .kind = Kind::kRead,
     .scenario = "power-law:fleet=2000,nodes=48,aperiodic=0,horizon=1024",
     .open_rate_rps = 15000,
     .window = 16,
     .warmup_per_conn = 2000,
     .stream_per_conn = 4096,
     .backends = 1,
     .service_shards = 2,
     .router_workers = 0,
     .wal = false},
    {.name = "read-routed",
     .kind = Kind::kReadRouted,
     .scenario = "power-law:fleet=2000,nodes=48,aperiodic=0,horizon=1024",
     .open_rate_rps = 8000,
     .window = 16,
     .warmup_per_conn = 2000,
     .stream_per_conn = 4096,
     .backends = 3,
     .service_shards = 1,
     .router_workers = 4,
     .wal = false},
    {.name = "write-mix",
     .kind = Kind::kWriteMix,
     .scenario = "power-law:fleet=1000,nodes=48,aperiodic=0,dynamic=1,mutation=0.2,cmds=4",
     .open_rate_rps = 2000,
     .window = 16,
     .warmup_per_conn = 500,
     .stream_per_conn = 65536,
     .backends = 1,
     .service_shards = 1,
     .router_workers = 0,
     .wal = true},
    {.name = "migrate",
     .kind = Kind::kMigrate,
     .scenario = "power-law:fleet=128,nodes=1024,aperiodic=0,horizon=256",
     .open_rate_rps = 200,
     .window = 2,
     .warmup_per_conn = 8,
     .stream_per_conn = 256,
     .backends = 2,
     .service_shards = 1,
     .router_workers = 0,
     .wal = false},
};

}  // namespace

std::span<const WorkloadDef> all_workloads() { return kWorkloads; }

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (def.name == name) {
      return &def;
    }
  }
  return nullptr;
}

fhg::workload::ScenarioSpec fleet_spec(const WorkloadDef& def, std::uint64_t seed) {
  auto spec = fhg::workload::parse_scenario(def.scenario);
  if (!spec) {
    throw std::logic_error("servebench: bad scenario for workload " + std::string(def.name));
  }
  spec->seed = seed;
  return *spec;
}

bool is_write_kind(std::size_t tag) {
  return tag == fhg::api::Request(fhg::api::ApplyMutationsRequest{}).index() ||
         tag == fhg::api::Request(fhg::api::RestoreInstanceRequest{}).index();
}

Blobs fleet_blobs(const fhg::workload::ScenarioSpec& spec) {
  fhg::engine::Engine engine({.shards = kEngineShards, .threads = kEngineThreads});
  const fhg::workload::ScenarioGenerator generator(spec);
  generator.populate(engine);
  Blobs blobs(spec.fleet);
  for (std::size_t i = 0; i < spec.fleet; ++i) {
    if (!engine.snapshot_instance(generator.tenant_name(i), blobs[i]).ok()) {
      throw std::runtime_error("servebench: cannot snapshot " + generator.tenant_name(i));
    }
  }
  return blobs;
}

FrameSet make_frames(const WorkloadDef& def, std::uint64_t seed, std::size_t length,
                     bool traced, const Blobs& blobs) {
  const fhg::workload::ScenarioSpec spec = fleet_spec(def, seed);
  const fhg::workload::ScenarioGenerator generator(spec);
  FrameSet set;
  set.length = length;
  set.repeats = def.kind != Kind::kWriteMix;
  switch (def.kind) {
    case Kind::kRead:
    case Kind::kReadRouted: {
      std::vector<fhg::api::Request> stream = generator.request_stream(kConnections * length, 0);
      for (std::size_t q = 0; q < stream.size(); ++q) {
        set.requests[q % kConnections].push_back(std::move(stream[q]));
      }
      break;
    }
    case Kind::kWriteMix: {
      std::unordered_map<std::string, std::size_t> slot_of;
      for (std::size_t i = 0; i < spec.fleet; ++i) {
        slot_of.emplace(generator.tenant_name(i), i);
      }
      const auto short_list = [&] {
        return std::any_of(set.requests.begin(), set.requests.end(),
                           [&](const auto& list) { return list.size() < length; });
      };
      for (std::uint64_t round = 0; short_list(); ++round) {
        for (fhg::api::Request& request : generator.request_stream(kConnections * length, round)) {
          const std::string name(fhg::api::routing_instance(request));
          auto& list = set.requests[slot_of.at(name) % kConnections];
          if (list.size() < length) {
            list.push_back(std::move(request));
          }
        }
      }
      break;
    }
    case Kind::kMigrate: {
      for (std::size_t c = 0; c < kConnections; ++c) {
        set.target[c] = c < 2 ? 0 : 1;
        for (std::size_t f = 0; f < length; ++f) {
          const std::size_t k = (2 * f + c % 2) % spec.fleet;
          std::string name = generator.tenant_name(k);
          if (c < 2) {
            set.requests[c].push_back(fhg::api::SnapshotInstanceRequest{std::move(name)});
          } else {
            set.requests[c].push_back(
                fhg::api::RestoreInstanceRequest{std::move(name), blobs.at(k)});
          }
        }
      }
      break;
    }
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    set.frames[c].reserve(length);
    for (std::size_t f = 0; f < length; ++f) {
      const std::uint64_t id = set.id(c, f);
      set.frames[c].push_back(fhg::api::encode_request(id, set.requests[c][f],
                                                       fhg::api::kProtocolVersion,
                                                       traced ? id : 0));
    }
  }
  return set;
}

Stack::Stack(const WorkloadDef& def, const fhg::workload::ScenarioSpec& spec, SpanLog* spans,
             const std::filesystem::path& scratch) {
  const fhg::workload::ScenarioGenerator generator(spec);
  fhg::cluster::RouterOptions router_options;
  for (std::size_t b = 0; b < def.backends; ++b) {
    auto backend = std::make_unique<Backend>();
    backend->engine = std::make_unique<fhg::engine::Engine>(
        fhg::engine::EngineOptions{.shards = kEngineShards, .threads = kEngineThreads});
    generator.populate(*backend->engine);
    if (def.wal) {
      // fsync_every = 0: appends reach the page cache, not the disk, so the
      // WAL's encode + write cost shows without the storage stack's.
      backend->wal_dir = scratch / ("wal-" + std::to_string(b));
      std::filesystem::remove_all(backend->wal_dir);
      backend->wal = std::make_unique<fhg::wal::Manager>(
          *backend->engine, fhg::wal::WalOptions{.dir = backend->wal_dir.string(),
                                                 .shards = kWalShards,
                                                 .fsync_every = 0});
      (void)backend->wal->recover();
      backend->wal->compact();  // seal the built fleet: appends start from a base
      if (spans != nullptr) {
        backend->wal_timer = std::make_unique<TimedWalSink>(*backend->wal, *spans);
        backend->engine->attach_wal(backend->wal_timer.get());
      } else {
        backend->engine->attach_wal(backend->wal.get());
      }
    }
    std::string backend_id = "b";
    backend_id += std::to_string(b);
    backend->service = std::make_unique<fhg::service::Service>(
        *backend->engine,
        fhg::service::ServiceOptions{.shards = def.service_shards, .backend_id = backend_id});
    fhg::api::Handler* handler = backend->service.get();
    if (spans != nullptr) {
      backend->timer = std::make_unique<TimedHandler>(*backend->service, "service", *spans);
      handler = backend->timer.get();
    }
    backend->server = std::make_unique<fhg::api::SocketServer>(
        *handler, fhg::api::SocketServerOptions{.workers = kSocketWorkers});
    router_options.backends.push_back(
        fhg::cluster::BackendConfig{backend_id, "127.0.0.1", backend->server->port()});
    if (def.router_workers == 0) {
      targets_.push_back(Target{handler, backend->server.get()});
    }
    backends_.push_back(std::move(backend));
  }
  if (def.router_workers > 0) {
    router_options.workers = def.router_workers;
    router_options.probe_interval = std::chrono::milliseconds(0);  // prober off
    router_ = std::make_unique<fhg::cluster::Router>(std::move(router_options));
    fhg::api::Handler* handler = router_.get();
    if (spans != nullptr) {
      router_timer_ = std::make_unique<TimedHandler>(*router_, "router", *spans);
      handler = router_timer_.get();
    }
    front_ = std::make_unique<fhg::api::SocketServer>(
        *handler, fhg::api::SocketServerOptions{.workers = kSocketWorkers});
    targets_.push_back(Target{handler, front_.get()});
  }
}

Stack::~Stack() {
  if (front_) {
    front_->stop();
  }
  if (router_) {
    router_->stop();
  }
  for (const auto& backend : backends_) {
    backend->server->stop();
    backend->service->drain();
    backend->engine->attach_wal(nullptr);
    backend->wal.reset();
    if (!backend->wal_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(backend->wal_dir, ignored);
    }
  }
}

std::uint16_t Stack::port(std::size_t target) const { return targets_.at(target).server->port(); }

fhg::api::Handler& Stack::handler(std::size_t target) const {
  return *targets_.at(target).handler;
}

fhg::engine::Engine& Stack::engine(std::size_t backend) const {
  return *backends_.at(backend)->engine;
}

const fhg::service::Service& Stack::service(std::size_t backend) const {
  return *backends_.at(backend)->service;
}

void Stack::set_recording(bool on) {
  for (const auto& backend : backends_) {
    if (backend->timer) {
      backend->timer->set_recording(on);
    }
    if (backend->wal_timer) {
      backend->wal_timer->set_recording(on);
    }
  }
  if (router_timer_) {
    router_timer_->set_recording(on);
  }
}

}  // namespace servebench
