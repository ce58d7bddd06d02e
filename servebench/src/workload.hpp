#pragma once

/// \file workload.hpp
/// The benchmark's workloads: the fleet each one serves, the seeded frame
/// streams the load generator sends, and the in-process serving stack they
/// run against.  servebench/README.md says why each workload exists.

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fhg/api/protocol.hpp"
#include "fhg/api/socket.hpp"
#include "fhg/cluster/router.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/service/service.hpp"
#include "fhg/wal/wal.hpp"
#include "fhg/workload/scenario.hpp"
#include "layers.hpp"

namespace servebench {

/// Loopback connections the load generator opens; one sender and one
/// receiver thread share them.
inline constexpr std::size_t kConnections = 4;

/// Request ids start here, so they never collide with the small ids the
/// router's own backend clients mint for their trace envelopes.
inline constexpr std::uint64_t kIdBase = std::uint64_t{1} << 40;

/// Which traffic a workload sends.
enum class Kind : std::uint8_t { kRead, kReadRouted, kWriteMix, kMigrate };

/// One workload: its fleet, its traffic, and its frozen load and thread
/// settings.
struct WorkloadDef {
  std::string_view name;
  Kind kind;
  std::string_view scenario;    ///< fleet recipe; the workload seed replaces its seed
  double open_rate_rps;         ///< open-loop offered rate, frozen
  std::size_t window;           ///< closed-loop requests outstanding per connection
  std::size_t warmup_per_conn;  ///< untimed closed-loop requests per connection in set-up
  /// Frames per connection before its stream repeats.  Write-mix's stream
  /// never repeats, because a repeated mutation batch is mostly a no-op; its
  /// closed loop ends early if a connection runs out.
  std::size_t stream_per_conn;
  std::size_t backends;         ///< engine + service + socket server stacks
  std::size_t service_shards;   ///< `ServiceOptions::shards` of each backend
  std::size_t router_workers;   ///< `RouterOptions::workers`; 0 means no router
  bool wal;                     ///< each backend logs mutations to a `wal::Manager`
};

/// Every workload, in the order BENCHMARK.json lists them.
[[nodiscard]] std::span<const WorkloadDef> all_workloads();

/// The workload called `name`, or nullptr.
[[nodiscard]] const WorkloadDef* find_workload(std::string_view name);

/// The fleet recipe of `def` under workload seed `seed`.
[[nodiscard]] fhg::workload::ScenarioSpec fleet_spec(const WorkloadDef& def, std::uint64_t seed);

/// True for the request kind tags the latency split counts as writes
/// (ApplyMutations, RestoreInstance).
[[nodiscard]] bool is_write_kind(std::size_t tag);

/// Single-instance snapshot blobs of every tenant, by tenant index:
/// migrate's restore payloads.
using Blobs = std::vector<std::vector<std::uint8_t>>;

/// The blobs of a freshly built copy of the fleet, which is what every
/// backend holds after set-up.
[[nodiscard]] Blobs fleet_blobs(const fhg::workload::ScenarioSpec& spec);

/// The pre-encoded request frames each connection sends, in order.  A
/// connection cycles through its `length` frames if `repeats`, and stops at
/// the end otherwise; frame `f` of connection `c` carries request id
/// `id(c, f)` and, in a traced run, the same value as its envelope trace id.
struct FrameSet {
  std::size_t length = 0;
  /// True when the fleet is read-only under this traffic, so a repeated
  /// frame must get its first answer again.
  bool repeats = true;
  std::array<std::vector<std::vector<std::uint8_t>>, kConnections> frames;
  std::array<std::vector<fhg::api::Request>, kConnections> requests;
  std::array<std::size_t, kConnections> target{};  ///< stack target each connection dials

  [[nodiscard]] std::uint64_t id(std::size_t c, std::size_t f) const {
    return kIdBase + c * length + f;
  }
};

/// Builds the frame streams of `def` under `seed`; a pure function of its
/// arguments.  Read workloads deal one `request_stream` round-robin over the
/// connections; write-mix gives each connection the tenants whose slot is
/// congruent to it, so one tenant's requests travel in order down one
/// connection; migrate reads blobs off backend A on connections 0 and 1 and
/// restores them into backend B on connections 2 and 3.
[[nodiscard]] FrameSet make_frames(const WorkloadDef& def, std::uint64_t seed,
                                   std::size_t length, bool traced, const Blobs& blobs);

/// Everything server-side of one workload, in this process: the backends
/// (engine, optional WAL, service, socket server), and for the routed
/// workload a router behind its own socket server.  A traced stack wraps each
/// service, the router and each WAL in the timing wrappers of layers.hpp.
class Stack {
 public:
  Stack(const WorkloadDef& def, const fhg::workload::ScenarioSpec& spec, SpanLog* spans,
        const std::filesystem::path& scratch);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Servers the load generator dials: the router's front server, or each
  /// backend's server.
  [[nodiscard]] std::size_t num_targets() const { return targets_.size(); }
  [[nodiscard]] std::uint16_t port(std::size_t target) const;
  [[nodiscard]] fhg::api::Handler& handler(std::size_t target) const;

  [[nodiscard]] std::size_t num_backends() const { return backends_.size(); }
  [[nodiscard]] fhg::engine::Engine& engine(std::size_t backend) const;
  [[nodiscard]] const fhg::service::Service& service(std::size_t backend) const;
  [[nodiscard]] fhg::cluster::Router* router() const { return router_.get(); }

  /// Turns span recording on or off in every wrapper.
  void set_recording(bool on);

 private:
  struct Backend {
    std::filesystem::path wal_dir;
    std::unique_ptr<fhg::engine::Engine> engine;
    std::unique_ptr<fhg::wal::Manager> wal;
    std::unique_ptr<TimedWalSink> wal_timer;
    std::unique_ptr<fhg::service::Service> service;
    std::unique_ptr<TimedHandler> timer;
    std::unique_ptr<fhg::api::SocketServer> server;
  };
  struct Target {
    fhg::api::Handler* handler = nullptr;
    fhg::api::SocketServer* server = nullptr;
  };

  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<fhg::cluster::Router> router_;
  std::unique_ptr<TimedHandler> router_timer_;
  std::unique_ptr<fhg::api::SocketServer> front_;
  std::vector<Target> targets_;
};

}  // namespace servebench
