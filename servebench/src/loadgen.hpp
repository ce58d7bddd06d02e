#pragma once

/// \file loadgen.hpp
/// The load generator: the calling thread sends, one receiver thread reads,
/// and both share `kConnections` loopback TCP connections.  Frames are the
/// pre-encoded ones of a `FrameSet`, pipelined; the server answers each
/// connection in request order, so the k-th response on a connection
/// answers its k-th request (the request id is checked).  The program under
/// test sees only these frames.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "fhg/api/protocol.hpp"
#include "layers.hpp"
#include "workload.hpp"

namespace servebench {

/// What one phase sent and got back.
struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;       ///< answered with an ok status
  std::uint64_t failed = 0;          ///< answered non-ok, undecodable, or never answered
  double seconds = 0.0;              ///< closed loop: first send to last completion
  std::vector<std::int64_t> read_ns;   ///< open loop: latency from due time, reads
  std::vector<std::int64_t> write_ns;  ///< open loop: latency from due time, writes
  std::vector<std::int64_t> lag_ns;    ///< open loop: how late the sender picked each request up
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::int64_t start_ns = 0;  ///< when the phase began sending
  std::int64_t end_ns = 0;    ///< when its last response arrived
  /// Closed loop: ok completions in each whole `kSliceNs` slice from
  /// `start_ns` to `end_ns`.
  std::vector<std::uint64_t> slices;
  bool exhausted = false;  ///< closed loop: a stream that may not repeat ran out
};

/// Width of the closed-loop completion slices.
inline constexpr std::int64_t kSliceNs = 100'000'000;

/// Pipelined sender + receiver over one connection per stream of a
/// `FrameSet`.  Connection `c` dials `ports[frames.target[c]]`.
class LoadGen {
 public:
  LoadGen(const FrameSet& frames, std::span<const std::uint16_t> ports, SpanLog* spans);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Untimed closed-loop burst: `per_conn` requests per connection, at most
  /// `window` outstanding on each.
  PhaseResult warm_up(std::size_t per_conn, std::size_t window);

  /// Open loop: `count` requests at `rate_rps`, dealt round-robin over the
  /// connections, each timed from when it was due.
  PhaseResult open_loop(double rate_rps, std::size_t count, bool record_spans);

  /// Closed loop for `seconds`, `window` requests outstanding per connection.
  PhaseResult closed_loop(double seconds, std::size_t window, bool record_spans);

  /// The comparable answer (see `answer_of`) and status code of the first
  /// response to each frame of connection `c`, for its first `answered(c)`
  /// frames.  Read only between phases.
  [[nodiscard]] const std::vector<std::uint64_t>& answers(std::size_t c) const {
    return conns_[c].answers;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& statuses(std::size_t c) const {
    return conns_[c].statuses;
  }
  [[nodiscard]] std::size_t answered(std::size_t c) const;

  /// Responses with a wrong request id or an undecodable frame.
  [[nodiscard]] std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

  /// Responses to a repeated frame whose answer or status differs from the
  /// frame's first response.
  [[nodiscard]] std::uint64_t repeat_mismatches() const {
    return repeat_mismatches_.load(std::memory_order_relaxed);
  }

  /// True once a connection was lost or a phase could not drain.
  [[nodiscard]] bool broken() const { return broken_ || lost_.load(std::memory_order_acquire); }

 private:
  static constexpr std::size_t kRing = std::size_t{1} << 16;  ///< in-flight slots per connection
  static constexpr std::size_t kPhases = 8;

  struct Slot {
    std::int64_t due_ns = 0;
    std::int64_t sent_ns = 0;
    std::uint32_t phase = 0;
  };

  struct Conn {
    int fd = -1;
    std::vector<Slot> ring = std::vector<Slot>(kRing);
    std::uint64_t staged = 0;                 ///< sender only
    std::uint64_t flushed = 0;                ///< sender only
    std::vector<std::uint8_t> outbox;         ///< sender only
    std::atomic<std::uint64_t> published{0};  ///< slots the receiver may read
    std::atomic<std::uint64_t> received{0};   ///< responses processed
    std::vector<std::uint8_t> inbox;          ///< receiver only
    std::vector<std::uint64_t> answers;       ///< by frame; receiver writes, read between phases
    std::vector<std::uint8_t> statuses;       ///< by frame; receiver writes, read between phases
  };

  /// Receiver-side totals of one phase (set up by the sender before the
  /// phase's first slot is published, read by it after the drain).
  struct PhaseAcc {
    bool timed = false;
    bool spans = false;
    std::uint64_t completed = 0;
    std::uint64_t response_bytes = 0;
    std::int64_t last_done_ns = 0;
    std::int64_t slice_origin_ns = 0;
    std::vector<std::uint64_t> slices;
    std::vector<std::int64_t> read_ns;
    std::vector<std::int64_t> write_ns;
  };

  std::uint32_t begin_phase(bool timed, bool spans, std::size_t expected);
  void stage(std::size_t c, std::int64_t due_ns, std::uint32_t phase, PhaseResult& result);
  void flush();
  void wait_progress(std::uint64_t seen);
  void run_window(std::uint32_t phase, std::size_t window, std::int64_t deadline_ns,
                  std::size_t per_conn, PhaseResult& result);
  void finish_phase(std::uint32_t phase, PhaseResult& result);
  void stop_receiver();
  void receive_loop();
  void on_frame(std::size_t c, std::span<const std::uint8_t> frame);

  const FrameSet& frames_;
  SpanLog* spans_;
  std::array<Conn, kConnections> conns_;
  std::array<PhaseAcc, kPhases> phases_;
  std::uint32_t next_phase_ = 0;
  bool broken_ = false;  ///< sender only
  int epoll_fd_ = -1;
  std::mutex progress_mutex_;
  std::condition_variable progress_cv_;
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> repeat_mismatches_{0};
  std::atomic<bool> lost_{false};
  std::atomic<bool> stopping_{false};
  std::thread receiver_;  ///< declared last: starts after everything it reads
};

/// The comparable value of a response: the membership bit, the holiday, the
/// packed mutation result, a hash of the snapshot bytes, or the replaced
/// flag; 0 for anything else.
[[nodiscard]] std::uint64_t answer_of(const fhg::api::Response& response);

/// Packs a mutation result into one comparable word.
[[nodiscard]] std::uint64_t pack_mutation(std::uint64_t applied, std::uint64_t recolors,
                                          std::uint64_t table_version);

/// `cluster::fnv1a` of a byte blob, the comparable form of snapshot bytes.
[[nodiscard]] std::uint64_t blob_hash(std::span<const std::uint8_t> bytes);

}  // namespace servebench
