#pragma once

/// \file layers.hpp
/// What the traced run places around the program's public seams: an
/// `api::Handler` wrapper that times `handle` to completion and an
/// `engine::WalSink` wrapper that times `on_commit`.  Both record spans into
/// an in-memory log that is written out when the run ends.  The program is
/// unchanged; every span is taken from the benchmark's side of a public
/// interface.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "fhg/api/handler.hpp"
#include "fhg/engine/wal_sink.hpp"

namespace servebench {

/// Monotonic time in nanoseconds: the clock every span and latency uses.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval at one layer boundary.  The spans of one request
/// share `trace_id`, the id the load generator stamped into the frame
/// envelope; 0 means the layer could not see a wire trace id.
struct Span {
  std::string_view layer;      ///< "loadgen", "router", "service" or "wal" (static strings)
  std::int64_t start_ns = 0;   ///< interval start (`now_ns` clock)
  std::int64_t end_ns = 0;     ///< interval end
  std::uint64_t trace_id = 0;  ///< envelope trace id, 0 when unknown
  std::uint8_t kind = 0;       ///< api request kind tag (0 for WAL appends)
};

/// A layer's self time: `parent`'s duration minus the part of it that
/// `children` cover.  Children are clipped to the parent and overlaps count
/// once.
[[nodiscard]] std::int64_t self_time_ns(const Span& parent, std::span<const Span> children);

/// Spans kept in memory until the run ends.  Thread-safe; keeps at most
/// `capacity` spans and counts the rest as dropped.
class SpanLog {
 public:
  /// Reserves room for `capacity` spans up front.
  explicit SpanLog(std::size_t capacity);

  /// Appends `span`, or counts it as dropped when the log is full.
  void add(const Span& span);

  /// A copy of every kept span, in append order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Spans refused because the log was full.
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<Span> spans_;    ///< guarded by mutex_
  std::uint64_t dropped_ = 0;  ///< guarded by mutex_
};

/// Times `inner.handle` from the call to the completion, one span named
/// `layer` per request.  Both overloads forward to `inner` with the wire
/// context intact and complete `done` exactly once.  While recording is off
/// (the default) requests pass through untouched.
class TimedHandler final : public fhg::api::Handler {
 public:
  /// Wraps `inner`; `layer` must be a string with static storage.
  TimedHandler(fhg::api::Handler& inner, std::string_view layer, SpanLog& log)
      : inner_(inner), layer_(layer), log_(log) {}

  void handle(fhg::api::Request request, fhg::api::ResponseCallback done) override;
  void handle(fhg::api::Request request, const fhg::api::RequestContext& context,
              fhg::api::ResponseCallback done) override;

  /// Starts or stops recording spans.
  void set_recording(bool on) noexcept { recording_.store(on, std::memory_order_relaxed); }

 private:
  fhg::api::Handler& inner_;
  std::string_view layer_;
  SpanLog& log_;
  std::atomic<bool> recording_{false};
};

/// Times `inner.on_commit`, one "wal" span per committed batch; the other
/// sink calls pass straight through.  While recording is off (the default)
/// commits pass through untouched.
class TimedWalSink final : public fhg::engine::WalSink {
 public:
  /// Wraps `inner` (not owned).
  TimedWalSink(fhg::engine::WalSink& inner, SpanLog& log) : inner_(inner), log_(log) {}

  void on_commit(const fhg::engine::WalCommit& commit) override;
  void on_lifecycle() override { inner_.on_lifecycle(); }
  [[nodiscard]] fhg::engine::WalSinkStats stats() const override { return inner_.stats(); }

  /// Starts or stops recording spans.
  void set_recording(bool on) noexcept { recording_.store(on, std::memory_order_relaxed); }

 private:
  fhg::engine::WalSink& inner_;
  SpanLog& log_;
  std::atomic<bool> recording_{false};
};

}  // namespace servebench
