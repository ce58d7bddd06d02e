// Self-tests of the serving benchmark: seeded inputs, the timing wrappers'
// forwarding contract, and the order statistics every metric rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fhg/api/codec.hpp"
#include "fhg/api/socket.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;

TEST(Frames, SameSeedGivesByteIdenticalStreamsAndAnotherSeedDiffers) {
  for (const WorkloadDef& def : all_workloads()) {
    const Blobs blobs =
        def.kind == Kind::kMigrate ? fleet_blobs(fleet_spec(def, 7)) : Blobs{};
    const FrameSet a = make_frames(def, 7, 64, false, blobs);
    const FrameSet b = make_frames(def, 7, 64, false, blobs);
    EXPECT_EQ(a.frames, b.frames) << def.name;

    const Blobs other_blobs =
        def.kind == Kind::kMigrate ? fleet_blobs(fleet_spec(def, 8)) : Blobs{};
    const FrameSet c = make_frames(def, 8, 64, false, other_blobs);
    EXPECT_NE(a.frames, c.frames) << def.name;
  }
}

TEST(Frames, WriteMixKeepsEachTenantOnOneConnection) {
  const FrameSet set = make_frames(*find_workload("write-mix"), 3, 512, false, {});
  std::map<std::string, std::size_t> owner;
  for (std::size_t c = 0; c < kConnections; ++c) {
    ASSERT_EQ(set.requests[c].size(), 512u);
    for (const auto& request : set.requests[c]) {
      const auto [it, inserted] = owner.emplace(fhg::api::routing_instance(request), c);
      EXPECT_EQ(it->second, c);
    }
  }
}

TEST(Frames, TracedFramesCarryTheirRequestIdAsTraceId) {
  const FrameSet set = make_frames(*find_workload("read"), 1, 16, true, {});
  fhg::api::DecodedRequest decoded;
  ASSERT_TRUE(fhg::api::decode_request(set.frames[2][5], decoded).ok());
  EXPECT_EQ(decoded.request_id, set.id(2, 5));
  EXPECT_EQ(decoded.trace_id, set.id(2, 5));
}

/// Records the context each request arrived with; completes on demand.
class FakeHandler final : public fhg::api::Handler {
 public:
  void handle(fhg::api::Request request, fhg::api::ResponseCallback done) override {
    handle(std::move(request), fhg::api::RequestContext{}, std::move(done));
  }
  void handle(fhg::api::Request, const fhg::api::RequestContext& context,
              fhg::api::ResponseCallback done) override {
    contexts.push_back(context);
    pending.push_back(std::move(done));
  }
  std::vector<fhg::api::RequestContext> contexts;
  std::vector<fhg::api::ResponseCallback> pending;
};

TEST(TimedHandler, ForwardsContextAndCompletesEachRequestOnce) {
  for (const bool recording : {false, true}) {
    FakeHandler inner;
    SpanLog log(16);
    TimedHandler timed(inner, "service", log);
    timed.set_recording(recording);
    int completions = 0;
    timed.handle(fhg::api::IsHappyRequest{"t", 1, 2}, {.trace_id = 77, .request_id = 5},
                 [&](fhg::api::Response) { ++completions; });
    timed.handle(fhg::api::IsHappyRequest{"t", 1, 2}, [&](fhg::api::Response) { ++completions; });
    ASSERT_EQ(inner.contexts.size(), 2u);
    EXPECT_EQ(inner.contexts[0].trace_id, 77u);
    EXPECT_EQ(inner.contexts[0].request_id, 5u);
    EXPECT_EQ(inner.contexts[1].trace_id, 0u);
    EXPECT_EQ(completions, 0);
    for (auto& done : inner.pending) {
      done(fhg::api::Response{});
    }
    EXPECT_EQ(completions, 2);
    const auto spans = log.spans();
    ASSERT_EQ(spans.size(), recording ? 2u : 0u);
    if (recording) {
      EXPECT_EQ(spans[0].trace_id, 77u);
      EXPECT_EQ(spans[0].layer, "service");
      EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
    }
  }
}

class FakeSink final : public fhg::engine::WalSink {
 public:
  void on_commit(const fhg::engine::WalCommit&) override { ++commits; }
  void on_lifecycle() override { ++lifecycles; }
  [[nodiscard]] fhg::engine::WalSinkStats stats() const override { return {.appends = 9}; }
  int commits = 0;
  int lifecycles = 0;
};

TEST(TimedWalSink, ForwardsEveryCallOnce) {
  FakeSink inner;
  SpanLog log(4);
  TimedWalSink timed(inner, log);
  timed.on_commit({});
  timed.set_recording(true);
  timed.on_commit({});
  timed.on_lifecycle();
  EXPECT_EQ(inner.commits, 2);
  EXPECT_EQ(inner.lifecycles, 1);
  EXPECT_EQ(timed.stats().appends, 9u);
  EXPECT_EQ(log.spans().size(), 1u);
}

/// Answers IsHappy with `holiday` odd, at once.
class ParityHandler final : public fhg::api::Handler {
 public:
  void handle(fhg::api::Request request, fhg::api::ResponseCallback done) override {
    handle(std::move(request), fhg::api::RequestContext{}, std::move(done));
  }
  void handle(fhg::api::Request request, const fhg::api::RequestContext&,
              fhg::api::ResponseCallback done) override {
    const auto& probe = std::get<fhg::api::IsHappyRequest>(request);
    done(fhg::api::Response{{}, fhg::api::IsHappyResponse{probe.holiday % 2 == 1}});
  }
};

FrameSet parity_frames(std::size_t length, bool repeats) {
  FrameSet set;
  set.length = length;
  set.repeats = repeats;
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t f = 0; f < length; ++f) {
      set.requests[c].push_back(fhg::api::IsHappyRequest{"t", 0, c + f});
      set.frames[c].push_back(fhg::api::encode_request(set.id(c, f), set.requests[c][f]));
    }
  }
  return set;
}

TEST(LoadGen, KeepsOneAnswerPerFrameAndStopsAStreamThatMayNotRepeat) {
  ParityHandler handler;
  fhg::api::SocketServer server(handler, fhg::api::SocketServerOptions{.workers = 1});
  const std::uint16_t port = server.port();
  for (const bool repeats : {true, false}) {
    const FrameSet frames = parity_frames(8, repeats);
    LoadGen load(frames, std::span<const std::uint16_t>(&port, 1), nullptr);
    const PhaseResult warm = load.warm_up(5, 2);
    const PhaseResult closed = load.closed_loop(0.3, 2, false);
    EXPECT_EQ(warm.failed + closed.failed, 0u);
    EXPECT_EQ(closed.exhausted, !repeats);
    if (!repeats) {
      EXPECT_EQ(warm.sent + closed.sent, 8 * kConnections);  // never past the end
    } else {
      EXPECT_GT(warm.sent + closed.sent, 8 * kConnections);  // wrapped around
    }
    EXPECT_EQ(load.repeat_mismatches(), 0u);
    for (std::size_t c = 0; c < kConnections; ++c) {
      ASSERT_EQ(load.answered(c), 8u);
      ASSERT_EQ(load.answers(c).size(), 8u);  // per frame, however many were sent
      for (std::size_t f = 0; f < 8; ++f) {
        EXPECT_EQ(load.answers(c)[f], (c + f) % 2) << c << ' ' << f;
      }
    }
  }
  server.stop();
}

TEST(SpanLog, KeepsCapacityAndCountsTheRest) {
  SpanLog log(2);
  for (int i = 0; i < 5; ++i) {
    log.add(Span{"wal", i, i + 1, 0, 0});
  }
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
}

TEST(SelfTime, SubtractsTheUnionOfClippedChildren) {
  const Span parent{"loadgen", 100, 200, 1, 0};
  EXPECT_EQ(self_time_ns(parent, {}), 100);
  const std::vector<Span> children = {{"service", 120, 150, 1, 0},
                                      {"service", 140, 160, 1, 0},
                                      {"service", 190, 260, 1, 0},
                                      {"service", 10, 20, 1, 0}};
  // Covered: [120, 160) and [190, 200) = 50 of 100.
  EXPECT_EQ(self_time_ns(parent, children), 50);
}

TEST(Percentile, NearestRank) {
  std::vector<int> samples = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile_of(samples, 0.5), 3);
  EXPECT_EQ(percentile(std::span<const int>(samples), 0.0), 1);
  EXPECT_EQ(percentile(std::span<const int>(samples), 0.2), 1);
  EXPECT_EQ(percentile(std::span<const int>(samples), 0.21), 2);
  EXPECT_EQ(percentile(std::span<const int>(samples), 1.0), 5);
  EXPECT_EQ(percentile(std::span<const int>(samples), 7.0), 5);
  EXPECT_EQ(percentile(std::span<const int>(), 0.5), 0);

  std::vector<std::int64_t> hundred(100);
  for (int i = 0; i < 100; ++i) {
    hundred[static_cast<std::size_t>(i)] = 100 - i;
  }
  EXPECT_EQ(percentile_of(hundred, 0.99), 99);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, MissedRequestsSortLastAndReadAsInfinite) {
  std::vector<std::int64_t> samples = {kMissed, 1000, 2000};
  EXPECT_EQ(percentile_of(samples, 0.5), 2000);
  EXPECT_TRUE(std::isinf(ns_to_us(percentile(std::span<const std::int64_t>(samples), 1.0))));
  EXPECT_EQ(ns_to_us(1500), 1.5);
}

}  // namespace
