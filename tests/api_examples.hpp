#pragma once

// One representative of every api request and response kind, with
// non-default fields: the golden frames the codec tests round-trip and the
// decoder fuzz suite mutates.

#include <cstdint>
#include <utility>
#include <vector>

#include "fhg/api/protocol.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/spec.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/obs/trace.hpp"

namespace fhg::api::testing {

/// One representative of every request kind, with non-default fields.
inline std::vector<Request> all_request_kinds() {
  engine::InstanceSpec spec;
  spec.kind = engine::SchedulerKind::kWeighted;
  spec.code = coding::CodeFamily::kEliasDelta;
  spec.seed = 99;
  spec.slack = 3;
  spec.periods = {4, 8, 16};
  return {
      IsHappyRequest{"acme", 7, 123456789},
      NextGatheringRequest{"acme", 3, 42},
      ApplyMutationsRequest{"dyn",
                            {dynamic::insert_edge_command(1, 5),
                             dynamic::erase_edge_command(2, 3), dynamic::add_node_command()}},
      CreateInstanceRequest{"fresh", 6, {{0, 1}, {1, 2}, {4, 5}}, spec},
      EraseInstanceRequest{"gone"},
      ListInstancesRequest{},
      SnapshotRequest{},
      RestoreRequest{{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42}},
      GetStatsRequest{.include_histograms = false, .include_traces = true},
      RecoverInfoRequest{},
      HelloRequest{},
      SnapshotInstanceRequest{"acme"},
      RestoreInstanceRequest{"acme", {0xFE, 0xED, 0x00, 0x17}},
      DrainBackendRequest{"backend-2"},
  };
}

/// One representative of every response payload kind (plus error statuses).
inline std::vector<Response> all_response_kinds() {
  ListInstancesResponse list;
  list.instances.push_back(InstanceInfo{.name = "acme",
                                        .kind = engine::SchedulerKind::kDegreeBound,
                                        .nodes = 48,
                                        .periodic = true,
                                        .dynamic = false});
  list.instances.push_back(InstanceInfo{.name = "dyn",
                                        .kind = engine::SchedulerKind::kDynamicPrefixCode,
                                        .nodes = 9,
                                        .periodic = true,
                                        .dynamic = true});
  const auto success = [](ResponsePayload payload) {
    Response response;
    response.payload = std::move(payload);
    return response;
  };
  std::vector<Response> responses;
  responses.push_back(success(IsHappyResponse{true}));
  responses.push_back(success(NextGatheringResponse{1024}));
  responses.push_back(success(ApplyMutationsResponse{3, 2, 7}));
  responses.push_back(success(CreateInstanceResponse{}));
  responses.push_back(success(EraseInstanceResponse{}));
  responses.push_back(success(std::move(list)));
  responses.push_back(success(SnapshotResponse{{1, 2, 3, 255, 0}}));
  responses.push_back(success(RestoreResponse{512}));
  GetStatsResponse stats;
  stats.metrics.push_back(obs::MetricSample{.name = "fhg_engine_queries_total",
                                            .kind = obs::MetricKind::kCounter,
                                            .value = 12345});
  stats.metrics.push_back(obs::MetricSample{.name = "fhg_engine_nodes",
                                            .kind = obs::MetricKind::kGauge,
                                            .value = static_cast<std::uint64_t>(-42)});
  obs::Histogram latency;
  latency.record(0);
  latency.record(17);
  latency.record(1u << 19);  // saturates the top bucket
  stats.metrics.push_back(obs::MetricSample{.name = "fhg_service_latency_us{shard=\"1\"}",
                                            .kind = obs::MetricKind::kHistogram,
                                            .value = latency.total(),
                                            .histogram = latency});
  stats.traces.push_back(obs::TraceSample{.trace_id = 7001,
                                          .request_id = 31,
                                          .kind = 0,
                                          .queue_us = 12,
                                          .serve_us = 90,
                                          .total_us = 102});
  responses.push_back(success(std::move(stats)));
  responses.push_back(success(RecoverInfoResponse{.wal_enabled = true,
                                                  .last_durable_holiday = 4096,
                                                  .wal_bytes = 8192,
                                                  .segments = 4,
                                                  .appends = 17,
                                                  .fsyncs = 17,
                                                  .compactions = 2,
                                                  .replayed_batches = 5,
                                                  .replayed_commands = 40,
                                                  .skipped_batches = 1,
                                                  .torn_bytes = 13,
                                                  .durable_batches = 23}));
  responses.push_back(success(HelloResponse{
      .backend = "backend-0", .min_version = kMinSupportedVersion,
      .max_version = kProtocolVersion}));
  responses.push_back(success(SnapshotInstanceResponse{{9, 8, 7, 0, 255}}));
  responses.push_back(success(RestoreInstanceResponse{true}));
  responses.push_back(success(DrainBackendResponse{5}));
  responses.push_back(Response::error(StatusCode::kNotFound, "no instance named 'x'"));
  responses.push_back(Response::error(StatusCode::kQueueFull,
                                      "the owning shard's queue is at capacity"));
  return responses;
}

}  // namespace fhg::api::testing
