// Tests for fhg::api — the unified protocol surface and its versioned wire
// codec: status vocabulary, round trips for every request/response kind, and
// strict decode validation (truncated frames, bad magic, wrong version,
// oversized length prefixes, unknown tags, implausible counts) failing with
// typed statuses instead of UB or unbounded allocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "fhg/api/codec.hpp"
#include "fhg/api/protocol.hpp"
#include "fhg/api/status.hpp"
#include "fhg/coding/bitio.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/spec.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/obs/trace.hpp"

#include "api_examples.hpp"

namespace fa = fhg::api;
namespace fc = fhg::coding;
namespace fd = fhg::dynamic;
namespace fe = fhg::engine;

namespace {

using fa::testing::all_request_kinds;
using fa::testing::all_response_kinds;

/// Wraps raw payload bytes in a frame header (magic + big-endian length).
std::vector<std::uint8_t> frame_of(const std::vector<std::uint8_t>& payload,
                                   std::uint32_t magic = fa::kFrameMagic,
                                   std::optional<std::uint32_t> forced_length = std::nullopt) {
  std::vector<std::uint8_t> frame;
  const std::uint32_t length =
      forced_length.value_or(static_cast<std::uint32_t>(payload.size()));
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<std::uint8_t>(magic >> shift));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<std::uint8_t>(length >> shift));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

}  // namespace

// ------------------------------------------------------------- status ------

TEST(ApiStatus, NamesCoverEveryCodeAndKeepRejectSpellings) {
  // The admission names must match the historical service::reject_name
  // spellings — log grep compatibility is part of the contract.
  EXPECT_EQ(fa::status_name(fa::StatusCode::kQueueFull), "queue-full");
  EXPECT_EQ(fa::status_name(fa::StatusCode::kStopped), "stopped");
  for (std::uint64_t code = 0; code < fa::kNumStatusCodes; ++code) {
    EXPECT_NE(fa::status_name(static_cast<fa::StatusCode>(code)), "unknown") << code;
  }
}

TEST(ApiStatus, OkAndErrorHelpers) {
  EXPECT_TRUE(fa::Status::good().ok());
  EXPECT_TRUE(fa::Status::good().detail.empty());
  const fa::Status status = fa::Status::error(fa::StatusCode::kDecodeError, "bad frame");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.name(), "decode-error");
  EXPECT_EQ(status.detail, "bad frame");
}

TEST(ApiProtocol, KindNamesAndRoutingInstance) {
  const auto requests = all_request_kinds();
  ASSERT_EQ(requests.size(), fa::kNumRequestKinds);
  EXPECT_EQ(fa::request_kind_name(0), "is-happy");
  EXPECT_EQ(fa::request_kind_name(7), "restore");
  EXPECT_EQ(fa::request_kind_name(8), "get-stats");
  EXPECT_EQ(fa::request_kind_name(9), "recover-info");
  EXPECT_EQ(fa::request_kind_name(10), "hello");
  EXPECT_EQ(fa::request_kind_name(11), "snapshot-instance");
  EXPECT_EQ(fa::request_kind_name(12), "restore-instance");
  EXPECT_EQ(fa::request_kind_name(13), "drain-backend");
  EXPECT_EQ(fa::request_kind_name(99), "unknown");
  // Instance-addressed kinds route by name; tenancy-wide kinds route empty.
  EXPECT_EQ(fa::routing_instance(requests[0]), "acme");
  EXPECT_EQ(fa::routing_instance(requests[2]), "dyn");
  EXPECT_EQ(fa::routing_instance(requests[3]), "fresh");
  EXPECT_EQ(fa::routing_instance(requests[5]), "");
  EXPECT_EQ(fa::routing_instance(requests[6]), "");
  EXPECT_EQ(fa::routing_instance(requests[7]), "");
  EXPECT_EQ(fa::routing_instance(requests[8]), "");
  EXPECT_EQ(fa::routing_instance(requests[9]), "");
  EXPECT_EQ(fa::routing_instance(requests[10]), "");
  // The migration pair routes by the migrating tenant's name, so snapshot
  // and adopt serialize with that tenant's other lifecycle traffic.
  EXPECT_EQ(fa::routing_instance(requests[11]), "acme");
  EXPECT_EQ(fa::routing_instance(requests[12]), "acme");
  EXPECT_EQ(fa::routing_instance(requests[13]), "");
}

TEST(ApiProtocol, IdempotenceTableCoversEveryKind) {
  // Reads and probes retry safely; mutations, lifecycle, and migration
  // verbs must not be replayed after an ambiguous failure.
  EXPECT_TRUE(fa::request_is_idempotent(0));    // is-happy
  EXPECT_TRUE(fa::request_is_idempotent(1));    // next-gathering
  EXPECT_FALSE(fa::request_is_idempotent(2));   // apply-mutations
  EXPECT_FALSE(fa::request_is_idempotent(3));   // create-instance
  EXPECT_FALSE(fa::request_is_idempotent(4));   // erase-instance
  EXPECT_TRUE(fa::request_is_idempotent(5));    // list-instances
  EXPECT_TRUE(fa::request_is_idempotent(6));    // snapshot
  EXPECT_FALSE(fa::request_is_idempotent(7));   // restore
  EXPECT_TRUE(fa::request_is_idempotent(8));    // get-stats
  EXPECT_TRUE(fa::request_is_idempotent(9));    // recover-info
  EXPECT_TRUE(fa::request_is_idempotent(10));   // hello
  EXPECT_TRUE(fa::request_is_idempotent(11));   // snapshot-instance
  EXPECT_FALSE(fa::request_is_idempotent(12));  // restore-instance
  EXPECT_FALSE(fa::request_is_idempotent(13));  // drain-backend
  EXPECT_FALSE(fa::request_is_idempotent(99));  // out of range: never retry
}

// --------------------------------------------------------- round trips -----

TEST(ApiCodec, EveryRequestKindRoundTrips) {
  std::uint64_t id = 100;
  for (const fa::Request& request : all_request_kinds()) {
    const auto frame = fa::encode_request(++id, request);
    fa::DecodedRequest decoded;
    const fa::Status status = fa::decode_request(frame, decoded);
    ASSERT_TRUE(status.ok()) << status.detail;
    EXPECT_EQ(decoded.protocol_version, fa::kProtocolVersion);
    EXPECT_EQ(decoded.request_id, id);
    EXPECT_EQ(decoded.request, request) << "kind " << fa::request_kind_name(request.index());
  }
}

TEST(ApiCodec, EveryResponseKindRoundTrips) {
  std::uint64_t id = 200;
  for (const fa::Response& response : all_response_kinds()) {
    const auto frame = fa::encode_response(++id, response);
    fa::DecodedResponse decoded;
    const fa::Status status = fa::decode_response(frame, decoded);
    ASSERT_TRUE(status.ok()) << status.detail;
    EXPECT_EQ(decoded.request_id, id);
    EXPECT_EQ(decoded.response, response) << "payload " << response.payload.index();
  }
}

TEST(ApiCodec, EncodingIsDeterministic) {
  const fa::Request request = fa::IsHappyRequest{"acme", 7, 99};
  EXPECT_EQ(fa::encode_request(1, request), fa::encode_request(1, request));
  EXPECT_NE(fa::encode_request(1, request), fa::encode_request(2, request));
}

// --------------------------------------------------- adversarial decode ----

TEST(ApiCodec, TruncatedFramesFailTypedAtEveryLength) {
  const auto frame =
      fa::encode_request(7, fa::ApplyMutationsRequest{"dyn", {fd::insert_edge_command(0, 1)}});
  for (std::size_t length = 0; length < frame.size(); ++length) {
    fa::DecodedRequest decoded;
    const fa::Status status =
        fa::decode_request(std::span(frame.data(), length), decoded);
    EXPECT_EQ(status.code, fa::StatusCode::kDecodeError) << "prefix length " << length;
  }
}

TEST(ApiCodec, TruncatedPayloadWithPatchedLengthFailsTyped) {
  // Re-frame a truncated payload with a *consistent* length prefix, so the
  // failure comes from the bit stream running dry, not the length check.
  const auto frame = fa::encode_request(7, fa::IsHappyRequest{"acme", 7, 123456789});
  const std::vector<std::uint8_t> payload(frame.begin() + 8, frame.end() - 2);
  fa::DecodedRequest decoded;
  const fa::Status status = fa::decode_request(frame_of(payload), decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kDecodeError);
}

TEST(ApiCodec, BadMagicFailsTyped) {
  const auto frame = fa::encode_request(1, fa::SnapshotRequest{});
  const std::vector<std::uint8_t> payload(frame.begin() + 8, frame.end());
  fa::DecodedRequest decoded;
  const fa::Status status = fa::decode_request(frame_of(payload, 0x46484753), decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kDecodeError);
}

TEST(ApiCodec, OversizedLengthPrefixFailsTypedWithoutAllocating) {
  // A hostile length prefix claiming ~4 GiB must be refused from the 8
  // header bytes alone.
  const std::vector<std::uint8_t> payload;
  fa::DecodedRequest decoded;
  const fa::Status status =
      fa::decode_request(frame_of(payload, fa::kFrameMagic, 0xFFFFFFFF), decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kDecodeError);
}

TEST(ApiCodec, LengthMismatchFailsTyped) {
  const auto frame = fa::encode_request(1, fa::SnapshotRequest{});
  const std::vector<std::uint8_t> payload(frame.begin() + 8, frame.end());
  fa::DecodedRequest decoded;
  // Claim one byte fewer than present.
  const fa::Status status = fa::decode_request(
      frame_of(payload, fa::kFrameMagic, static_cast<std::uint32_t>(payload.size() - 1)),
      decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kDecodeError);
}

TEST(ApiCodec, WrongVersionFailsTypedAndPreservesRequestId) {
  const auto frame =
      fa::encode_request(4242, fa::IsHappyRequest{"acme", 1, 2}, /*version=*/7);
  fa::DecodedRequest decoded;
  const fa::Status status = fa::decode_request(frame, decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kUnsupportedVersion);
  // The prologue is version-invariant, so the server can address its typed
  // refusal to the right request.
  EXPECT_EQ(decoded.request_id, 4242u);
}

TEST(ApiCodec, V1FramesStillDecodeUnderTheV2Build) {
  // A v1 peer's frames keep decoding: the version range is [min, current],
  // not an exact match.
  const fa::Request request = fa::IsHappyRequest{"acme", 7, 9};
  const auto frame = fa::encode_request(11, request, /*version=*/1);
  fa::DecodedRequest decoded;
  ASSERT_TRUE(fa::decode_request(frame, decoded).ok());
  EXPECT_EQ(decoded.protocol_version, 1u);
  EXPECT_EQ(decoded.request, request);
}

TEST(ApiCodec, V2KindsInsideAV1FrameFailTyped) {
  // A frame claiming v1 must not smuggle v2 vocabulary: the tag gate turns
  // it into a decode error rather than a silently mis-versioned exchange.
  const auto frame = fa::encode_request(12, fa::HelloRequest{}, /*version=*/1);
  fa::DecodedRequest decoded;
  const fa::Status status = fa::decode_request(frame, decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kDecodeError);

  const auto response_frame =
      fa::encode_response(13, [] {
        fa::Response r;
        r.payload = fa::DrainBackendResponse{2};
        return r;
      }(), /*version=*/1);
  fa::DecodedResponse response;
  EXPECT_EQ(fa::decode_response(response_frame, response).code,
            fa::StatusCode::kDecodeError);
}

TEST(ApiCodec, UnknownRequestTagFailsTyped) {
  fc::BitWriter w;
  w.put_uint(fa::kProtocolVersion);
  w.put_uint(1);                      // request id
  w.put_uint(fa::kNumRequestKinds);   // first invalid tag
  fa::DecodedRequest decoded;
  const fa::Status status = fa::decode_request(frame_of(w.finish()), decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kDecodeError);
}

TEST(ApiCodec, ImplausibleCountFailsTypedBeforeAllocating) {
  // An ApplyMutations body claiming 2^40 commands in a tiny frame must be
  // rejected by the remaining-bits plausibility check, not by attempting a
  // terabyte-scale reserve.
  fc::BitWriter w;
  w.put_uint(fa::kProtocolVersion);
  w.put_uint(1);  // request id
  w.put_uint(2);  // ApplyMutations tag
  w.put_uint(3);  // instance name length
  const std::uint8_t name[] = {'d', 'y', 'n'};
  w.put_bytes(name);  // strings are byte-aligned on the wire
  w.put_uint(std::uint64_t{1} << 40);  // command count
  fa::DecodedRequest decoded;
  const fa::Status status = fa::decode_request(frame_of(w.finish()), decoded);
  EXPECT_EQ(status.code, fa::StatusCode::kDecodeError);
}

TEST(ApiCodec, OutOfRangeEnumValuesFailTyped) {
  // Mutation op 3 does not exist.
  fc::BitWriter w;
  w.put_uint(fa::kProtocolVersion);
  w.put_uint(1);
  w.put_uint(2);  // ApplyMutations tag
  w.put_uint(1);  // name length
  const std::uint8_t name[] = {'d'};
  w.put_bytes(name);  // strings are byte-aligned on the wire
  w.put_uint(1);  // one command
  w.put_uint(3);  // invalid op
  fa::DecodedRequest decoded;
  EXPECT_EQ(fa::decode_request(frame_of(w.finish()), decoded).code,
            fa::StatusCode::kDecodeError);

  // Status code past the vocabulary fails the response decoder.
  fc::BitWriter r;
  r.put_uint(fa::kProtocolVersion);
  r.put_uint(1);
  r.put_uint(fa::kNumStatusCodes);  // first invalid status code
  fa::DecodedResponse response;
  EXPECT_EQ(fa::decode_response(frame_of(r.finish()), response).code,
            fa::StatusCode::kDecodeError);
}

// ------------------------------------------------------- frame assembly ----

TEST(ApiFrameAssembler, ReassemblesByteByByteAndBackToBack) {
  const auto first = fa::encode_request(1, fa::IsHappyRequest{"acme", 7, 9});
  const auto second = fa::encode_request(2, fa::ListInstancesRequest{});
  std::vector<std::uint8_t> wire = first;
  wire.insert(wire.end(), second.begin(), second.end());

  fa::FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const std::uint8_t byte : wire) {
    ASSERT_TRUE(assembler.feed({&byte, 1}).ok());
    while (auto frame = assembler.next()) {
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], first);
  EXPECT_EQ(frames[1], second);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(ApiFrameAssembler, BadMagicPoisonsTheStream) {
  fa::FrameAssembler assembler;
  const std::vector<std::uint8_t> garbage{'G', 'A', 'R', 'B', 0, 0, 0, 1, 42};
  EXPECT_EQ(assembler.feed(garbage).code, fa::StatusCode::kDecodeError);
  EXPECT_FALSE(assembler.next().has_value());
  // Sticky: even a valid frame afterwards cannot resynchronize the stream.
  const auto valid = fa::encode_request(1, fa::SnapshotRequest{});
  EXPECT_EQ(assembler.feed(valid).code, fa::StatusCode::kDecodeError);
  EXPECT_FALSE(assembler.next().has_value());
}

TEST(ApiFrameAssembler, OversizedLengthPrefixPoisonsImmediately) {
  fa::FrameAssembler small(/*max_payload=*/16);
  const auto frame = fa::encode_request(1, fa::IsHappyRequest{"a-rather-long-name", 1, 2});
  ASSERT_GT(frame.size(), 16u + fa::kFrameHeaderBytes);
  // The header alone condemns the frame — no buffering of the bogus body.
  EXPECT_EQ(small.feed(std::span(frame.data(), fa::kFrameHeaderBytes)).code,
            fa::StatusCode::kDecodeError);
}

TEST(ApiFrameAssembler, ResetClearsPartialBytesAndStickyErrors) {
  const auto frame = fa::encode_request(1, fa::IsHappyRequest{"acme", 7, 9});

  // Half a frame buffered (a connection died mid-response)...
  fa::FrameAssembler assembler;
  ASSERT_TRUE(assembler.feed(std::span(frame.data(), frame.size() / 2)).ok());
  ASSERT_GT(assembler.buffered(), 0u);
  // ...reset drops it, so the replacement connection's first frame is not
  // parsed against the dead one's leftover prefix.
  assembler.reset();
  EXPECT_EQ(assembler.buffered(), 0u);
  ASSERT_TRUE(assembler.feed(frame).ok());
  auto reassembled = assembler.next();
  ASSERT_TRUE(reassembled.has_value());
  EXPECT_EQ(*reassembled, frame);

  // Reset also clears the sticky poison, unlike any amount of valid input.
  const std::vector<std::uint8_t> garbage{'G', 'A', 'R', 'B', 0, 0, 0, 1, 42};
  EXPECT_EQ(assembler.feed(garbage).code, fa::StatusCode::kDecodeError);
  assembler.reset();
  EXPECT_TRUE(assembler.error().ok());
  ASSERT_TRUE(assembler.feed(frame).ok());
  EXPECT_TRUE(assembler.next().has_value());
}

TEST(ApiFrameAssembler, ValidatesTheHeaderBehindAPoppedFrame) {
  const auto valid = fa::encode_request(1, fa::SnapshotRequest{});
  std::vector<std::uint8_t> wire = valid;
  const std::vector<std::uint8_t> garbage{'X', 'X', 'X', 'X', 0, 0, 0, 0};
  wire.insert(wire.end(), garbage.begin(), garbage.end());
  fa::FrameAssembler assembler;
  // Feeding is fine while the garbage hides behind the valid front frame...
  ASSERT_TRUE(assembler.feed(wire).ok());
  ASSERT_TRUE(assembler.next().has_value());
  // ...but popping the valid frame exposes — and condemns — the bad header.
  EXPECT_EQ(assembler.error().code, fa::StatusCode::kDecodeError);
  EXPECT_FALSE(assembler.next().has_value());
}

// ------------------------------------------------------- trace envelope ----

TEST(ApiEnvelope, TraceIdRoundTripsThroughTheCodec) {
  const fa::Request request = fa::IsHappyRequest{"acme", 7, 123456789};
  const auto frame = fa::encode_request(42, request, fa::kProtocolVersion, 0xABCDEF12345ULL);
  fa::DecodedRequest decoded;
  ASSERT_TRUE(fa::decode_request(frame, decoded).ok());
  EXPECT_EQ(decoded.trace_id, 0xABCDEF12345ULL);
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.request, request);
}

TEST(ApiEnvelope, AbsentEnvelopeDecodesAsUntraced) {
  // Trace id zero writes no envelope at all: the frame is byte-identical to
  // what a pre-envelope encoder produced, and decodes as untraced.
  const fa::Request request = fa::NextGatheringRequest{"acme", 3, 42};
  const auto untraced = fa::encode_request(7, request, fa::kProtocolVersion, 0);
  const auto default_encoded = fa::encode_request(7, request);
  EXPECT_EQ(untraced, default_encoded);
  fa::DecodedRequest decoded;
  ASSERT_TRUE(fa::decode_request(untraced, decoded).ok());
  EXPECT_EQ(decoded.trace_id, 0u);
  // A traced frame is strictly longer: the envelope is a real suffix.
  const auto traced = fa::encode_request(7, request, fa::kProtocolVersion, 99);
  EXPECT_GT(traced.size(), untraced.size());
}

TEST(ApiEnvelope, UnknownEnvelopeFieldsAreSkippedForForwardCompat) {
  // A future peer may append envelope fields this decoder has never heard
  // of.  Hand-build such an envelope: two fields, the first with an unknown
  // tag, the second the trace id.  The decoder must skip the stranger and
  // still capture the trace.
  const fa::Request request = fa::SnapshotRequest{};
  const auto plain = fa::encode_request(5, request);  // no envelope
  std::vector<std::uint8_t> payload(plain.begin() + fa::kFrameHeaderBytes, plain.end());
  fc::BitWriter envelope;
  envelope.put_uint(2);       // field count
  envelope.put_uint(777);     // unknown tag...
  envelope.put_uint(424242);  // ...with a value to skip
  envelope.put_uint(fa::kEnvelopeTraceId);
  envelope.put_uint(31337);
  const auto extra = envelope.finish();
  payload.insert(payload.end(), extra.begin(), extra.end());
  fa::DecodedRequest decoded;
  ASSERT_TRUE(fa::decode_request(frame_of(payload), decoded).ok());
  EXPECT_EQ(decoded.trace_id, 31337u);
  EXPECT_EQ(decoded.request, request);
}

TEST(ApiEnvelope, TruncatedEnvelopeFailsTyped) {
  const fa::Request request = fa::SnapshotRequest{};
  const auto plain = fa::encode_request(5, request);
  std::vector<std::uint8_t> payload(plain.begin() + fa::kFrameHeaderBytes, plain.end());
  fc::BitWriter envelope;
  envelope.put_uint(3);  // claims three fields, delivers one
  envelope.put_uint(fa::kEnvelopeTraceId);
  envelope.put_uint(1);
  const auto extra = envelope.finish();
  payload.insert(payload.end(), extra.begin(), extra.end());
  fa::DecodedRequest decoded;
  EXPECT_EQ(fa::decode_request(frame_of(payload), decoded).code,
            fa::StatusCode::kDecodeError);
}
