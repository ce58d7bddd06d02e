// Checked-in bytes for every persisted and wire record layout.
//
// The compatibility contract of this library is the bytes: api frames
// (protocol v1 and v2), snapshots v1–v3, and WAL record payloads.  Round-trip
// tests cannot see a layout drift that the encoder and decoder share, so
// this suite compares encoder output against bytes recorded once and checked
// in.  Small artifacts are pinned as full hex; seeded large ones by length
// and 64-bit FNV-1a digest.  A failure here means a format changed: either
// the change is a bug, or it needs a new version and new pinned bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "fhg/api/codec.hpp"
#include "fhg/api/protocol.hpp"
#include "fhg/engine/engine.hpp"

#include "api_examples.hpp"
#include "pinned_fixtures.hpp"

namespace fa = fhg::api;
namespace fe = fhg::engine;
namespace ft = fhg::testing;

namespace {

/// `encode_request(i + 1, all_request_kinds()[i])`, protocol v2.
constexpr std::string_view kRequestFrames[] = {
    "464847410000000c54b461636d65200deb79a2c0",
    "464847410000000955468061636d656196",
    "464847410000000b562b0064796e668e4ab178",
    "464847410000001356b1c066726573687b288ad7394f2318d21288",
    "46484741000000075735a0676f6e65",
    "464847410000000257b8",
    "4648474100000003520780",
    "464847410000000a52120780deadbeef0042",
    "4648474100000003522214",
    "4648474100000003523220",
    "4648474100000003524230",
    "46484741000000085252468061636d65",
    "464847410000000d5262568061636d6568feed0017",
    "464847410000000d527262206261636b656e642d32",
};

/// `encode_response(i + 1, all_response_kinds()[i])`, protocol v2.
constexpr std::string_view kResponseFrames[] = {
    "464847410000000354c048",
    "464847410000000555c0516008",
    "46484741000000055660631480",
    "464847410000000356e068",
    "4648474100000003576070",
    "464847410000001057e07ab461636d6561a33064796e7916",
    "4648474100000009520c2070010203ff00",
    "4648474100000005521c211401",
    "4648474100000064522c2261646668675f656e67696e655f717565726965735f746f74616c8e81d1446668675f65"
    "6e67696e655f6e6f64657343a861006668675f736572766963655f6c6174656e63795f75737b73686172643d2231"
    "227d52aa7a7ffd106dad181253b679c0",
    "4648474100000010523c238d0011c0016948a4ae325098b0",
    "464847410000000e524c24226261636b656e642d3045",
    "4648474100000009525c257009080700ff",
    "4648474100000004526c2680",
    "4648474100000004527c2770",
    "464847410000001a52830ac06e6f20696e7374616e6365206e616d65642027782780",
    "464847410000002c528a1900746865206f776e696e67207368617264277320717565756520697320617420636170"
    "616369747980",
};

struct Digest {
  std::size_t length;
  std::uint64_t fnv;
};

void expect_digest(const ft::Bytes& bytes, Digest pinned, const char* what) {
  EXPECT_EQ(bytes.size(), pinned.length) << what;
  EXPECT_EQ(ft::fnv1a(bytes), pinned.fnv) << what;
}

}  // namespace

TEST(PinnedBytes, EveryRequestFrame) {
  const std::vector<fa::Request> requests = fa::testing::all_request_kinds();
  ASSERT_EQ(requests.size(), std::size(kRequestFrames));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(ft::to_hex(fa::encode_request(i + 1, requests[i])), kRequestFrames[i])
        << fa::request_kind_name(requests[i].index());
  }
}

TEST(PinnedBytes, EveryResponseFrame) {
  const std::vector<fa::Response> responses = fa::testing::all_response_kinds();
  ASSERT_EQ(responses.size(), std::size(kResponseFrames));
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(ft::to_hex(fa::encode_response(i + 1, responses[i])), kResponseFrames[i])
        << "response " << i;
  }
}

TEST(PinnedBytes, ProtocolV1AndTracedFrames) {
  const std::vector<fa::Request> requests = fa::testing::all_request_kinds();
  EXPECT_EQ(ft::to_hex(fa::encode_request(8, requests[2], 1)),
            "464847410000000b42156064796e668e4ab178");
  EXPECT_EQ(ft::to_hex(fa::encode_response(9, fa::testing::all_response_kinds()[2], 1)),
            "4648474100000005422c631480");
  EXPECT_EQ(ft::to_hex(fa::encode_request(7, requests[0], fa::kProtocolVersion, 0xABCDEF)),
            "4648474100000012520b4061636d65200deb79a2c0440c2bcdf0");
}

TEST(PinnedBytes, SnapshotV1FixtureRestoresToPinnedV3) {
  fe::Engine engine({.shards = 2, .threads = 1});
  engine.load_snapshot(ft::from_hex(ft::kSnapshotV1Hex));
  ASSERT_EQ(engine.registry().size(), 2U);
  EXPECT_EQ(engine.find("deg")->spec().kind, fe::SchedulerKind::kDegreeBound);
  EXPECT_EQ(engine.find("stat")->current_holiday(), 4U);
  expect_digest(engine.snapshot(), {38, 0x22cdf9330f83fff2ULL}, "v1 fixture as v3");
}

TEST(PinnedBytes, SnapshotV2FixtureRestoresToPinnedV3) {
  fe::Engine engine({.shards = 2, .threads = 1});
  engine.load_snapshot(ft::from_hex(ft::kSnapshotV2Hex));
  ASSERT_EQ(engine.registry().size(), 2U);
  EXPECT_EQ(engine.find("dyn")->mutation_log().size(), 4U);
  EXPECT_EQ(engine.find("dyn")->spec().slack, 1U);
  EXPECT_EQ(engine.find("dyn")->current_holiday(), 6U);
  expect_digest(engine.snapshot(), {46, 0x135283f4afd03477ULL}, "v2 fixture as v3");
}

TEST(PinnedBytes, DynamicFleetSnapshot) {
  expect_digest(ft::dynamic_fleet()->snapshot(), {1412, 0x2f8da2fae3843b1eULL}, "fleet");
}

TEST(PinnedBytes, MigrateBlob) {
  expect_digest(ft::migrate_blob(), {5859, 0xb25e197af253b70cULL}, "migrate blob");
}

TEST(PinnedBytes, WalRecordPayloads) {
  ft::TempDir dir;
  ft::write_wal_run(dir.path());
  const std::vector<ft::Bytes> payloads = ft::wal_payloads(dir.path());
  ASSERT_EQ(payloads.size(), 18U);
  ft::Bytes all;
  for (const ft::Bytes& payload : payloads) {
    all.insert(all.end(), payload.begin(), payload.end());
  }
  expect_digest(all, {402, 0xc88f5a35a7a94524ULL}, "wal payloads");
}
