// Seeded mutation fuzzing of the decoders built on the Elias-delta bit
// reader: api request and response frames and instance snapshot blobs.  The
// seed corpus is the golden api frames plus one instance blob in the
// servebench `migrate` shape; inputs are bit flips, truncations and splices
// of it.  Every input fed to `decode_request`, `decode_response` and
// `restore_instance` must decode or fail typed, never crash or read out of
// bounds (the sanitizer build runs this suite like any other).

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fhg/api/codec.hpp"
#include "fhg/api/status.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/engine/snapshot.hpp"
#include "fhg/workload/scenario.hpp"

#include "api_examples.hpp"

namespace fa = fhg::api;
namespace fe = fhg::engine;
namespace fw = fhg::workload;

namespace {

using Bytes = std::vector<std::uint8_t>;

std::vector<Bytes> frame_corpus() {
  std::vector<Bytes> frames;
  std::uint64_t id = 1;
  for (const fa::Request& request : fa::testing::all_request_kinds()) {
    frames.push_back(fa::encode_request(id++, request));
  }
  for (const fa::Response& response : fa::testing::all_response_kinds()) {
    frames.push_back(fa::encode_response(id++, response));
  }
  return frames;
}

/// One 1024-node tenant of `power-law:fleet=128,nodes=1024,aperiodic=0`,
/// stepped off holiday 0, as the blob `SnapshotInstance` returns.
Bytes migrate_blob() {
  const auto spec = fw::parse_scenario("power-law:fleet=128,nodes=1024,aperiodic=0");
  const fw::ScenarioGenerator generator(*spec);
  fw::TenantSpec tenant = generator.tenant(0);
  fe::Engine engine({.shards = 1, .threads = 1});
  (void)engine.create_instance(tenant.name, std::move(tenant.graph), tenant.spec);
  engine.step_all(37);
  Bytes blob;
  EXPECT_TRUE(engine.snapshot_instance(tenant.name, blob).ok());
  return blob;
}

/// A seeded mutant of `base`: 1–4 bit flips, a truncation, or a splice with
/// `other`.  A mutated api frame gets its length field re-patched half the
/// time, so the damage reaches the payload decoder instead of stopping at
/// the frame header.
Bytes mutate(const Bytes& base, const Bytes& other, std::mt19937_64& rng) {
  Bytes out = base;
  switch (rng() % 3) {
    case 0:
      for (std::uint64_t flips = 1 + rng() % 4; flips > 0 && !out.empty(); --flips) {
        const std::uint64_t bit = rng() % (out.size() * 8);
        out[bit / 8] ^= static_cast<std::uint8_t>(0x80U >> (bit % 8));
      }
      break;
    case 1:
      out.resize(rng() % (out.size() + 1));
      break;
    default: {
      out.resize(rng() % (out.size() + 1));
      const std::size_t from = rng() % (other.size() + 1);
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
      break;
    }
  }
  const bool framed = out.size() >= 8 && out[0] == 'F' && out[1] == 'H' && out[2] == 'G';
  if (framed && rng() % 2 == 0) {
    const auto length = static_cast<std::uint32_t>(out.size() - 8);
    for (int i = 0; i < 4; ++i) {
      out[4 + i] = static_cast<std::uint8_t>(length >> (24 - 8 * i));
    }
  }
  return out;
}

bool typed(const fa::Status& status) {
  return status.ok() || status.code == fa::StatusCode::kDecodeError ||
         status.code == fa::StatusCode::kUnsupportedVersion;
}

/// Feeds `input` to all three decoders; returns how many accepted it.
int expect_decodes_or_fails_typed(const Bytes& input, const std::string& what) {
  int accepted = 0;
  try {
    fa::DecodedRequest request;
    const fa::Status status = fa::decode_request(input, request);
    EXPECT_TRUE(typed(status)) << what << ": decode_request " << status.detail;
    accepted += status.ok() ? 1 : 0;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": decode_request threw " << e.what();
  }
  try {
    fa::DecodedResponse response;
    const fa::Status status = fa::decode_response(input, response);
    EXPECT_TRUE(typed(status)) << what << ": decode_response " << status.detail;
    accepted += status.ok() ? 1 : 0;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": decode_response threw " << e.what();
  }
  try {
    EXPECT_NE(fe::restore_instance(input), nullptr) << what;
    ++accepted;
  } catch (const std::runtime_error&) {
    // the typed failure
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": restore_instance threw a non-runtime_error: " << e.what();
  }
  return accepted;
}

}  // namespace

TEST(DecoderFuzz, SeedCorpusDecodes) {
  for (const Bytes& frame : frame_corpus()) {
    EXPECT_GE(expect_decodes_or_fails_typed(frame, "golden frame"), 1);
  }
  EXPECT_EQ(expect_decodes_or_fails_typed(migrate_blob(), "migrate blob"), 1);
}

TEST(DecoderFuzz, MutatedFramesFailTyped) {
  const std::vector<Bytes> corpus = frame_corpus();
  std::mt19937_64 rng(1408);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const Bytes& base = corpus[rng() % corpus.size()];
    const Bytes& other = corpus[rng() % corpus.size()];
    accepted += expect_decodes_or_fails_typed(mutate(base, other, rng),
                                              "frame mutant " + std::to_string(i));
  }
  // Not vacuous: some mutants still decode, so the payload decoders ran.
  EXPECT_GT(accepted, 0);  // some flips land in values, not structure
}

TEST(DecoderFuzz, MutatedInstanceBlobsFailTyped) {
  const Bytes blob = migrate_blob();
  const std::vector<Bytes> frames = frame_corpus();
  std::mt19937_64 rng(2279);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    // Splice partners: the blob itself (a shifted copy) or a frame.
    const Bytes& other = rng() % 2 == 0 ? blob : frames[rng() % frames.size()];
    accepted += expect_decodes_or_fails_typed(mutate(blob, other, rng),
                                              "blob mutant " + std::to_string(i));
  }
  EXPECT_GT(accepted, 0);  // some flips land in values, not structure
}
