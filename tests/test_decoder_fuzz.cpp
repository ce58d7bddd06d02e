// Seeded mutation fuzzing of the decoders built on the Elias-delta bit
// reader: api request and response frames and instance snapshot blobs.  The
// seed corpus is the golden api frames plus one instance blob in the
// servebench `migrate` shape; inputs are bit flips, truncations and splices
// of it.  Every input fed to `decode_request`, `decode_response` and
// `restore_instance` must decode or fail typed, never crash or read out of
// bounds (the sanitizer build runs this suite like any other).
//
// The replay paths get the same treatment: whole dynamic-fleet snapshots
// (mutation logs and batch records, bulk segments included) fed to
// `restore_registry`, write-ahead-log segment files damaged the same three
// ways and recovered into a fresh engine, and WAL record payloads fed
// straight to `decode_batch`, past the frame CRC that stops most segment
// mutants.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fhg/api/codec.hpp"
#include "fhg/api/status.hpp"
#include "fhg/coding/bitio.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/engine/records.hpp"
#include "fhg/engine/registry.hpp"
#include "fhg/engine/snapshot.hpp"
#include "fhg/wal/wal.hpp"

#include "api_examples.hpp"
#include "pinned_fixtures.hpp"

namespace fa = fhg::api;
namespace fe = fhg::engine;
namespace fr = fhg::engine::records;
namespace fwal = fhg::wal;
namespace stdfs = std::filesystem;

namespace {

using fhg::testing::Bytes;
using fhg::testing::dynamic_fleet;
using fhg::testing::migrate_blob;
using fhg::testing::read_file;
using fhg::testing::TempDir;

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

void write_file(const stdfs::path& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
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

TEST(DecoderFuzz, MutatedDynamicFleetSnapshotsFailTyped) {
  const Bytes fleet = dynamic_fleet()->snapshot();
  {
    fe::InstanceRegistry registry(2);
    fe::restore_registry(registry, fleet);  // the seed restores
    EXPECT_EQ(fe::snapshot_registry(registry), fleet);
  }
  const std::vector<Bytes> frames = frame_corpus();
  std::mt19937_64 rng(3511);
  int accepted = 0;
  for (int i = 0; i < 1500; ++i) {
    const Bytes& other = rng() % 2 == 0 ? fleet : frames[rng() % frames.size()];
    const Bytes input = mutate(fleet, other, rng);
    fe::InstanceRegistry registry(2);
    try {
      fe::restore_registry(registry, input);
      ++accepted;
      // What restored must serialize again (the replayed state is whole).
      (void)fe::snapshot_registry(registry);
    } catch (const std::runtime_error&) {
      // the typed failure
    } catch (const std::exception& e) {
      ADD_FAILURE() << "fleet mutant " << i << ": restore_registry threw a non-runtime_error: "
                    << e.what();
    }
  }
  EXPECT_GT(accepted, 0);  // some flips land in values, not structure
}

TEST(DecoderFuzz, MutatedWalSegmentsRecoverOrFailTyped) {
  // A base snapshot plus two shards of segments holding per-command and
  // bulk batches, written by a live engine.
  TempDir base;
  fhg::testing::write_wal_run(base.path());
  std::vector<stdfs::path> names;
  std::vector<Bytes> files;
  for (const auto& entry : stdfs::directory_iterator(base.path())) {
    names.push_back(entry.path().filename());
    files.push_back(read_file(entry.path()));
  }
  std::vector<std::size_t> segments;
  for (std::size_t f = 0; f < names.size(); ++f) {
    if (names[f].string().ends_with(".log")) {
      segments.push_back(f);
    }
  }
  ASSERT_GE(segments.size(), 2U);

  std::mt19937_64 rng(4093);
  int recovered = 0;
  for (int i = 0; i < 300; ++i) {
    TempDir scratch;
    const std::size_t victim = segments[rng() % segments.size()];
    const std::size_t partner = segments[rng() % segments.size()];
    for (std::size_t f = 0; f < names.size(); ++f) {
      write_file(stdfs::path(scratch.path()) / names[f],
                 f == victim ? mutate(files[f], files[partner], rng) : files[f]);
    }
    fe::Engine engine({.shards = 2, .threads = 1});
    try {
      fwal::Manager manager(engine, {.dir = scratch.path(), .shards = 2, .fsync_every = 0});
      (void)manager.recover();
      ++recovered;
      // The replayed tenants round-trip: recovery left a whole state.
      const Bytes state = engine.snapshot();
      fe::InstanceRegistry again(2);
      fe::restore_registry(again, state);
      EXPECT_EQ(fe::snapshot_registry(again), state) << "segment mutant " << i;
    } catch (const std::runtime_error&) {
      // the typed failure (std::system_error included)
    } catch (const std::exception& e) {
      ADD_FAILURE() << "segment mutant " << i << ": recover threw a non-runtime_error: "
                    << e.what();
    }
  }
  EXPECT_GT(recovered, 0);  // torn tails truncate and recover
}

TEST(DecoderFuzz, MutatedWalPayloadsDecodeOrFailTyped) {
  TempDir dir;
  fhg::testing::write_wal_run(dir.path());
  const std::vector<Bytes> payloads = fhg::testing::wal_payloads(dir.path());
  ASSERT_FALSE(payloads.empty());
  for (const Bytes& payload : payloads) {  // the seeds decode and re-encode exactly
    const fr::CommittedBatch batch = fr::decode_batch(payload);
    EXPECT_EQ(fr::encode_batch({.instance = batch.instance,
                                .commands = batch.commands,
                                .record = batch.record,
                                .batch_index = batch.batch_index,
                                .holiday = batch.holiday}),
              payload);
  }
  std::mt19937_64 rng(5147);
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const Bytes& base = payloads[rng() % payloads.size()];
    const Bytes& other = payloads[rng() % payloads.size()];
    try {
      const fr::CommittedBatch batch = fr::decode_batch(mutate(base, other, rng));
      EXPECT_EQ(batch.record.size, batch.commands.size()) << "payload mutant " << i;
      ++accepted;
    } catch (const fhg::coding::DecodeError&) {
      // the typed failure
    } catch (const std::exception& e) {
      ADD_FAILURE() << "payload mutant " << i << ": decode_batch threw a non-DecodeError: "
                    << e.what();
    }
  }
  EXPECT_GT(accepted, 0);  // some flips land in values, not structure
}
