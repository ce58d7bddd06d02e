#pragma once

/// \file bitio.hpp
/// Bit-packed byte streams with Elias-delta varints — the library's wire
/// primitive.
///
/// `BitWriter`/`BitReader` pack bits MSB-first into bytes and write every
/// unsigned integer as the Elias delta code of `value + 1` — the same
/// universal code the §4 scheduler is built from, earning its keep as a
/// serialization format: small values (tags, counts, deltas — the
/// overwhelming majority) cost a handful of bits.  Engine snapshots, WAL
/// payloads and the `fhg::api` wire codec are built on this pair, through
/// the record layouts of `fhg/engine/records.hpp`.
///
/// Both directions work a 64-bit word at a time.  The writer emits an
/// integer as at most two shifted words: `γ(len)` and the low `len - 1`
/// bits of `value + 1`, where `len = bit_width(value + 1)`.  The reader
/// peeks a 64-bit window (zero-padded past the end of the input, never read
/// beyond it), finds the `γ` prefix with `std::countl_zero`, and checks the
/// whole codeword against the input length once per integer.
///
/// Decoding is defensive by construction: reading past the end of the input
/// throws `DecodeError` (never reads out of bounds), and
/// `remaining_bits()` lets format layers sanity-check decoded length fields
/// *before* allocating — a corrupt count can never claim more items than the
/// stream still holds bits.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace fhg::coding {

/// The one error every decoder built on `BitReader` throws for malformed
/// input: truncation, implausible counts, and each format layer's own
/// field checks.  A `std::runtime_error`, so callers may catch either.
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Packs bits MSB-first into bytes; integers as Elias delta of `value + 1`.
class BitWriter {
 public:
  /// Appends one bit.
  void put_bit(bool b);
  /// Appends the low `width` bits of `v`, MSB first.  Throws
  /// `std::invalid_argument` when `width > 64`.
  void put_bits(std::uint64_t v, std::uint32_t width);
  /// Appends the Elias delta code of `v + 1`.  Requires `v < 2^64 - 1`;
  /// throws `std::invalid_argument` for `v == 2^64 - 1`.
  void put_uint(std::uint64_t v);
  /// Zero-pads to the next byte boundary (no-op when already aligned).
  void align() noexcept;
  /// Aligns to a byte boundary, then appends `bytes` verbatim — the bulk
  /// path for strings and blobs.
  void put_bytes(std::span<const std::uint8_t> bytes);
  /// Zero-pads to a byte boundary and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  /// The output so far is `bytes_[0, len_)` and then the `acc_bits_` (< 64)
  /// leading bits of `acc_`; the rest of `acc_` is zero.  `put_bits` and
  /// `align` store a whole word at `len_`, so `put_bits` first grows
  /// `bytes_` to at least `len_ + 16` (room for its store and the next
  /// `align`'s); `put_bytes` and `finish` trim it back to `len_`.
  std::vector<std::uint8_t> bytes_;
  std::size_t len_ = 0;
  std::uint64_t acc_ = 0;
  std::uint32_t acc_bits_ = 0;
};

/// Mirror of `BitWriter`.  Throws `DecodeError` on truncated input.
class BitReader {
 public:
  /// Reads from `bytes` (not owned; must outlive the reader).
  explicit BitReader(std::span<const std::uint8_t> bytes) noexcept : bytes_(bytes) {}

  /// Consumes one bit.
  [[nodiscard]] bool get_bit();
  /// Consumes `width` bits, MSB first.  Throws `std::invalid_argument` when
  /// `width > 64`.
  [[nodiscard]] std::uint64_t get_bits(std::uint32_t width);
  /// Consumes one Elias-delta codeword and returns the coded value minus 1.
  /// One bounds check covers the whole codeword.  Throws `DecodeError`
  /// when the input ends inside it, and when it codes a
  /// value above 64 bits (a zero run over 63, or a length field over 64).
  [[nodiscard]] std::uint64_t get_uint();
  /// Skips to the next byte boundary (no-op when already aligned).
  void align() noexcept { next_bit_ = (next_bit_ + 7) / 8 * 8; }
  /// Aligns to a byte boundary, then copies `out.size()` bytes verbatim —
  /// the mirror of `BitWriter::put_bytes`.  Throws on truncated input.
  void get_bytes(std::span<std::uint8_t> out);

  /// Bits left to read — used to sanity-check decoded length fields before
  /// allocating (a corrupt count can't claim more items than bits remain).
  [[nodiscard]] std::uint64_t remaining_bits() const noexcept {
    return bytes_.size() * 8 - next_bit_;
  }

 private:
  /// The 8 bytes from byte `at` as a big-endian word; bytes past the end of
  /// the input read as zero (and are never touched).
  [[nodiscard]] std::uint64_t load(std::size_t at) const noexcept;

  std::span<const std::uint8_t> bytes_;
  std::size_t next_bit_ = 0;
};

/// Guards a decoded length field: `count` items of at least `min_bits_each`
/// cannot exceed what the stream still holds.  Throws `DecodeError`
/// naming `what` otherwise — the shared defense (engine snapshots, the api
/// wire codec) against a corrupt count triggering a huge allocation before
/// truncation is detected.
void check_count(const BitReader& reader, std::uint64_t count, std::uint64_t min_bits_each,
                 const char* what);

}  // namespace fhg::coding
