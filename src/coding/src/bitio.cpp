#include "fhg/coding/bitio.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace fhg::coding {

namespace {

[[noreturn]] void throw_truncated() {
  throw DecodeError("bitio: truncated bit stream");
}

[[noreturn]] void throw_bad_width(const char* where, std::uint32_t width) {
  throw std::invalid_argument(std::string(where) + ": width " + std::to_string(width) +
                              " exceeds 64 bits");
}

/// The low `width` bits set; `width < 64`.
constexpr std::uint64_t low_mask(std::uint32_t width) noexcept {
  return (std::uint64_t{1} << width) - 1;
}

/// The leading `width` bits of `word`, right-aligned; `width <= 64`.
constexpr std::uint64_t top_bits(std::uint64_t word, std::uint32_t width) noexcept {
  return width == 0 ? 0 : word >> (64 - width);
}

/// The 64 bits starting `offset` (< 64) bits into the 128-bit `hi ∘ lo`.
constexpr std::uint64_t bits_at(std::uint64_t hi, std::uint64_t lo, std::uint32_t offset) noexcept {
  return (hi << offset) | ((lo >> 1) >> (63 - offset));
}

/// Converts between host order and big-endian (an involution).
std::uint64_t big_endian(std::uint64_t word) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(word);
  } else {
    return word;
  }
}

}  // namespace

// ---------------------------------------------------------------- BitWriter --

void BitWriter::put_bit(bool b) {
  put_bits(b ? 1 : 0, 1);
}

void BitWriter::put_bits(std::uint64_t v, std::uint32_t width) {
  if (width > 64) [[unlikely]] {
    throw_bad_width("BitWriter::put_bits", width);
  }
  if (width == 0) {
    return;
  }
  const std::size_t len = len_;
  const std::uint32_t acc_bits = acc_bits_;
  if (bytes_.size() < len + 16) {
    bytes_.resize(2 * (len + 16));
  }
  // `acc_ ∘ v` is `acc_bits + width` <= 127 bits: `hi` holds the first 64 of
  // them and `lo` the rest.  `hi` is stored unconditionally (the slack makes
  // that safe) and kept only once it is full; the select is arithmetic
  // because whether it fills is a coin toss on real data.
  const std::uint64_t aligned = v << (64 - width);
  const std::uint64_t hi = acc_ | (aligned >> acc_bits);
  const std::uint64_t lo = (aligned << 1) << (63 - acc_bits);
  const std::uint64_t word = big_endian(hi);
  std::memcpy(bytes_.data() + len, &word, sizeof word);
  const std::uint32_t total = acc_bits + width;
  const std::uint64_t full = total >> 6;  // 0 or 1
  len_ = len + 8 * full;
  acc_ = hi ^ ((hi ^ lo) & (0 - full));
  acc_bits_ = total & 63;
}

void BitWriter::put_uint(std::uint64_t v) {
  if (v == std::numeric_limits<std::uint64_t>::max()) {
    throw std::invalid_argument("BitWriter::put_uint: value must be below 2^64 - 1");
  }
  // δ(n) = γ(len) ∘ (n without its leading 1), len = |B(n)|; γ(len) is
  // `bit_width(len) - 1` zeros and then len, so it is len in 2·|B(len)| - 1
  // bits.  The two parts go out as one word when they fit, else as two.
  const std::uint64_t n = v + 1;
  const auto len = static_cast<std::uint32_t>(std::bit_width(n));
  const auto gamma_bits = 2 * static_cast<std::uint32_t>(std::bit_width(len)) - 1;
  const std::uint32_t tail = len - 1;
  if (gamma_bits + tail <= 64) {
    put_bits((std::uint64_t{len} << tail) | (n & low_mask(tail)), gamma_bits + tail);
  } else {
    put_bits(len, gamma_bits);
    put_bits(n, tail);
  }
}

void BitWriter::align() noexcept {
  if (acc_bits_ != 0) {  // the last put_bits left room for this store
    const std::uint64_t word = big_endian(acc_);
    std::memcpy(bytes_.data() + len_, &word, sizeof word);
    len_ += (acc_bits_ + 7) / 8;
    acc_ = 0;
    acc_bits_ = 0;
  }
}

void BitWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  align();
  bytes_.resize(len_);
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  len_ = bytes_.size();
}

std::vector<std::uint8_t> BitWriter::finish() {
  align();
  bytes_.resize(len_);
  len_ = 0;
  return std::move(bytes_);
}

// ---------------------------------------------------------------- BitReader --

std::uint64_t BitReader::load(std::size_t at) const noexcept {
  std::uint64_t word = 0;
  if (at + 8 <= bytes_.size()) {
    std::memcpy(&word, bytes_.data() + at, sizeof word);
    return big_endian(word);
  }
  for (std::size_t i = at; i < bytes_.size(); ++i) {
    word |= std::uint64_t{bytes_[i]} << (56 - 8 * (i - at));
  }
  return word;
}

bool BitReader::get_bit() {
  return get_bits(1) != 0;
}

std::uint64_t BitReader::get_bits(std::uint32_t width) {
  if (width > 64) [[unlikely]] {
    throw_bad_width("BitReader::get_bits", width);
  }
  if (width > remaining_bits()) {
    throw_truncated();
  }
  const std::size_t byte = next_bit_ / 8;
  const auto shift = static_cast<std::uint32_t>(next_bit_ % 8);
  const std::uint64_t v = top_bits(bits_at(load(byte), load(byte + 8), shift), width);
  next_bit_ += width;
  return v;
}

std::uint64_t BitReader::get_uint() {
  // Two words cover the longest codeword (13 + 63 bits) from any bit offset.
  const std::size_t byte = next_bit_ / 8;
  const auto shift = static_cast<std::uint32_t>(next_bit_ % 8);
  const std::uint64_t hi = load(byte);
  const std::uint64_t lo = load(byte + 8);
  // `hi << shift` holds the first 57+ bits, enough for any valid γ(len)
  // (at most 13 bits); leaving `lo` out shortens the chain to the next call.
  const std::uint64_t window = hi << shift;
  const auto zeros = static_cast<std::uint32_t>(std::countl_zero(window));
  const std::uint32_t gamma_bits = 2 * zeros + 1;
  // γ(len) is `zeros` zeros and then len in `zeros + 1` bits, so len <= 64
  // needs zeros <= 6.  As in the bit-serial decoder, a length prefix that
  // runs off the end is truncation and one that fits but is too long is not.
  const std::uint64_t len = zeros > 6 ? 128 : window >> (64 - gamma_bits);
  if (len > 64) [[unlikely]] {
    if (gamma_bits > remaining_bits()) {
      throw_truncated();
    }
    throw DecodeError("bitio: Elias-delta value exceeds 64 bits");
  }
  const auto tail = static_cast<std::uint32_t>(len - 1);
  if (gamma_bits + tail > remaining_bits()) {  // the one bounds check
    throw_truncated();
  }
  const std::uint64_t rest = top_bits(bits_at(hi, lo, shift + gamma_bits), tail);
  next_bit_ += gamma_bits + tail;
  return ((std::uint64_t{1} << tail) | rest) - 1;
}

void BitReader::get_bytes(std::span<std::uint8_t> out) {
  align();
  const std::size_t first = next_bit_ / 8;
  if (out.size() > bytes_.size() - first) {
    throw_truncated();
  }
  std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(first), out.size(), out.begin());
  next_bit_ += out.size() * 8;
}

void check_count(const BitReader& reader, std::uint64_t count, std::uint64_t min_bits_each,
                 const char* what) {
  if (count > reader.remaining_bits() / min_bits_each) {
    throw DecodeError(std::string("bitio: implausible ") + what + " count " +
                             std::to_string(count));
  }
}

}  // namespace fhg::coding
