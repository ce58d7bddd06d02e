// Tests for fhg::coding — bit strings, Elias codes (against the paper's own
// Appendix B examples), iterated-log toolkit, prefix-freeness and slots, and
// the word-at-a-time BitWriter/BitReader against a bit-serial oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fhg/coding/bitio.hpp"
#include "fhg/coding/bitstring.hpp"
#include "fhg/coding/elias.hpp"
#include "fhg/coding/iterated_log.hpp"
#include "fhg/coding/prefix.hpp"

namespace fc = fhg::coding;

// --------------------------------------------------------- BitString -------

TEST(BitString, ParsesLiteral) {
  const fc::BitString w("1010");
  EXPECT_EQ(w.size(), 4U);
  EXPECT_TRUE(w.bit(0));
  EXPECT_FALSE(w.bit(1));
  EXPECT_EQ(w.to_string(), "1010");
}

TEST(BitString, RejectsBadLiteral) {
  EXPECT_THROW(fc::BitString("10x"), std::invalid_argument);
}

TEST(BitString, StandardBinary) {
  EXPECT_EQ(fc::BitString::standard_binary(1).to_string(), "1");
  EXPECT_EQ(fc::BitString::standard_binary(9).to_string(), "1001");
  EXPECT_EQ(fc::BitString::standard_binary(3).to_string(), "11");
  EXPECT_THROW(fc::BitString::standard_binary(0), std::invalid_argument);
}

TEST(BitString, BinaryWithWidth) {
  EXPECT_EQ(fc::BitString::binary(9, 6).to_string(), "001001");
  EXPECT_EQ(fc::BitString::binary(0, 3).to_string(), "000");
}

TEST(BitString, Reversal) {
  EXPECT_EQ(fc::BitString("110100").reversed().to_string(), "001011");
  EXPECT_EQ(fc::BitString("").reversed().to_string(), "");
}

TEST(BitString, Concatenation) {
  const fc::BitString w = fc::BitString("11") + fc::BitString("1001");
  EXPECT_EQ(w.to_string(), "111001");
}

TEST(BitString, PrefixRelation) {
  EXPECT_TRUE(fc::BitString("10").is_prefix_of(fc::BitString("1011")));
  EXPECT_TRUE(fc::BitString("10").is_prefix_of(fc::BitString("10")));
  EXPECT_FALSE(fc::BitString("11").is_prefix_of(fc::BitString("1011")));
  EXPECT_FALSE(fc::BitString("1011").is_prefix_of(fc::BitString("10")));
}

TEST(BitString, MsbAndLsbValues) {
  const fc::BitString w("1001");
  EXPECT_EQ(w.to_uint_msb_first(), 9U);
  EXPECT_EQ(w.to_uint_lsb_first(), 9U);  // palindrome
  const fc::BitString u("110");
  EXPECT_EQ(u.to_uint_msb_first(), 6U);
  EXPECT_EQ(u.to_uint_lsb_first(), 3U);
}

// ------------------------------------------------------- Elias codes -------

TEST(EliasOmega, PaperAppendixExamples) {
  // Appendix B: ω(1) = 0; ω(9) = 11 1001 0.
  EXPECT_EQ(fc::elias_omega(1).to_string(), "0");
  EXPECT_EQ(fc::elias_omega(9).to_string(), "1110010");
}

TEST(EliasOmega, PaperTableOneToFifteen) {
  // The paper's full list for 1..15 (spaces removed).
  const char* expected[] = {"0",        "100",      "110",      "101000",   "101010",
                            "101100",   "101110",   "1110000",  "1110010",  "1110100",
                            "1110110",  "1111000",  "1111010",  "1111100",  "1111110"};
  for (std::uint64_t i = 1; i <= 15; ++i) {
    EXPECT_EQ(fc::elias_omega(i).to_string(), expected[i - 1]) << "omega(" << i << ")";
  }
}

TEST(EliasGamma, KnownCodewords) {
  EXPECT_EQ(fc::elias_gamma(1).to_string(), "1");
  EXPECT_EQ(fc::elias_gamma(2).to_string(), "010");
  EXPECT_EQ(fc::elias_gamma(5).to_string(), "00101");
  EXPECT_EQ(fc::elias_gamma(9).to_string(), "0001001");
}

TEST(EliasDelta, KnownCodewords) {
  EXPECT_EQ(fc::elias_delta(1).to_string(), "1");
  EXPECT_EQ(fc::elias_delta(2).to_string(), "0100");
  EXPECT_EQ(fc::elias_delta(9).to_string(), "00100001");
}

TEST(Unary, KnownCodewords) {
  EXPECT_EQ(fc::unary_code(1).to_string(), "0");
  EXPECT_EQ(fc::unary_code(4).to_string(), "1110");
}

TEST(Codes, RejectZero) {
  EXPECT_THROW(fc::elias_omega(0), std::invalid_argument);
  EXPECT_THROW(fc::elias_gamma(0), std::invalid_argument);
  EXPECT_THROW(fc::elias_delta(0), std::invalid_argument);
  EXPECT_THROW(fc::unary_code(0), std::invalid_argument);
}

namespace {

/// Decodes `w` (optionally with `padding` zero bits appended) via `family`.
std::uint64_t decode_string(fc::CodeFamily family, const fc::BitString& w) {
  std::size_t cursor = 0;
  return fc::decode(family, [&]() {
    const bool b = cursor < w.size() && w.bit(cursor);
    ++cursor;
    return b;
  });
}

}  // namespace

class CodeFamilyTest : public ::testing::TestWithParam<fc::CodeFamily> {};

TEST_P(CodeFamilyTest, DecodeInvertsEncodeSmall) {
  const fc::CodeFamily family = GetParam();
  const std::uint64_t limit = family == fc::CodeFamily::kUnary ? 300 : 5000;
  for (std::uint64_t i = 1; i <= limit; ++i) {
    EXPECT_EQ(decode_string(family, fc::encode(family, i)), i) << "i=" << i;
  }
}

TEST_P(CodeFamilyTest, LengthFunctionMatchesCodeword) {
  const fc::CodeFamily family = GetParam();
  const std::uint64_t limit = family == fc::CodeFamily::kUnary ? 300 : 5000;
  for (std::uint64_t i = 1; i <= limit; ++i) {
    EXPECT_EQ(fc::code_length(family, i), fc::encode(family, i).size()) << "i=" << i;
  }
}

TEST_P(CodeFamilyTest, IsPrefixFree) {
  const fc::CodeFamily family = GetParam();
  const std::uint64_t limit = family == fc::CodeFamily::kUnary ? 200 : 2000;
  std::vector<fc::BitString> book;
  book.reserve(limit);
  for (std::uint64_t i = 1; i <= limit; ++i) {
    book.push_back(fc::encode(family, i));
  }
  EXPECT_TRUE(fc::is_prefix_free(book));
  EXPECT_TRUE(fc::prefix_violations(book).empty());
}

TEST_P(CodeFamilyTest, KraftSumAtMostOne) {
  const fc::CodeFamily family = GetParam();
  std::vector<fc::BitString> book;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    book.push_back(fc::encode(family, i));
  }
  EXPECT_LE(fc::kraft_sum(book), 1.0 + 1e-12);
}

TEST_P(CodeFamilyTest, DecodeHolidayIsTotalAndConsistent) {
  const fc::CodeFamily family = GetParam();
  // For every holiday t, decode_holiday gives the unique color whose slot
  // matches t (verified against slots of the first 64 colors).
  std::vector<fc::ScheduleSlot> slots;
  for (std::uint64_t c = 1; c <= 64; ++c) {
    slots.push_back(fc::slot_of(fc::encode(family, c)));
  }
  for (std::uint64_t t = 1; t <= 4096; ++t) {
    // nullopt means the holiday's unique color exceeds the 64-bit range
    // (e.g. delta at t = 2^12: the decoded length prefix is astronomical);
    // then in particular no *small* color may match.
    const auto color = fc::decode_holiday(family, t);
    for (std::uint64_t c = 1; c <= 64; ++c) {
      const bool matches = slots[c - 1].matches(t);
      EXPECT_EQ(matches, color.has_value() && *color == c) << "t=" << t << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CodeFamilyTest,
                         ::testing::Values(fc::CodeFamily::kUnary, fc::CodeFamily::kEliasGamma,
                                           fc::CodeFamily::kEliasDelta,
                                           fc::CodeFamily::kEliasOmega),
                         [](const auto& param_info) {
                           return fc::code_family_name(param_info.param);
                         });

TEST(EliasOmega, LengthMatchesPaperRecursion) {
  // ρ(n) = 1 + rb(n), rb(1) = 0, rb(i) = |B(i)| + rb(|B(i)|-1).
  EXPECT_EQ(fc::elias_omega_length(1), 1U);
  EXPECT_EQ(fc::elias_omega_length(2), 3U);
  EXPECT_EQ(fc::elias_omega_length(3), 3U);
  EXPECT_EQ(fc::elias_omega_length(4), 6U);
  EXPECT_EQ(fc::elias_omega_length(9), 7U);
  EXPECT_EQ(fc::elias_omega_length(16), 11U);
  EXPECT_EQ(fc::elias_omega_length(100), 13U);  // 1 + |B(100)| + |B(6)| + |B(2)| = 1+7+3+2
}

TEST(EliasOmega, LengthIsWithinTheoremBound) {
  // 2^ρ(c) ≤ 2^{1+log* c} · φ(c)  (Theorem 4.2).
  for (std::uint64_t c = 1; c <= 100'000; c = c < 100 ? c + 1 : c * 3 / 2) {
    const double period = std::exp2(static_cast<double>(fc::elias_omega_length(c)));
    EXPECT_LE(period, fc::omega_period_bound(c) * (1.0 + 1e-9)) << "c=" << c;
  }
}

// ----------------------------------------------------- iterated logs -------

TEST(IteratedLog, FloorCeilLog2) {
  EXPECT_EQ(fc::floor_log2(1), 0U);
  EXPECT_EQ(fc::floor_log2(2), 1U);
  EXPECT_EQ(fc::floor_log2(3), 1U);
  EXPECT_EQ(fc::floor_log2(1024), 10U);
  EXPECT_EQ(fc::ceil_log2(1), 0U);
  EXPECT_EQ(fc::ceil_log2(2), 1U);
  EXPECT_EQ(fc::ceil_log2(3), 2U);
  EXPECT_EQ(fc::ceil_log2(1024), 10U);
  EXPECT_EQ(fc::ceil_log2(1025), 11U);
}

TEST(IteratedLog, LogStarValues) {
  EXPECT_EQ(fc::log_star(1.0), 0U);
  EXPECT_EQ(fc::log_star(2.0), 1U);
  EXPECT_EQ(fc::log_star(4.0), 2U);
  EXPECT_EQ(fc::log_star(16.0), 3U);
  EXPECT_EQ(fc::log_star(65536.0), 4U);
  EXPECT_EQ(fc::log_star(1e30), 5U);
}

TEST(IteratedLog, PhiMatchesDefinition) {
  // φ(i) = 1 for i ≤ 1; φ(i) = i · φ(log i).
  EXPECT_DOUBLE_EQ(fc::phi(1.0), 1.0);
  EXPECT_DOUBLE_EQ(fc::phi(2.0), 2.0);              // 2 · φ(1)
  EXPECT_DOUBLE_EQ(fc::phi(4.0), 4.0 * 2.0);        // 4 · φ(2)
  EXPECT_DOUBLE_EQ(fc::phi(16.0), 16.0 * fc::phi(4.0));
  EXPECT_NEAR(fc::phi(256.0), 256.0 * fc::phi(8.0), 1e-9);
}

TEST(IteratedLog, PhiIsMonotone) {
  double prev = 0.0;
  for (double x = 1.0; x < 1e6; x *= 1.7) {
    const double value = fc::phi(x);
    EXPECT_GE(value, prev);
    prev = value;
  }
}

TEST(IteratedLog, ReciprocalSumOfSquaresConverges) {
  // Σ 1/c² over [1, 10^6] ≈ π²/6.
  const double sum =
      fc::reciprocal_sum(1, 1'000'000, [](std::uint64_t c) { return static_cast<double>(c) * c; });
  EXPECT_NEAR(sum, 1.6449340668, 1e-5);
}

TEST(IteratedLog, ReciprocalSumLinearDiverges) {
  // Σ 1/c over [1, N] ≈ ln N + γ — clearly above 1 for modest N.
  const double sum =
      fc::reciprocal_sum(1, 100'000, [](std::uint64_t c) { return static_cast<double>(c); });
  EXPECT_GT(sum, 10.0);
}

// ------------------------------------------------------------ slots --------

TEST(ScheduleSlot, PeriodAndResidueFromCodeword) {
  // ω(9) = 1110010; reversed occupies the low 7 bits of t.
  const fc::ScheduleSlot slot = fc::slot_of(fc::elias_omega(9));
  EXPECT_EQ(slot.length, 7U);
  EXPECT_EQ(slot.period(), 128U);
  // residue: bits of "1110010" with leftmost = LSB: 1+2+4+32 = 39.
  EXPECT_EQ(slot.residue, 39U);
  EXPECT_TRUE(slot.matches(39));
  EXPECT_TRUE(slot.matches(39 + 128));
  EXPECT_FALSE(slot.matches(40));
}

TEST(ScheduleSlot, MatchesIsExactlyPeriodic) {
  const fc::ScheduleSlot slot = fc::slot_of(fc::elias_omega(5));
  std::uint64_t previous = 0;
  std::uint64_t count = 0;
  for (std::uint64_t t = 1; t <= 10'000; ++t) {
    if (slot.matches(t)) {
      if (previous != 0) {
        EXPECT_EQ(t - previous, slot.period());
      }
      previous = t;
      ++count;
    }
  }
  EXPECT_NEAR(static_cast<double>(count), 10'000.0 / static_cast<double>(slot.period()), 1.0);
}

TEST(ScheduleSlot, RejectsBadCodewords) {
  EXPECT_THROW(static_cast<void>(fc::slot_of(fc::BitString(""))), std::invalid_argument);
}

TEST(PrefixFree, DetectsViolations) {
  const std::vector<fc::BitString> bad{fc::BitString("10"), fc::BitString("101")};
  EXPECT_FALSE(fc::is_prefix_free(bad));
  const auto witnesses = fc::prefix_violations(bad);
  ASSERT_EQ(witnesses.size(), 1U);
  EXPECT_EQ(witnesses[0].first, 0U);
  EXPECT_EQ(witnesses[0].second, 1U);
}

TEST(PrefixFree, DetectsDuplicates) {
  const std::vector<fc::BitString> bad{fc::BitString("10"), fc::BitString("10")};
  EXPECT_FALSE(fc::is_prefix_free(bad));
}

TEST(PrefixFree, AcceptsFixedWidthCode) {
  std::vector<fc::BitString> book;
  for (std::uint64_t i = 0; i < 16; ++i) {
    book.push_back(fc::BitString::binary(i, 4));
  }
  EXPECT_TRUE(fc::is_prefix_free(book));
  EXPECT_DOUBLE_EQ(fc::kraft_sum(book), 1.0);
}

// ------------------------------------------------------------ bit I/O ------
//
// BitWriter/BitReader work a 64-bit word at a time.  The oracle below codes
// one bit per push, integers through the §4 `elias_delta` codeword and
// `decode_elias_delta`.  The wire contract is that both produce the same
// bytes and read back the same values.

namespace {

constexpr std::uint64_t kMaxCodable = std::numeric_limits<std::uint64_t>::max() - 1;

class SerialWriter {
 public:
  void put_bit(bool b) {
    if (free_bits_ == 0) {
      bytes_.push_back(0);
      free_bits_ = 8;
    }
    --free_bits_;
    if (b) {
      bytes_.back() |= static_cast<std::uint8_t>(1U << free_bits_);
    }
  }
  void put_bits(std::uint64_t v, std::uint32_t width) {
    for (std::uint32_t i = width; i > 0; --i) {
      put_bit(((v >> (i - 1)) & 1U) != 0);
    }
  }
  void put_uint(std::uint64_t v) {
    const fc::BitString code = fc::elias_delta(v + 1);
    for (std::size_t i = 0; i < code.size(); ++i) {
      put_bit(code.bit(i));
    }
  }
  void align() { free_bits_ = 0; }
  void put_bytes(std::span<const std::uint8_t> bytes) {
    align();
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }
  std::vector<std::uint8_t> finish() {
    free_bits_ = 0;
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint32_t free_bits_ = 0;
};

class SerialReader {
 public:
  explicit SerialReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  bool get_bit() {
    if (next_bit_ >= bytes_.size() * 8) {
      throw std::runtime_error("oracle: truncated");
    }
    const bool b = ((bytes_[next_bit_ / 8] >> (7 - next_bit_ % 8)) & 1U) != 0;
    ++next_bit_;
    return b;
  }
  std::uint64_t get_bits(std::uint32_t width) {
    std::uint64_t v = 0;
    for (std::uint32_t i = 0; i < width; ++i) {
      v = (v << 1) | static_cast<std::uint64_t>(get_bit());
    }
    return v;
  }
  std::uint64_t get_uint() { return fc::decode_elias_delta([this] { return get_bit(); }) - 1; }
  void align() { next_bit_ = (next_bit_ + 7) / 8 * 8; }
  void get_bytes(std::span<std::uint8_t> out) {
    align();
    if (out.size() * 8 > bytes_.size() * 8 - next_bit_) {
      throw std::runtime_error("oracle: truncated");
    }
    std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(next_bit_ / 8), out.size(),
                out.begin());
    next_bit_ += out.size() * 8;
  }
  [[nodiscard]] std::uint64_t remaining_bits() const { return bytes_.size() * 8 - next_bit_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t next_bit_ = 0;
};

/// One writer call; replayed on both coders and read back in order.
struct Op {
  enum Kind { kUint, kBits, kBit, kAlign, kBytes } kind = kUint;
  std::uint64_t value = 0;
  std::uint32_t width = 0;
  std::vector<std::uint8_t> bytes{};
};

template <class Writer>
std::vector<std::uint8_t> write_ops(const std::vector<Op>& ops) {
  Writer w;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kUint: w.put_uint(op.value); break;
      case Op::kBits: w.put_bits(op.value, op.width); break;
      case Op::kBit: w.put_bit(op.value != 0); break;
      case Op::kAlign: w.align(); break;
      case Op::kBytes: w.put_bytes(op.bytes); break;
    }
  }
  return w.finish();
}

/// What reading the ops back gave: each op's value (bytes read back as 1
/// when they match) and the bit position after it, up to the op where the
/// reader threw `std::runtime_error`, if one did.
struct ReadResult {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> ends;
  bool threw = false;
  friend bool operator==(const ReadResult&, const ReadResult&) = default;
};

template <class Reader>
ReadResult read_ops(const std::vector<Op>& ops, std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  ReadResult result;
  try {
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kUint: result.values.push_back(r.get_uint()); break;
        case Op::kBits: result.values.push_back(r.get_bits(op.width)); break;
        case Op::kBit: result.values.push_back(r.get_bit() ? 1 : 0); break;
        case Op::kAlign: r.align(); result.values.push_back(0); break;
        case Op::kBytes: {
          std::vector<std::uint8_t> out(op.bytes.size());
          r.get_bytes(out);
          result.values.push_back(out == op.bytes ? 1 : 0);
          break;
        }
      }
      result.ends.push_back(bytes.size() * 8 - r.remaining_bits());
    }
  } catch (const std::runtime_error&) {
    result.threw = true;
  }
  return result;
}

/// What a correct read of `ops` returns.
std::vector<std::uint64_t> expected_values(const std::vector<Op>& ops) {
  std::vector<std::uint64_t> values;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kUint: values.push_back(op.value); break;
      case Op::kBits:
        values.push_back(op.width == 64 ? op.value : op.value & ((1ULL << op.width) - 1));
        break;
      case Op::kBit: values.push_back(op.value != 0 ? 1 : 0); break;
      case Op::kAlign: values.push_back(0); break;
      case Op::kBytes: values.push_back(1); break;
    }
  }
  return values;
}

/// A value whose bit width is uniform in [1, 64] (0 included), capped at the
/// largest codable value.
std::uint64_t log_uniform(std::mt19937_64& rng) {
  const auto width = static_cast<std::uint32_t>(rng() % 65);
  if (width == 0) {
    return 0;
  }
  const std::uint64_t top = std::uint64_t{1} << (width - 1);
  return std::min(kMaxCodable, top | (rng() & (top - 1)));
}

std::vector<Op> uint_ops(const std::vector<std::uint64_t>& values) {
  std::vector<Op> ops;
  for (const std::uint64_t v : values) {
    ops.push_back({.kind = Op::kUint, .value = v});
  }
  return ops;
}

/// Every writer call at every bit offset: each put_bits width 0..64, and
/// put_uint, put_bit, align and put_bytes between them.
std::vector<Op> mixed_ops(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  for (std::uint32_t offset = 0; offset < 8; ++offset) {
    for (std::uint32_t width = 0; width <= 64; ++width) {
      ops.push_back({.kind = Op::kAlign});
      ops.push_back({.kind = Op::kBits, .value = rng(), .width = offset});
      ops.push_back({.kind = Op::kBits, .value = rng(), .width = width});
      ops.push_back({.kind = Op::kUint, .value = log_uniform(rng)});
      ops.push_back({.kind = Op::kBit, .value = rng() & 1U});
      ops.push_back({.kind = Op::kBits, .value = rng(), .width = offset});
      Op bytes{.kind = Op::kBytes};
      bytes.bytes.resize(width % 5);
      for (std::uint8_t& b : bytes.bytes) {
        b = static_cast<std::uint8_t>(rng());
      }
      ops.push_back(std::move(bytes));
      ops.push_back({.kind = Op::kBits, .value = rng(), .width = (offset + width) % 8});
      ops.push_back({.kind = Op::kUint, .value = log_uniform(rng)});
    }
  }
  return ops;
}

/// Both coders write `ops` to the same bytes and read them back alike.
void expect_matches_oracle(const std::vector<Op>& ops) {
  const std::vector<std::uint8_t> bytes = write_ops<fc::BitWriter>(ops);
  ASSERT_EQ(bytes, write_ops<SerialWriter>(ops));
  const ReadResult fast = read_ops<fc::BitReader>(ops, bytes);
  EXPECT_FALSE(fast.threw);
  EXPECT_EQ(fast.values, expected_values(ops));
  EXPECT_EQ(fast, read_ops<SerialReader>(ops, bytes));
}

}  // namespace

TEST(BitIo, CodecRoundTrips) {
  fc::BitWriter w;
  w.put_bits(0xA5, 8);
  w.put_uint(0);
  w.put_uint(1);
  w.put_uint(123456789);
  const auto bytes = w.finish();
  fc::BitReader r(bytes);
  EXPECT_EQ(r.get_bits(8), 0xA5U);
  EXPECT_EQ(r.get_uint(), 0U);
  EXPECT_EQ(r.get_uint(), 1U);
  EXPECT_EQ(r.get_uint(), 123456789U);
}

TEST(BitIo, GetBitOnEmptyInputThrows) {
  fc::BitReader r(std::span<const std::uint8_t>{});
  EXPECT_THROW((void)r.get_bit(), std::runtime_error);
}

TEST(BitIo, MatchesSerialOracleOnLogUniformValues) {
  std::mt19937_64 rng(20160711);
  std::vector<std::uint64_t> values(50000);
  for (std::uint64_t& v : values) {
    v = log_uniform(rng);
  }
  expect_matches_oracle(uint_ops(values));
}

TEST(BitIo, MatchesSerialOracleAtPowerOfTwoBoundaries) {
  std::vector<std::uint64_t> values;
  for (std::uint32_t k = 0; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  values.push_back(kMaxCodable);
  // Each boundary value at every bit offset of the stream.
  for (std::uint32_t offset = 0; offset < 8; ++offset) {
    std::vector<Op> ops{{.kind = Op::kBits, .value = 0x5A, .width = offset}};
    for (const Op& op : uint_ops(values)) {
      ops.push_back(op);
    }
    expect_matches_oracle(ops);
  }
}

TEST(BitIo, MatchesSerialOracleOnMixedStreams) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_matches_oracle(mixed_ops(seed));
  }
}

TEST(BitIo, TruncationAtEveryBitDecodesAPrefixOrThrows) {
  // The calls at bit offset 0: every put_bits width once, about 4 KB of bits.
  std::vector<Op> ops = mixed_ops(7);
  ops.resize(ops.size() / 8);
  const std::vector<std::uint8_t> bytes = write_ops<fc::BitWriter>(ops);
  const std::vector<std::uint64_t> expected = expected_values(ops);
  const std::vector<std::uint64_t> ends = read_ops<SerialReader>(ops, bytes).ends;
  for (std::size_t cut = 0; cut <= bytes.size() * 8; ++cut) {
    // Exactly the bytes the cut touches, on the heap (so a sanitizer sees
    // any read past them), with the bits after the cut zeroed.
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<std::ptrdiff_t>((cut + 7) / 8));
    if (cut % 8 != 0) {
      prefix.back() &= static_cast<std::uint8_t>(0xFF00U >> (cut % 8));
    }
    const ReadResult fast = read_ops<fc::BitReader>(ops, prefix);
    ASSERT_EQ(fast, read_ops<SerialReader>(ops, prefix)) << "cut at bit " << cut;
    for (std::size_t i = 0; i < ops.size() && ends[i] <= cut; ++i) {
      ASSERT_LT(i, fast.values.size()) << "cut at bit " << cut;
      ASSERT_EQ(fast.values[i], expected[i]) << "cut at bit " << cut << ", op " << i;
    }
    if (cut % 8 == 0 && cut < bytes.size() * 8) {
      EXPECT_TRUE(fast.threw) << "cut at byte " << cut / 8;
    }
  }
}

TEST(BitIo, RejectsWidthsOver64) {
  fc::BitWriter w;
  EXPECT_THROW(w.put_bits(1, 65), std::invalid_argument);
  w.put_bits(0xFFFF, 16);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 2U);  // the rejected call wrote nothing
  fc::BitReader r(bytes);
  EXPECT_THROW((void)r.get_bits(65), std::invalid_argument);
  EXPECT_EQ(r.get_bits(16), 0xFFFFU);  // and consumed nothing
}

TEST(BitIo, PutUintRejectsTheOneValueWithoutACode) {
  fc::BitWriter w;
  try {
    w.put_uint(std::numeric_limits<std::uint64_t>::max());
    FAIL() << "put_uint(2^64 - 1) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2^64 - 1"), std::string::npos) << e.what();
  }
  w.put_uint(kMaxCodable);
  const auto bytes = w.finish();
  fc::BitReader r(bytes);
  EXPECT_EQ(r.get_uint(), kMaxCodable);
}

TEST(BitIo, OverlongCodewordsThrow) {
  // len = 65: γ(65) is six zeros, then 1000001; the 64 bits after it are
  // there, so this is not truncation.
  {
    SerialWriter w;
    w.put_bits(0b1000001, 13);
    w.put_bits(0, 64);
    const auto bytes = w.finish();
    fc::BitReader r(bytes);
    EXPECT_THROW((void)r.get_uint(), std::runtime_error);
  }
  // A zero run of 7 (len >= 128), of 64, and of 200 bits.
  for (const std::size_t zeros : {7, 64, 200}) {
    SerialWriter w;
    for (std::size_t i = 0; i < zeros; ++i) {
      w.put_bit(false);
    }
    w.put_bits(~std::uint64_t{0}, 64);
    w.put_bits(~std::uint64_t{0}, 64);
    w.put_bits(~std::uint64_t{0}, 64);
    w.put_bits(~std::uint64_t{0}, 64);
    const auto bytes = w.finish();
    fc::BitReader r(bytes);
    EXPECT_THROW((void)r.get_uint(), std::runtime_error) << zeros << " zeros";
  }
}
