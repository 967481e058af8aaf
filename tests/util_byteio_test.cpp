// ByteWriter/ByteReader wire format: every field is pinned to its exact
// little-endian bytes, round-trips bit-exactly, and a record cut at any
// length fails closed (ok() false, zeros from the cut on).
#include "util/byteio.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace rave {
namespace {

using Bytes = std::vector<uint8_t>;

template <typename Write>
Bytes Encode(Write write) {
  ByteWriter w;
  write(w);
  return w.Take();
}

TEST(ByteIoTest, U32IsLittleEndian) {
  const Bytes bytes{0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(Encode([](ByteWriter& w) { w.U32(0x01020304u); }), bytes);
  ByteReader r(bytes);
  EXPECT_EQ(r.U32(), 0x01020304u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteIoTest, U64IsLittleEndian) {
  const Bytes bytes{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(Encode([](ByteWriter& w) { w.U64(0x0102030405060708ull); }),
            bytes);
  ByteReader r(bytes);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteIoTest, I64MinusOneIsAllOnes) {
  const Bytes bytes(8, 0xff);
  EXPECT_EQ(Encode([](ByteWriter& w) { w.I64(-1); }), bytes);
  ByteReader r(bytes);
  EXPECT_EQ(r.I64(), -1);
  EXPECT_TRUE(r.AtEnd());
}

// Doubles travel as their IEEE-754 bit pattern, so signed zero, NaN payloads
// and denormals survive exactly; compare bits, not values.
void ExpectDoubleBytes(double v, const Bytes& bytes) {
  EXPECT_EQ(Encode([v](ByteWriter& w) { w.F64(v); }), bytes);
  ByteReader r(bytes);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()), std::bit_cast<uint64_t>(v));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteIoTest, NegativeZeroKeepsItsSign) {
  ExpectDoubleBytes(-0.0, Bytes{0, 0, 0, 0, 0, 0, 0, 0x80});
}

TEST(ByteIoTest, NanPayloadSurvives) {
  const double nan = std::bit_cast<double>(0x7ff8000000000123ull);
  ASSERT_TRUE(nan != nan);
  ExpectDoubleBytes(nan, Bytes{0x23, 0x01, 0, 0, 0, 0, 0xf8, 0x7f});
}

TEST(ByteIoTest, DenormalSurvives) {
  ExpectDoubleBytes(std::numeric_limits<double>::denorm_min(),
                    Bytes{0x01, 0, 0, 0, 0, 0, 0, 0});
}

TEST(ByteIoTest, StrIsLengthPrefixed) {
  const Bytes bytes{0x02, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'};
  EXPECT_EQ(Encode([](ByteWriter& w) { w.Str("ab"); }), bytes);
  ByteReader r(bytes);
  EXPECT_EQ(r.Str(), "ab");
  EXPECT_TRUE(r.AtEnd());
}

// One of each field kind, with no field equal to a reader's zero value, so
// a read past the cut is told apart from a read of real bytes.
struct Record {
  uint8_t u8 = 0xa5;
  uint32_t u32 = 0xdeadbeefu;
  uint64_t u64 = 0x0123456789abcdefull;
  int64_t i64 = -42;
  double f64 = 1.5;
  bool flag = true;
  std::string str = "rave";
};

Bytes EncodeRecord(const Record& rec) {
  ByteWriter w;
  w.U8(rec.u8);
  w.U32(rec.u32);
  w.U64(rec.u64);
  w.I64(rec.i64);
  w.F64(rec.f64);
  w.Bool(rec.flag);
  w.Str(rec.str);
  return w.Take();
}

TEST(ByteIoTest, MixedRecordRoundTrips) {
  const Record rec;
  const Bytes bytes = EncodeRecord(rec);
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 8 + 1 + 8 + rec.str.size());
  ByteReader r(bytes);
  EXPECT_EQ(r.U8(), rec.u8);
  EXPECT_EQ(r.U32(), rec.u32);
  EXPECT_EQ(r.U64(), rec.u64);
  EXPECT_EQ(r.I64(), rec.i64);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()),
            std::bit_cast<uint64_t>(rec.f64));
  EXPECT_EQ(r.Bool(), rec.flag);
  EXPECT_EQ(r.Str(), rec.str);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteIoTest, RecordCutAtEveryLengthFailsClosed) {
  const Record rec;
  const Bytes bytes = EncodeRecord(rec);
  // Offset at which each field ends, in write order.
  const size_t ends[] = {1, 5, 13, 21, 29, 30, bytes.size()};
  for (size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(len);
    ByteReader r(std::span<const uint8_t>(bytes).first(len));
    // A field whose bytes all lie before the cut reads its value only if
    // no earlier field failed; the fields end in order, so that is the
    // same test. Every field from the cut on reads zero.
    const auto whole = [&](int field) { return ends[field] <= len; };
    EXPECT_EQ(r.U8(), whole(0) ? rec.u8 : 0);
    EXPECT_EQ(r.U32(), whole(1) ? rec.u32 : 0u);
    EXPECT_EQ(r.U64(), whole(2) ? rec.u64 : 0u);
    EXPECT_EQ(r.I64(), whole(3) ? rec.i64 : 0);
    EXPECT_EQ(r.F64(), whole(4) ? rec.f64 : 0.0);
    EXPECT_EQ(r.Bool(), whole(5) ? rec.flag : false);
    EXPECT_EQ(r.Str(), "");
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.AtEnd());
    // Once failed, the reader stays failed and keeps reading zeros.
    EXPECT_EQ(r.U8(), 0);
    EXPECT_EQ(r.U64(), 0u);
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace rave
