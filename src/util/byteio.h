// Endianness-stable binary encoding helpers.
//
// The session-result cache derives content-addressed keys from configs and
// persists results as binary blobs; both need a byte encoding that is
// identical on every host. ByteWriter appends fixed-width little-endian
// fields to a growable buffer; ByteReader decodes the same stream with
// bounds checking (a truncated or corrupted blob turns into `ok() == false`,
// never undefined behaviour). Doubles are encoded as their IEEE-754 bit
// pattern, so round-trips are bit-exact. Multi-byte fields move with one
// memcpy each; only a big-endian host pays a byte swap.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace rave {

namespace byteio_internal {

/// Converts between host order and the little-endian wire order (the swap
/// is its own inverse, so one function serves both directions).
template <typename T>
T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    std::reverse(bytes, bytes + sizeof(T));
    std::memcpy(&v, bytes, sizeof(T));
  }
  return v;
}

}  // namespace byteio_internal

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Append(byteio_internal::LittleEndian(v)); }
  void U64(uint64_t v) { Append(byteio_internal::LittleEndian(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void Reserve(size_t bytes) { buf_.reserve(bytes); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void Append(T v) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(&v);
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a byte span. After any failed read, `ok()` is
/// false and every subsequent read returns a zero value; callers check
/// `ok()` once at the end instead of after every field.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  uint32_t U32() { return Read<uint32_t>(); }
  uint64_t U64() { return Read<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    const uint64_t n = U64();
    if (!Need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == size_; }
  size_t pos() const { return pos_; }

  /// Marks the stream bad. Decoders call this when the bytes parse but the
  /// decoded structure is invalid (e.g. a sketch whose bucket counts do not
  /// sum to its total), so structural corruption fails like truncation.
  void Invalidate() { ok_ = false; }

 private:
  template <typename T>
  T Read() {
    if (!Need(sizeof(T))) return 0;
    T v = 0;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return byteio_internal::LittleEndian(v);
  }

  bool Need(uint64_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace rave
