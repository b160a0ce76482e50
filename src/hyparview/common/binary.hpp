// Binary wire serialization primitives.
//
// Little-endian, length-delimited framing is done by the transport; these
// classes read/write the payload bytes. The reader validates every access so
// malformed frames from the network surface as CheckError instead of UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/node_id.hpp"

namespace hyparview {

class BinaryWriter {
 public:
  BinaryWriter() = default;
  /// Appends to `out` instead of an owned buffer; `out` must outlive the
  /// writer. The TCP transport encodes frames straight into a connection's
  /// output buffer this way.
  explicit BinaryWriter(std::vector<std::uint8_t>& out) : buf_(&out) {}

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return *buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(*buf_); }

  void u8(std::uint8_t v) { buf_->push_back(v); }

  void u16(std::uint16_t v) { append(&v, sizeof(v)); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void i64(std::int64_t v) { append(&v, sizeof(v)); }

  void node_id(const NodeId& id) {
    u32(id.ip);
    u16(id.port);
  }

  void node_ids(std::span<const NodeId> ids) {
    HPV_CHECK(ids.size() <= 0xFFFF);
    u16(static_cast<std::uint16_t>(ids.size()));
    for (const auto& id : ids) node_id(id);
  }

  void str(const std::string& s) {
    HPV_CHECK(s.size() <= 0xFFFFFFFF);
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  void blob(std::span<const std::uint8_t> data) {
    HPV_CHECK(data.size() <= 0xFFFFFFFF);
    u32(static_cast<std::uint32_t>(data.size()));
    append(data.data(), data.size());
  }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_->insert(buf_->end(), p, p + n);
  }

  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* buf_ = &owned_;
};

/// Drop-in replacement for BinaryWriter that only counts bytes. Lets
/// serialization code compute exact frame sizes (overhead accounting)
/// without allocating.
class ByteCounter {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }

  void u8(std::uint8_t) { size_ += 1; }
  void u16(std::uint16_t) { size_ += 2; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void i64(std::int64_t) { size_ += 8; }

  void node_id(const NodeId&) { size_ += 6; }

  void node_ids(std::span<const NodeId> ids) {
    HPV_CHECK(ids.size() <= 0xFFFF);
    size_ += 2 + 6 * ids.size();
  }

  void str(const std::string& s) {
    HPV_CHECK(s.size() <= 0xFFFFFFFF);
    size_ += 4 + s.size();
  }

  void blob(std::span<const std::uint8_t> data) {
    HPV_CHECK(data.size() <= 0xFFFFFFFF);
    size_ += 4 + data.size();
  }

 private:
  std::size_t size_ = 0;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint16_t u16() { return read_raw<std::uint16_t>(); }
  std::uint32_t u32() { return read_raw<std::uint32_t>(); }
  std::uint64_t u64() { return read_raw<std::uint64_t>(); }
  std::int64_t i64() { return read_raw<std::int64_t>(); }

  NodeId node_id() {
    NodeId id;
    id.ip = u32();
    id.port = u16();
    return id;
  }

  // Note: there is deliberately no vector-returning list reader here. Wire
  // lists are bounded (wire::FlatList); decoding goes through the
  // capacity-checked read_node_list/read_aged_list helpers in wire.cpp so
  // an attacker-controlled count can never size an allocation.

  std::string str() {
    const std::size_t n = u32();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> blob() {
    const std::size_t n = u32();
    require(n);
    std::vector<std::uint8_t> b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

 private:
  template <typename T>
  T read_raw() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void require(std::size_t n) const {
    HPV_CHECK_THROW(pos_ + n <= data_.size(),
                    "BinaryReader: truncated frame");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace hyparview
