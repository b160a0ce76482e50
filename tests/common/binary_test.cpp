#include "hyparview/common/binary.hpp"

#include <gtest/gtest.h>

namespace hyparview {
namespace {

TEST(BinaryTest, ScalarRoundTrip) {
  BinaryWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryTest, NodeIdRoundTrip) {
  BinaryWriter w;
  const NodeId id{0xC0A80001, 4000};
  w.node_id(id);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.node_id(), id);
}

TEST(BinaryTest, WriterAppendsToCallersBuffer) {
  std::vector<std::uint8_t> out{0x01, 0x02};
  {
    BinaryWriter w(out);
    w.u16(0xBEEF);
    EXPECT_EQ(w.bytes().size(), 4u);
  }
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0x01);
  EXPECT_EQ(out[1], 0x02);
  BinaryReader r(std::span<const std::uint8_t>(out).subspan(2));
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryTest, NodeIdListRoundTrip) {
  // The writer frames a list as u16 count + ids; the reader side has no
  // vector-returning list helper by design (wire lists are bounded — see
  // wire.cpp's capacity-checked readers), so decode field-by-field here.
  BinaryWriter w;
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 100; ++i) ids.push_back(NodeId::from_index(i));
  w.node_ids(ids);
  BinaryReader r(w.bytes());
  ASSERT_EQ(r.u16(), ids.size());
  for (const NodeId& id : ids) EXPECT_EQ(r.node_id(), id);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryTest, EmptyNodeIdList) {
  BinaryWriter w;
  w.node_ids({});
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.u16(), 0u);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryTest, StringRoundTrip) {
  BinaryWriter w;
  w.str("hello gossip");
  w.str("");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello gossip");
  EXPECT_EQ(r.str(), "");
}

TEST(BinaryTest, BlobRoundTrip) {
  BinaryWriter w;
  const std::vector<std::uint8_t> data = {0, 1, 2, 255, 254};
  w.blob(data);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.blob(), data);
}

TEST(BinaryTest, TruncatedReadThrows) {
  BinaryWriter w;
  w.u16(7);
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.u32(), CheckError);
}

TEST(BinaryTest, TruncatedStringThrows) {
  BinaryWriter w;
  w.u32(100);  // claims 100 bytes follow; none do
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.str(), CheckError);
}

TEST(BinaryTest, RemainingTracksPosition) {
  BinaryWriter w;
  w.u32(1);
  w.u32(2);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryTest, TakeMovesBuffer) {
  BinaryWriter w;
  w.u8(9);
  const auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BinaryTest, LittleEndianLayout) {
  BinaryWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[1], 0x03);
  EXPECT_EQ(w.bytes()[2], 0x02);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

}  // namespace
}  // namespace hyparview
