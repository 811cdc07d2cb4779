// Hostile-input fuzzing for the protobuf wire parser and bridge.
//
// Protobuf frames arrive from the network; a truncated, corrupted, or
// malicious payload must never crash the receiver, drive unbounded work,
// or break the conservation law frames_in == decoded + rejected. Same
// idiom as the descriptor fuzz in test_wire_hostile.cpp: deterministic
// Rng, parsed + rejected == N accounting. The encode side meets hostile
// records too: a peer transform can store any count in an array's count
// field, and a negative one must encode as an empty array.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/fanout.hpp"
#include "core/receiver.hpp"
#include "echo/fanout.hpp"
#include "echo/messages.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "pbuf/bridge.hpp"
#include "pbuf/schema.hpp"
#include "pbuf/wire.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"

namespace morph::pbuf {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::RecordRef;

FormatPtr roster_format() {
  return parse_proto_message(
      "message Member { string name = 1; int32 port = 2; }\n"
      "message Roster { string channel = 1; repeated Member members = 2;\n"
      "                 repeated int32 shard_ids = 3; double load = 4; }\n",
      "Roster");
}

std::vector<uint8_t> encode_sample(const FormatPtr& fmt, RecordArena& arena, Rng& rng) {
  void* rec = pbio::random_record(rng, fmt, arena);
  ByteBuffer out;
  EncodePlan(fmt).encode(rec, out);
  return {out.data(), out.data() + out.size()};
}

TEST(PbufFuzz, BitFlippedFramesNeverCrashAndConservationHolds) {
  Rng rng(777);
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  BridgeMetrics& m = bridge_metrics();
  uint64_t frames0 = m.frames_in.value();
  size_t parsed = 0, rejected = 0;
  constexpr int kIters = 500;
  for (int iter = 0; iter < kIters; ++iter) {
    RecordArena arena;
    std::vector<uint8_t> wire = encode_sample(fmt, arena, rng);
    if (wire.empty()) wire.push_back(0);  // keep the flip target non-empty
    int flips = 1 + static_cast<int>(rng.next_below(5));
    for (int f = 0; f < flips; ++f) {
      wire[rng.next_below(wire.size())] ^= static_cast<uint8_t>(1 + rng.next_below(255));
    }
    try {
      (void)dec.decode(wire.data(), wire.size(), arena);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, static_cast<size_t>(kIters));
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed, 0u);  // many single-bit flips still parse (value changes)
  EXPECT_EQ(m.frames_in.value() - frames0, static_cast<uint64_t>(kIters));
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

TEST(PbufFuzz, TruncationSweepNeverCrashes) {
  Rng rng(31);
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  RecordArena arena;
  std::vector<uint8_t> wire = encode_sample(fmt, arena, rng);
  ASSERT_GT(wire.size(), 4u);
  size_t parsed = 0, rejected = 0;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    RecordArena scratch;
    try {
      // A protobuf stream cut at a field boundary is a shorter valid
      // message, so truncation does not always reject — but it must never
      // crash, hang, or misreport the conservation counters.
      (void)dec.decode(wire.data(), cut, scratch);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, wire.size());
  EXPECT_GT(rejected, 0u);
  BridgeMetrics& m = bridge_metrics();
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

TEST(PbufFuzz, RandomGarbageNeverCrashes) {
  Rng rng(90210);
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  size_t parsed = 0, rejected = 0;
  constexpr int kIters = 400;
  for (int iter = 0; iter < kIters; ++iter) {
    std::vector<uint8_t> junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_below(256));
    RecordArena arena;
    try {
      (void)dec.decode(junk.data(), junk.size(), arena);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, static_cast<size_t>(kIters));
  EXPECT_GT(rejected, 0u);
}

TEST(PbufFuzz, NestedLengthOverflowRejected) {
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  RecordArena arena;
  // members (field 2) claims 1000 payload bytes, frame holds 2.
  ByteBuffer wire;
  put_tag(wire, 2, WireType::kLengthDelimited);
  put_varint(wire, 1000);
  wire.append_u8(0);
  wire.append_u8(0);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

TEST(PbufFuzz, InnerLengthCannotEscapeOuterMessage) {
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  RecordArena arena;
  // A members element whose inner string claims bytes beyond the element's
  // own extent; the sub-reader must clamp to the element, not the frame.
  ByteBuffer inner;
  put_tag(inner, 1, WireType::kLengthDelimited);  // Member.name
  put_varint(inner, 200);                         // lies: extends past element
  ByteBuffer wire;
  put_tag(wire, 2, WireType::kLengthDelimited);
  put_varint(wire, inner.size());
  wire.append(inner.data(), inner.size());
  // Plenty of trailing frame bytes the inner length tries to reach into.
  for (int i = 0; i < 300; ++i) wire.append_u8(0x08);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

TEST(PbufFuzz, DeepNestingHitsDepthCap) {
  // Build a .proto chain nested deeper than FormatDescriptor::kMaxNesting;
  // the format layer itself must refuse it (the decoder's own depth cap
  // then can never be reached through a valid plan).
  std::string src;
  constexpr int kDepth = 40;
  for (int i = kDepth; i >= 1; --i) {
    src += "message M" + std::to_string(i) + " { ";
    if (i < kDepth) src += "M" + std::to_string(i + 1) + " next = 1; ";
    src += "int32 x = 2; }\n";
  }
  EXPECT_THROW(parse_proto(src), Error);
}

TEST(PbufFuzz, OverlongVarintInsideFrameRejected) {
  FormatPtr fmt =
      parse_proto_message("message V { int64 x = 1; }", "V");
  DecodePlan dec(fmt);
  RecordArena arena;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kVarint);
  for (int i = 0; i < 11; ++i) wire.append_u8(0x80);
  wire.append_u8(0x00);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

TEST(PbufFuzz, WireTypeMismatchRejected) {
  FormatPtr fmt =
      parse_proto_message("message W { int32 a = 1; string s = 2; }", "W");
  DecodePlan dec(fmt);
  RecordArena arena;
  {
    // int32 arriving as length-delimited.
    ByteBuffer wire;
    put_tag(wire, 1, WireType::kLengthDelimited);
    put_varint(wire, 1);
    wire.append_u8(7);
    EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  }
  {
    // string arriving as varint.
    ByteBuffer wire;
    put_tag(wire, 2, WireType::kVarint);
    put_varint(wire, 7);
    EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  }
}

TEST(PbufFuzz, RepeatedElementFloodIsBoundedByInput) {
  // A packed run of N zero bytes decodes to N elements — linear in input,
  // no amplification. 100k elements should decode fine and count exactly.
  FormatPtr fmt = parse_proto_message(
      "message P { repeated int32 xs = 1; }", "P");
  DecodePlan dec(fmt);
  RecordArena arena;
  constexpr size_t kN = 100000;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kLengthDelimited);
  put_varint(wire, kN);
  for (size_t i = 0; i < kN; ++i) wire.append_u8(0);
  void* rec = dec.decode(wire.data(), wire.size(), arena);
  EXPECT_EQ(RecordRef(rec, fmt).get_int("xs_count"), static_cast<int64_t>(kN));
}

TEST(PbufFuzz, TinyFrameCannotForceHugeRepeatedAllocation) {
  // A peer-learned descriptor controls element_stride, so a repeated
  // message whose element struct is huge would let a 2-byte empty
  // occurrence demand ~half a GB (grow_dyn_array's initial capacity is 8).
  // The per-frame decode byte budget must reject before allocating.
  constexpr uint32_t kHugeStride = 64u << 20;  // 64 MB per element
  FormatPtr big = FormatBuilder("Big", kHugeStride)
                      .add_int("x", 4, 0)
                      .with_pb_field(1)
                      .build();
  FormatPtr top = FormatBuilder("Top", 16)
                      .add_uint("items_count", 8, 0)
                      .add_dyn_array("items", big, "items_count", 8)
                      .with_pb_field(1)
                      .build();
  DecodePlan dec(top);
  BridgeMetrics& m = bridge_metrics();
  uint64_t rejected0 = m.rejected.value();
  RecordArena arena;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kLengthDelimited);
  put_varint(wire, 0);  // one empty occurrence: 2 wire bytes
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  EXPECT_EQ(m.rejected.value(), rejected0 + 1);
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
  EXPECT_LT(arena.bytes_allocated(), 1u << 20);  // the 512 MB never happened
}

TEST(PbufFuzz, EmptyOccurrenceFloodIsBudgetBounded) {
  // Moderate stride, many empty occurrences: each costs 2 wire bytes but
  // allocates ~1 KB of record. Total decoded bytes must stay proportional
  // to the payload, so the flood rejects instead of amplifying ~500x.
  FormatPtr elem = FormatBuilder("Elem", 1024)
                       .add_int("x", 4, 0)
                       .with_pb_field(1)
                       .build();
  FormatPtr top = FormatBuilder("Top", 16)
                      .add_uint("items_count", 8, 0)
                      .add_dyn_array("items", elem, "items_count", 8)
                      .with_pb_field(1)
                      .build();
  DecodePlan dec(top);
  RecordArena arena;
  ByteBuffer wire;
  for (int i = 0; i < 4096; ++i) {
    put_tag(wire, 1, WireType::kLengthDelimited);
    put_varint(wire, 0);
  }
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  BridgeMetrics& m = bridge_metrics();
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

TEST(PbufFuzz, EmbeddedNulInStringRejected) {
  FormatPtr fmt = parse_proto_message("message S { string s = 1; }", "S");
  DecodePlan dec(fmt);
  RecordArena arena;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kLengthDelimited);
  put_varint(wire, 3);
  wire.append("a\0b", 3);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

// ---------------------------------------------------------------------------
// Hostile records on the encode side
// ---------------------------------------------------------------------------

/// A v1 ChannelOpenResponse with four members on each list.
struct V1Record {
  RecordArena arena;
  FormatPtr fmt = annotate_field_numbers(*echo::channel_open_response_v1_format());
  echo::ChannelOpenResponseV1 rec{};
  V1Record() {
    Rng rng(5);
    echo::ResponseWorkload w;
    w.members = 4;
    rec = *echo::transform_v2_to_v1_reference(*echo::make_response_v2(w, rng, arena), arena);
  }
};

std::vector<uint8_t> encode_bytes(const FormatPtr& fmt, const void* rec) {
  ByteBuffer out;
  EncodePlan(fmt).encode(rec, out);
  return {out.data(), out.data() + out.size()};
}

TEST(PbufEncodeHostile, NegativeArrayCountEncodesAsEmpty) {
  // pbio::Encoder's rule: count <= 0 is an empty array. The array pointers
  // stay valid, so reading even one element past a negative count would be
  // the bug, not a null dereference.
  V1Record v1;
  echo::ChannelOpenResponseV1 negative = v1.rec;
  negative.src_count = -1;
  negative.sink_count = std::numeric_limits<int32_t>::min();
  echo::ChannelOpenResponseV1 empty = v1.rec;
  empty.src_count = 0;
  empty.sink_count = 0;
  ASSERT_NE(encode_bytes(v1.fmt, &empty), encode_bytes(v1.fmt, &v1.rec));
  EXPECT_EQ(encode_bytes(v1.fmt, &negative), encode_bytes(v1.fmt, &empty));

  // Packed scalars and repeated strings follow the same rule.
  FormatPtr f = annotate_field_numbers(*FormatBuilder("R")
                                            .add_int("xs_count", 4)
                                            .add_dyn_array("xs", pbio::FieldKind::kInt, 4,
                                                           "xs_count")
                                            .add_int("ss_count", 8)
                                            .add_dyn_array("ss", pbio::FieldKind::kString, 8,
                                                           "ss_count")
                                            .build());
  RecordArena arena;
  void* rec = pbio::alloc_record(*f, arena);
  RecordRef r(rec, f);
  pbio::grow_dyn_array(rec, *f->find_field("xs"), arena, 0);
  pbio::grow_dyn_array(rec, *f->find_field("ss"), arena, 0);
  r.set_int("xs_count", -5);
  r.set_int("ss_count", -1);
  EXPECT_TRUE(encode_bytes(f, rec).empty());
}

TEST(PbufEncodeHostile, NegativeArrayCountThroughGroupPublisherDeliversEmptyArray) {
  // A broker with a protobuf sink encodes whatever the morph left in the
  // record; a negative count must reach the sink as an empty list.
  V1Record v1;
  echo::ChannelOpenResponseV1 negative = v1.rec;
  negative.src_count = -1;

  core::FanoutPlanner planner;
  planner.learn_format(v1.fmt);
  echo::GroupPublisher publisher(planner);
  transport::InprocPair pair;
  core::Receiver rx;
  int delivered = 0;
  int64_t src_count = -1, member_count = 0;
  rx.register_handler(v1.fmt, [&](const core::Delivery& d) {
    ++delivered;
    RecordRef got(d.record, v1.fmt);
    src_count = got.get_int("src_count");
    member_count = got.get_int("member_count");
  });
  transport::MessagePort broker(pair.a(), nullptr);
  transport::MessagePort sink(pair.b(), &rx);

  echo::GroupSnapshot snapshot;
  snapshot.groups.push_back({v1.fmt->fingerprint(), echo::SinkEncoding::kPbuf, {1}});
  snapshot.total_sinks = 1;
  size_t fallbacks = 0;
  echo::PublishCounts counts = publisher.publish(
      v1.fmt, &negative, snapshot, [&](echo::SinkId) { return &broker; },
      [&](echo::SinkId) { ++fallbacks; });
  pair.pump();

  EXPECT_EQ(counts.pbuf_encodes, 1u);
  EXPECT_EQ(counts.deliveries, 1u);
  EXPECT_EQ(fallbacks, 0u);
  EXPECT_EQ(sink.stats().pbuf_rejects, 0u);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(src_count, 0);
  EXPECT_EQ(member_count, v1.rec.member_count);
}

}  // namespace
}  // namespace morph::pbuf
