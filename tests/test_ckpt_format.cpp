// The checkpoint wire format (src/ckpt/): primitive and component
// round-trips must be bit-exact, and every way a stream can be damaged —
// truncation, corruption, wrong magic/version, reader/writer disagreement —
// must surface as the right typed error naming the bad section, never UB.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "ckpt/crc32.hpp"
#include "ckpt/state_io.hpp"

namespace sagnn {
namespace {

using ckpt::CheckpointCrcError;
using ckpt::CheckpointFormatError;
using ckpt::CheckpointTruncatedError;
using ckpt::Deserializer;
using ckpt::Serializer;

TEST(CkptCrc32, MatchesKnownVectors) {
  // The classic IEEE CRC-32 check value.
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);
  // Incremental == one-shot.
  std::uint32_t inc = ckpt::crc32_update(0, "1234", 4);
  inc = ckpt::crc32_update(inc, "56789", 5);
  EXPECT_EQ(inc, 0xcbf43926u);
}

TEST(CkptFormat, PrimitivesRoundTripBitExact) {
  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("prims");
  s.write_u8(0xab);
  s.write_u32(0xdeadbeefu);
  s.write_u64(0x0123456789abcdefull);
  s.write_i32(-42);
  s.write_i64(-1234567890123ll);
  s.write_f32(-0.0f);
  s.write_f32(1.0f / 3.0f);
  s.write_f64(1.0 / 3.0);
  s.write_string("hello checkpoint");
  s.end_section();
  s.finish();

  Deserializer d(ss);
  d.enter_section("prims");
  EXPECT_EQ(d.read_u8(), 0xab);
  EXPECT_EQ(d.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(d.read_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(d.read_i32(), -42);
  EXPECT_EQ(d.read_i64(), -1234567890123ll);
  const float neg_zero = d.read_f32();
  EXPECT_EQ(std::bit_cast<std::uint32_t>(neg_zero),
            std::bit_cast<std::uint32_t>(-0.0f));  // sign bit survives
  EXPECT_EQ(std::bit_cast<std::uint32_t>(d.read_f32()),
            std::bit_cast<std::uint32_t>(1.0f / 3.0f));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.read_f64()),
            std::bit_cast<std::uint64_t>(1.0 / 3.0));
  EXPECT_EQ(d.read_string(), "hello checkpoint");
  d.leave_section();
  d.finish();
}

TEST(CkptFormat, UnknownSectionsCanBeSkippedByName) {
  // Self-describing: a reader can observe a section it does not know via
  // peek_section() and still land on the one it wants.
  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("future_extension");
  s.write_u64(123);
  s.end_section();
  s.begin_section("known");
  s.write_i32(7);
  s.end_section();
  s.finish();

  Deserializer d(ss);
  EXPECT_EQ(d.peek_section(), "future_extension");
  d.enter_section("future_extension");
  (void)d.read_u64();
  d.leave_section();
  d.enter_section("known");
  EXPECT_EQ(d.read_i32(), 7);
  d.leave_section();
  d.finish();
}

TEST(CkptState, MatrixRoundTripsBitwise) {
  Rng rng(7);
  const Matrix m = Matrix::random_uniform(13, 5, rng, -3.0f, 3.0f);
  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("m");
  ckpt::write_matrix(s, m);
  s.end_section();
  s.finish();
  Deserializer d(ss);
  d.enter_section("m");
  const Matrix back = ckpt::read_matrix(d);
  d.leave_section();
  EXPECT_TRUE(back == m);
}

TEST(CkptState, RngResumesIdenticalStream) {
  Rng rng(999);
  for (int i = 0; i < 57; ++i) (void)rng.next();  // advance mid-stream

  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("rng");
  ckpt::write_rng(s, rng);
  s.end_section();
  s.finish();
  Deserializer d(ss);
  d.enter_section("rng");
  Rng restored = ckpt::read_rng(d);
  d.leave_section();

  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(restored.next(), rng.next()) << "draw " << i;
  }
  // fork() depends on the saved seed, not only the xoshiro words.
  EXPECT_EQ(restored.fork(3).next(), rng.fork(3).next());
}

TEST(CkptState, TrafficRecorderRoundTrips) {
  TrafficRecorder tr(3);
  tr.record("alltoall", 0, 1, 100);
  tr.record("alltoall", 1, 2, 250);
  tr.record(TrafficRecorder::stage_phase("alltoall", 1), 2, 0, 50);
  tr.record("allreduce", 0, 2, 8);

  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("traffic");
  ckpt::write_traffic(s, tr);
  s.end_section();
  s.finish();
  Deserializer d(ss);
  d.enter_section("traffic");
  const TrafficRecorder back = ckpt::read_traffic(d);
  d.leave_section();

  EXPECT_EQ(back.p(), 3);
  EXPECT_EQ(back.phase_names(), tr.phase_names());
  for (const auto& name : tr.phase_names()) {
    const PhaseTraffic a = tr.phase(name);
    const PhaseTraffic b = back.phase(name);
    EXPECT_EQ(a.bytes, b.bytes) << name;
    EXPECT_EQ(a.msgs, b.msgs) << name;
  }
  EXPECT_EQ(back.stage_count("alltoall"), 2);
}

TEST(CkptState, TrainConfigRoundTrips) {
  TrainConfig cfg;
  cfg.gcn.dims = {8, 16, 16, 3};
  cfg.gcn.learning_rate = 0.07f;
  cfg.gcn.weight_decay = 1e-4f;
  cfg.gcn.dropout = 0.3f;
  cfg.gcn.epochs = 42;
  cfg.gcn.seed = 777;
  cfg.strategy = "1.5d-sparse";
  cfg.threads = 4;
  cfg.p = 8;
  cfg.c = 2;
  cfg.partitioner = "gvb";
  cfg.partitioner_options.epsilon = 0.05;
  cfg.partitioner_options.seed = 31337;
  cfg.cost_model.volume_scale = 12.5;
  cfg.pipeline_chunks = 6;
  cfg.sampling.batch_size = 128;
  cfg.sampling.fanouts = {10, 5, 5};

  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("config");
  ckpt::write_train_config(s, cfg);
  s.end_section();
  s.finish();
  Deserializer d(ss);
  d.enter_section("config");
  const TrainConfig back = ckpt::read_train_config(d);
  d.leave_section();

  EXPECT_EQ(back.gcn.dims, cfg.gcn.dims);
  EXPECT_EQ(back.gcn.learning_rate, cfg.gcn.learning_rate);
  EXPECT_EQ(back.gcn.weight_decay, cfg.gcn.weight_decay);
  EXPECT_EQ(back.gcn.dropout, cfg.gcn.dropout);
  EXPECT_EQ(back.gcn.epochs, cfg.gcn.epochs);
  EXPECT_EQ(back.gcn.seed, cfg.gcn.seed);
  EXPECT_EQ(back.strategy, cfg.strategy);
  EXPECT_EQ(back.threads, cfg.threads);
  EXPECT_EQ(back.p, cfg.p);
  EXPECT_EQ(back.c, cfg.c);
  EXPECT_EQ(back.partitioner, cfg.partitioner);
  EXPECT_EQ(back.partitioner_options.epsilon, cfg.partitioner_options.epsilon);
  EXPECT_EQ(back.partitioner_options.seed, cfg.partitioner_options.seed);
  EXPECT_EQ(back.cost_model.volume_scale, cfg.cost_model.volume_scale);
  EXPECT_EQ(back.pipeline_chunks, cfg.pipeline_chunks);
  EXPECT_EQ(back.sampling.batch_size, cfg.sampling.batch_size);
  EXPECT_EQ(back.sampling.fanouts, cfg.sampling.fanouts);
}

// ---------------------------------------------------------------- failures

/// A valid one-section stream to damage in various ways.
std::string valid_stream() {
  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("weights");
  for (int i = 0; i < 32; ++i) s.write_f32(static_cast<float>(i) * 0.25f);
  s.end_section();
  s.finish();
  return ss.str();
}

TEST(CkptFailure, BadMagicIsFormatError) {
  std::string bytes = valid_stream();
  bytes[0] = 'X';
  std::istringstream in(bytes);
  EXPECT_THROW(Deserializer d(in), CheckpointFormatError);
}

TEST(CkptFailure, WrongVersionIsFormatErrorNamingVersions) {
  std::string bytes = valid_stream();
  bytes[8] = 99;  // the version u32 follows the 8-byte magic (little-endian)
  std::istringstream in(bytes);
  try {
    Deserializer d(in);
    FAIL() << "expected CheckpointFormatError";
  } catch (const CheckpointFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
  }
}

TEST(CkptFailure, EmptyStreamIsTruncatedError) {
  std::istringstream in("");
  EXPECT_THROW(Deserializer d(in), CheckpointTruncatedError);
}

TEST(CkptFailure, TruncatedPayloadNamesTheSection) {
  const std::string bytes = valid_stream();
  // Cut inside the "weights" payload (header is 16 bytes, the section
  // header ~19 more; halfway through the stream is mid-payload).
  std::istringstream in(bytes.substr(0, bytes.size() / 2));
  Deserializer d(in);
  try {
    d.enter_section("weights");
    FAIL() << "expected CheckpointTruncatedError";
  } catch (const CheckpointTruncatedError& e) {
    EXPECT_EQ(e.section(), "weights");
  }
}

TEST(CkptFailure, CorruptPayloadIsCrcErrorNamingTheSection) {
  std::string bytes = valid_stream();
  // Flip one payload byte: last 19 bytes are the end marker
  // (4 + 3 + 8 + 4), preceded by the section CRC (4); step back past both
  // to land inside the payload.
  bytes[bytes.size() - 19 - 4 - 8] ^= 0x40;
  std::istringstream in(bytes);
  Deserializer d(in);
  try {
    d.enter_section("weights");
    FAIL() << "expected CheckpointCrcError";
  } catch (const CheckpointCrcError& e) {
    EXPECT_EQ(e.section(), "weights");
  }
}

TEST(CkptFailure, CorruptLengthFieldIsTypedErrorNotBadAlloc) {
  // The u64 payload length lives OUTSIDE the payload CRC; a damaged
  // length must surface as a typed checkpoint error (the chunked read
  // hits end-of-stream), never as std::bad_alloc from one giant resize.
  std::string bytes = valid_stream();
  // Section header after the 16-byte format header: u32 name_len,
  // "weights" (7 bytes), then the u64 payload length at offset 27.
  bytes[27 + 6] = 0x7f;  // payload length becomes ~2^55
  std::istringstream in(bytes);
  Deserializer d(in);
  EXPECT_THROW(d.enter_section("weights"), CheckpointTruncatedError);
}

TEST(CkptFailure, HugeTrafficRankCountIsFormatErrorNotAllocation) {
  // A traffic section with no phases leaves its rank count unbounded by
  // the payload, and a recorder allocates one shard per rank: the reader
  // must refuse an impossible p before building one.
  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("traffic");
  s.write_i32(1 << 30);
  s.write_u64(0);
  s.end_section();
  s.finish();
  Deserializer d(ss);
  d.enter_section("traffic");
  EXPECT_THROW((void)ckpt::read_traffic(d), CheckpointFormatError);
}

TEST(CkptFailure, WrongSectionNameIsFormatErrorNamingBoth) {
  const std::string bytes = valid_stream();
  std::istringstream in(bytes);
  Deserializer d(in);
  try {
    d.enter_section("model");
    FAIL() << "expected CheckpointFormatError";
  } catch (const CheckpointFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("model"), std::string::npos);
    EXPECT_NE(what.find("weights"), std::string::npos);
  }
}

TEST(CkptFailure, UnreadTrailingBytesAreFormatError) {
  const std::string bytes = valid_stream();
  std::istringstream in(bytes);
  Deserializer d(in);
  d.enter_section("weights");
  (void)d.read_f32();  // 31 floats left unread
  EXPECT_THROW(d.leave_section(), CheckpointFormatError);
}

TEST(CkptFailure, ReadingPastSectionEndIsTruncatedError) {
  const std::string bytes = valid_stream();
  std::istringstream in(bytes);
  Deserializer d(in);
  d.enter_section("weights");
  for (int i = 0; i < 32; ++i) (void)d.read_f32();
  EXPECT_THROW((void)d.read_u64(), CheckpointTruncatedError);
}

TEST(CkptFailure, MissingEndMarkerIsFormatError) {
  std::stringstream ss;
  Serializer s(ss);
  s.begin_section("a");
  s.end_section();
  // no finish(): stream simply stops
  std::istringstream in(ss.str());
  Deserializer d(in);
  d.enter_section("a");
  d.leave_section();
  EXPECT_THROW(d.finish(), CheckpointTruncatedError);
}

}  // namespace
}  // namespace sagnn
