#include "transport/rtx.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace rave::transport {
namespace {

net::Packet MakePacket(int64_t media_seq, int64_t frame_id = 0) {
  net::Packet p;
  p.media_seq = media_seq;
  p.frame_id = frame_id;
  p.size = DataSize::Bits(9'600);
  return p;
}

TEST(RtxCacheTest, LookupReturnsRetransmissionCopy) {
  RtxCache cache;
  net::Packet p = MakePacket(5);
  p.seq = 100;
  p.send_time = Timestamp::Millis(10);
  cache.Insert(p, Timestamp::Millis(10));
  const auto rtx = cache.Lookup(5, Timestamp::Millis(50));
  ASSERT_TRUE(rtx.has_value());
  EXPECT_TRUE(rtx->is_retransmission);
  EXPECT_EQ(rtx->media_seq, 5);
  EXPECT_EQ(rtx->seq, -1);  // fresh transport seq to be assigned
  EXPECT_EQ(rtx->size, p.size);
}

TEST(RtxCacheTest, MissReturnsNullopt) {
  RtxCache cache;
  EXPECT_FALSE(cache.Lookup(42, Timestamp::Zero()).has_value());
}

TEST(RtxCacheTest, PrunesByAge) {
  RtxCache cache(TimeDelta::Seconds(1));
  cache.Insert(MakePacket(1), Timestamp::Zero());
  cache.Insert(MakePacket(2), Timestamp::Millis(900));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(1, Timestamp::Millis(1500)).has_value());
  EXPECT_TRUE(cache.Lookup(2, Timestamp::Millis(1500)).has_value());
}

TEST(RtxCacheTest, LookupAfterPruneStillServesFreshEntries) {
  // A NACK burst arriving after the prune horizon moved must still be able
  // to fetch every entry that survived, repeatedly (lookups don't consume).
  RtxCache cache(TimeDelta::Seconds(1));
  for (int64_t seq = 0; seq < 10; ++seq) {
    cache.Insert(MakePacket(seq), Timestamp::Millis(100 * seq));
  }
  // At t=1500 entries inserted before t=500 (seqs 0..4) have aged out.
  const Timestamp now = Timestamp::Millis(1500);
  for (int64_t seq = 0; seq < 5; ++seq) {
    EXPECT_FALSE(cache.Lookup(seq, now).has_value()) << "seq " << seq;
  }
  for (int64_t seq = 5; seq < 10; ++seq) {
    ASSERT_TRUE(cache.Lookup(seq, now).has_value()) << "seq " << seq;
    // Retried NACK for the same seq: the entry must still be there.
    ASSERT_TRUE(cache.Lookup(seq, now).has_value()) << "seq " << seq;
  }
  EXPECT_EQ(cache.size(), 5u);
}

TEST(RtxCacheTest, ReinsertAfterFullPruneWorks) {
  RtxCache cache(TimeDelta::Seconds(1));
  cache.Insert(MakePacket(1), Timestamp::Zero());
  EXPECT_FALSE(cache.Lookup(1, Timestamp::Seconds(5)).has_value());
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert(MakePacket(1), Timestamp::Seconds(5));
  EXPECT_TRUE(cache.Lookup(1, Timestamp::Seconds(5)).has_value());
}

TEST(RtxCacheTest, DuplicateInsertRefreshesEntry) {
  // The same media seq sent again (e.g. an RTX of an RTX) refreshes the
  // entry's age instead of creating a second one.
  RtxCache cache(TimeDelta::Seconds(1));
  cache.Insert(MakePacket(1), Timestamp::Zero());
  cache.Insert(MakePacket(1), Timestamp::Millis(900));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup(1, Timestamp::Millis(1500)).has_value());
}

/// One packet of a packetized frame, as the packetizer builds it; the last
/// packet of the frame is short.
net::Packet FramePacket(int64_t media_seq, int64_t frame_id, int index,
                        int count, Timestamp capture, bool keyframe,
                        bool is_fec = false) {
  net::Packet p;
  p.seq = 1000 + media_seq;  // transport seq of the first send
  p.media_seq = media_seq;
  p.is_fec = is_fec;
  p.size = DataSize::Bytes(index + 1 == count ? 300 + frame_id : 1268);
  p.send_time = capture + TimeDelta::Millis(index);
  p.frame_id = frame_id;
  p.packet_index = index;
  p.packets_in_frame = count;
  p.capture_time = capture;
  p.keyframe = keyframe;
  return p;
}

/// Appends `count` packets of one frame from media seq `first` on.
void AddFrame(std::vector<net::Packet>& out, int64_t first, int64_t frame_id,
              int count, Timestamp capture, bool keyframe,
              bool is_fec = false) {
  for (int i = 0; i < count; ++i) {
    out.push_back(
        FramePacket(first + i, frame_id, i, count, capture, keyframe, is_fec));
  }
}

/// The cache's answer must be `sent` field for field, with only the
/// retransmission flag set and the transport seq and send time reset.
void ExpectRetransmissionOf(const net::Packet& sent,
                            const std::optional<net::Packet>& rtx) {
  SCOPED_TRACE(testing::Message() << "media seq " << sent.media_seq);
  ASSERT_TRUE(rtx.has_value());
  EXPECT_EQ(rtx->seq, -1);
  EXPECT_EQ(rtx->media_seq, sent.media_seq);
  EXPECT_TRUE(rtx->is_retransmission);
  EXPECT_EQ(rtx->is_fec, sent.is_fec);
  EXPECT_EQ(rtx->size, sent.size);
  EXPECT_TRUE(rtx->send_time.IsMinusInfinity());
  EXPECT_EQ(rtx->frame_id, sent.frame_id);
  EXPECT_EQ(rtx->packet_index, sent.packet_index);
  EXPECT_EQ(rtx->packets_in_frame, sent.packets_in_frame);
  EXPECT_EQ(rtx->capture_time, sent.capture_time);
  EXPECT_EQ(rtx->keyframe, sent.keyframe);
}

TEST(RtxCacheTest, LookupRebuildsEveryPacketField) {
  std::vector<net::Packet> sent;
  AddFrame(sent, 0, 10, 4, Timestamp::Millis(100), /*keyframe=*/true);
  AddFrame(sent, 4, 11, 1, Timestamp::Millis(117), false);
  AddFrame(sent, 5, 12, 3, Timestamp::Millis(133), false);
  AddFrame(sent, 8, 12, 2, Timestamp::Millis(133), false, /*is_fec=*/true);
  RtxCache cache;
  for (const net::Packet& p : sent) cache.Insert(p, p.send_time);
  EXPECT_EQ(cache.size(), sent.size());
  // One record per run of packets with equal frame metadata.
  EXPECT_EQ(cache.frame_records(), 4u);
  for (const net::Packet& p : sent) {
    ExpectRetransmissionOf(p,
                           cache.Lookup(p.media_seq, Timestamp::Millis(200)));
  }
}

TEST(RtxCacheTest, FrameRecordsPruneWithTheirLastPacket) {
  // Three frames sent 400 ms apart; frame 1's packets leave the pacer
  // 200 ms apart, so its record must outlive its first packet.
  std::vector<net::Packet> sent;
  AddFrame(sent, 0, 0, 3, Timestamp::Zero(), true);
  AddFrame(sent, 3, 1, 2, Timestamp::Millis(400), false);
  AddFrame(sent, 5, 2, 2, Timestamp::Millis(800), false);
  const Timestamp sent_at[] = {
      Timestamp::Zero(),       Timestamp::Zero(),       Timestamp::Zero(),
      Timestamp::Millis(400),  Timestamp::Millis(600),  Timestamp::Millis(800),
      Timestamp::Millis(800)};
  RtxCache cache(TimeDelta::Seconds(1));
  for (size_t i = 0; i < sent.size(); ++i) cache.Insert(sent[i], sent_at[i]);
  ASSERT_EQ(cache.frame_records(), 3u);

  // Frame 0 aged out; frame 1's first packet too, but not its second.
  const Timestamp t1 = Timestamp::Millis(1500);
  for (int64_t seq = 0; seq < 4; ++seq) {
    EXPECT_FALSE(cache.Lookup(seq, t1).has_value()) << "seq " << seq;
  }
  for (size_t i = 4; i < sent.size(); ++i) {
    ExpectRetransmissionOf(sent[i], cache.Lookup(sent[i].media_seq, t1));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.frame_records(), 2u);

  // Frame 1's last packet is gone, and its record with it.
  const Timestamp t2 = Timestamp::Millis(1700);
  EXPECT_FALSE(cache.Lookup(4, t2).has_value());
  ExpectRetransmissionOf(sent[5], cache.Lookup(5, t2));
  ExpectRetransmissionOf(sent[6], cache.Lookup(6, t2));
  EXPECT_EQ(cache.frame_records(), 1u);

  // New frames after the prune reuse nothing stale.
  std::vector<net::Packet> later;
  AddFrame(later, 7, 3, 2, Timestamp::Millis(1700), true);
  for (const net::Packet& p : later) cache.Insert(p, Timestamp::Millis(1700));
  for (const net::Packet& p : later) {
    ExpectRetransmissionOf(p, cache.Lookup(p.media_seq, t2));
  }
  ExpectRetransmissionOf(sent[6], cache.Lookup(6, t2));

  EXPECT_FALSE(cache.Lookup(8, Timestamp::Seconds(10)).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.frame_records(), 0u);
}

TEST(RtxCacheTest, RefreshTakesTheNewPacketsFields) {
  std::vector<net::Packet> sent;
  AddFrame(sent, 0, 0, 3, Timestamp::Zero(), true);
  AddFrame(sent, 3, 1, 2, Timestamp::Millis(17), false);
  RtxCache cache(TimeDelta::Seconds(1));
  for (const net::Packet& p : sent) cache.Insert(p, Timestamp::Zero());

  // Re-insert seq 1 with other frame metadata and size, 900 ms later.
  net::Packet refreshed =
      FramePacket(1, 7, 0, 1, Timestamp::Millis(900), false);
  refreshed.size = DataSize::Bytes(99);
  cache.Insert(refreshed, Timestamp::Millis(900));
  EXPECT_EQ(cache.size(), sent.size());
  ExpectRetransmissionOf(refreshed, cache.Lookup(1, Timestamp::Millis(900)));
  for (const size_t i : {0, 2, 3, 4}) {
    ExpectRetransmissionOf(sent[i],
                           cache.Lookup(sent[i].media_seq,
                                        Timestamp::Millis(900)));
  }

  // Pruning is front-first by seq: seq 0 ages out, the refreshed seq 1 is
  // young and holds the older seqs behind it, each with its own fields.
  const Timestamp later = Timestamp::Millis(1500);
  EXPECT_FALSE(cache.Lookup(0, later).has_value());
  ExpectRetransmissionOf(refreshed, cache.Lookup(1, later));
  for (const size_t i : {2, 3, 4}) {
    ExpectRetransmissionOf(sent[i], cache.Lookup(sent[i].media_seq, later));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.frame_records(), 3u);

  EXPECT_FALSE(cache.Lookup(1, Timestamp::Millis(2000)).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.frame_records(), 0u);
}

TEST(RtxCacheTest, SeqGapsAreMissesBetweenExactEntries) {
  std::vector<net::Packet> sent;
  AddFrame(sent, 0, 0, 2, Timestamp::Zero(), true);
  AddFrame(sent, 5, 1, 2, Timestamp::Millis(17), false);
  RtxCache cache;
  for (const net::Packet& p : sent) cache.Insert(p, Timestamp::Zero());
  EXPECT_EQ(cache.size(), 4u);
  for (int64_t seq = 2; seq < 5; ++seq) {
    EXPECT_FALSE(cache.Lookup(seq, Timestamp::Zero()).has_value());
  }
  for (const net::Packet& p : sent) {
    ExpectRetransmissionOf(p, cache.Lookup(p.media_seq, Timestamp::Zero()));
  }
}

TEST(FrameSeqTableTest, EmptyTableKnowsNoSeq) {
  const FrameSeqTable table;
  EXPECT_EQ(table.FrameOf(0), -1);
  EXPECT_EQ(table.FrameOf(-1), -1);
}

TEST(FrameSeqTableTest, MapsEverySeqToItsFrame) {
  FrameSeqTable table;
  table.Append(0, 3, 0);  // seqs 0..2
  table.Append(3, 1, 1);  // seq 3
  // Frame 2 was skipped by the encoder: it has no packets and no entry.
  table.Append(4, 5, 3);  // seqs 4..8
  const int64_t expected[] = {0, 0, 0, 1, 3, 3, 3, 3, 3};
  for (int64_t seq = 0; seq < 9; ++seq) {
    EXPECT_EQ(table.FrameOf(seq), expected[seq]) << "seq " << seq;
  }
  // Negative seqs (FEC, cross traffic) and seqs at or above the next
  // unassigned one belong to no frame.
  EXPECT_EQ(table.FrameOf(-1), -1);
  EXPECT_EQ(table.FrameOf(9), -1);
  EXPECT_EQ(table.FrameOf(1000), -1);
  table.Append(9, 2, 4);
  EXPECT_EQ(table.FrameOf(9), 4);
  EXPECT_EQ(table.FrameOf(10), 4);
  EXPECT_EQ(table.FrameOf(11), -1);
}

TEST(FrameSeqTableTest, SeqsBeforeTheFirstFrameAreUnknown) {
  FrameSeqTable table;
  table.Append(5, 2, 0);
  EXPECT_EQ(table.FrameOf(4), -1);
  EXPECT_EQ(table.FrameOf(5), 0);
  EXPECT_EQ(table.FrameOf(6), 0);
  EXPECT_EQ(table.FrameOf(7), -1);
}

struct NackFixture {
  explicit NackFixture(NackGenerator::Config config = {}) {
    gen = std::make_unique<NackGenerator>(
        loop, config, [this](const NackBatch& b) { batches.push_back(b); },
        [this](int64_t seq) { given_up.push_back(seq); });
  }
  EventLoop loop;
  std::vector<NackBatch> batches;
  std::vector<int64_t> given_up;
  std::unique_ptr<NackGenerator> gen;
};

TEST(NackGeneratorTest, DetectsGapAndNacks) {
  NackFixture fx;
  fx.gen->OnPacketReceived(MakePacket(0));
  fx.gen->OnPacketReceived(MakePacket(3));  // 1, 2 missing
  EXPECT_EQ(fx.gen->missing(), 2u);
  fx.loop.RunFor(TimeDelta::Millis(40));
  ASSERT_FALSE(fx.batches.empty());
  EXPECT_EQ(fx.batches[0].media_seqs, (std::vector<int64_t>{1, 2}));
}

TEST(NackGeneratorTest, ArrivalClearsMissing) {
  NackFixture fx;
  fx.gen->OnPacketReceived(MakePacket(0));
  fx.gen->OnPacketReceived(MakePacket(2));
  fx.gen->OnPacketReceived(MakePacket(1));  // RTX or late arrival
  EXPECT_EQ(fx.gen->missing(), 0u);
  fx.loop.RunFor(TimeDelta::Millis(100));
  EXPECT_TRUE(fx.batches.empty());
}

TEST(NackGeneratorTest, RetriesWithBackoffThenGivesUp) {
  NackGenerator::Config config;
  config.initial_delay = TimeDelta::Millis(5);
  config.retry_interval = TimeDelta::Millis(100);
  config.max_retries = 3;
  config.process_interval = TimeDelta::Millis(20);
  NackFixture fx(config);
  fx.gen->OnPacketReceived(MakePacket(0));
  fx.gen->OnPacketReceived(MakePacket(2));
  fx.loop.RunFor(TimeDelta::Seconds(1));
  // 3 NACKs, then abandoned.
  EXPECT_EQ(fx.gen->nacks_sent(), 3);
  ASSERT_EQ(fx.given_up.size(), 1u);
  EXPECT_EQ(fx.given_up[0], 1);
  EXPECT_EQ(fx.gen->missing(), 0u);
}

TEST(NackGeneratorTest, RetrySpacingRespected) {
  NackGenerator::Config config;
  config.initial_delay = TimeDelta::Millis(5);
  config.retry_interval = TimeDelta::Millis(100);
  config.max_retries = 10;
  config.process_interval = TimeDelta::Millis(10);
  NackFixture fx(config);
  fx.gen->OnPacketReceived(MakePacket(0));
  fx.gen->OnPacketReceived(MakePacket(2));
  fx.loop.RunFor(TimeDelta::Millis(250));
  // First NACK at ~10 ms, retries at ~110 and ~210 ms -> 3 so far.
  EXPECT_EQ(fx.gen->nacks_sent(), 3);
}

TEST(NackGeneratorTest, NoNackBeforeInitialDelay) {
  NackGenerator::Config config;
  config.initial_delay = TimeDelta::Millis(50);
  config.process_interval = TimeDelta::Millis(10);
  NackFixture fx(config);
  fx.gen->OnPacketReceived(MakePacket(0));
  fx.gen->OnPacketReceived(MakePacket(2));
  fx.loop.RunFor(TimeDelta::Millis(40));
  EXPECT_TRUE(fx.batches.empty());
  fx.loop.RunFor(TimeDelta::Millis(30));
  EXPECT_FALSE(fx.batches.empty());
}

TEST(NackGeneratorTest, GiveUpFiresOncePerSeqAndDoesNotResurrect) {
  NackGenerator::Config config;
  config.initial_delay = TimeDelta::Millis(5);
  config.retry_interval = TimeDelta::Millis(50);
  config.max_retries = 2;
  config.process_interval = TimeDelta::Millis(10);
  NackFixture fx(config);
  fx.gen->OnPacketReceived(MakePacket(0));
  fx.gen->OnPacketReceived(MakePacket(4));  // 1, 2, 3 missing
  fx.loop.RunFor(TimeDelta::Seconds(1));

  // Every abandoned seq surfaces exactly once.
  EXPECT_EQ(fx.given_up, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(fx.gen->missing(), 0u);

  // A duplicate/late copy of an abandoned seq must not resurrect it.
  fx.gen->OnPacketReceived(MakePacket(2));
  fx.loop.RunFor(TimeDelta::Seconds(1));
  EXPECT_EQ(fx.given_up.size(), 3u);
  EXPECT_EQ(fx.gen->missing(), 0u);
}

TEST(NackGeneratorTest, DuplicateArrivalsDoNotCreateGaps) {
  NackFixture fx;
  fx.gen->OnPacketReceived(MakePacket(0));
  fx.gen->OnPacketReceived(MakePacket(1));
  fx.gen->OnPacketReceived(MakePacket(1));  // duplicated in the network
  fx.gen->OnPacketReceived(MakePacket(0));  // late duplicate
  fx.gen->OnPacketReceived(MakePacket(2));
  EXPECT_EQ(fx.gen->missing(), 0u);
  fx.loop.RunFor(TimeDelta::Millis(100));
  EXPECT_TRUE(fx.batches.empty());
}

TEST(NackGeneratorTest, IgnoresPacketsWithoutMediaSeq) {
  NackFixture fx;
  net::Packet p;
  p.media_seq = -1;
  fx.gen->OnPacketReceived(p);
  EXPECT_EQ(fx.gen->missing(), 0u);
}

}  // namespace
}  // namespace rave::transport
