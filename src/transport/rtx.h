// Retransmission machinery (WebRTC NACK/RTX style):
//   * `RtxCache` (sender) retains recently sent media packets so a NACKed
//     media sequence number can be retransmitted with a fresh transport
//     sequence number.
//   * `NackGenerator` (receiver) watches the media sequence space for gaps
//     and emits NACK batches, retrying with backoff and giving up after a
//     bounded number of attempts (at which point the frame is unrecoverable
//     and the loss surfaces to the assembler/PLI path).
//
//   * `FrameSeqTable` (sender) maps a given-up media seq back to its frame.
//
// All exploit the monotone media sequence space for flat storage: the cache
// is a ring indexed by (media_seq - front seq), the missing set a sorted
// flat vector, the frame table one sorted entry per frame — no node-based
// containers, no per-packet allocation once the rings reach steady-state
// capacity.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "util/inline_function.h"
#include "util/ring_deque.h"
#include "util/time.h"
#include "util/units.h"

namespace rave::transport {

/// Sender-side cache of recently sent media packets, keyed by media seq.
/// Media sequence numbers are assigned monotonically and first transmissions
/// leave the pacer in order, so the cache is a contiguous ring: insert
/// appends at the back, prune pops from the front, lookup is an array index.
///
/// Only what differs between the packets of one frame is stored per packet
/// (24 B); the frame metadata they share lives once in a second ring, so a
/// 25-packet frame costs 25 small records plus one frame record instead of
/// 25 full packet copies.
class RtxCache {
 public:
  /// Packets older than `window` are pruned.
  explicit RtxCache(TimeDelta window = TimeDelta::Seconds(2));

  /// Stores a packet as it is first sent. Re-inserting a cached seq
  /// refreshes the entry (age included).
  void Insert(const net::Packet& packet, Timestamp now);

  /// Fetches a packet for retransmission; nullopt if it aged out. The
  /// returned packet is flagged `is_retransmission` with `seq` reset.
  std::optional<net::Packet> Lookup(int64_t media_seq, Timestamp now);

  size_t size() const { return valid_count_; }
  /// Frame records held (at most one per cached frame).
  size_t frame_records() const { return frames_.size(); }

 private:
  /// Metadata shared by every packet of a frame.
  struct FrameRecord {
    int64_t frame_id = -1;
    Timestamp capture_time = Timestamp::MinusInfinity();
    /// Highest media seq that refers to this record; once the packet ring
    /// has pruned past it, no entry can refer to it any more.
    int64_t last_seq = -1;
    int packets_in_frame = 1;
    bool keyframe = false;
    bool is_fec = false;
  };

  /// `frame` value of a gap placeholder.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// Per-packet record.
  struct Entry {
    Timestamp sent = Timestamp::MinusInfinity();
    DataSize size = DataSize::Zero();
    int32_t packet_index = 0;
    /// Frame record number (`frame_base_` is the front of `frames_`), or
    /// kNoFrame for a gap placeholder.
    uint32_t frame = kNoFrame;

    bool valid() const { return frame != kNoFrame; }
  };
  static_assert(sizeof(Entry) <= 24, "RtxCache::Entry grew past 24 bytes");

  /// Record number of `packet`'s frame metadata, appending a frame record
  /// unless it matches the newest one.
  uint32_t FrameFor(const net::Packet& packet);
  void Prune(Timestamp now);

  TimeDelta window_;
  /// Entry i holds media seq `base_seq_ + i`; gap seqs are invalid entries.
  RingDeque<Entry> ring_;
  int64_t base_seq_ = 0;
  size_t valid_count_ = 0;
  /// Frame record number `frame_base_ + i` is `frames_[i]`. Numbers count
  /// from 0, so they reach kNoFrame only after 2^32 - 1 frame records
  /// (over two years of 60 fps video in one cache).
  RingDeque<FrameRecord> frames_;
  uint32_t frame_base_ = 0;
};

/// Sender-side media seq -> frame id map for the NACK give-up path. Each
/// frame's packets take consecutive media seqs and frames follow each other
/// without gaps, so one (first media seq, frame id) entry per packetized
/// frame covers every packet: 16 B per frame instead of 8 B per packet.
class FrameSeqTable {
 public:
  void Reserve(size_t frames) { starts_.reserve(frames); }

  /// Records a packetized frame of `packet_count` > 0 packets whose first
  /// media seq is `first_media_seq`, the seq right after the previous
  /// frame's last.
  void Append(int64_t first_media_seq, int64_t packet_count,
              int64_t frame_id);

  /// Frame id of the packet with `media_seq`; -1 when no recorded frame
  /// holds it (negative, or at or above the next unassigned seq).
  int64_t FrameOf(int64_t media_seq) const;

 private:
  struct Start {
    int64_t first_media_seq;
    int64_t frame_id;
  };

  /// Sorted by first_media_seq.
  std::vector<Start> starts_;
  /// One past the last recorded frame's last media seq.
  int64_t end_seq_ = 0;
};

/// One NACK message: media sequence numbers the receiver is missing.
struct NackBatch {
  std::vector<int64_t> media_seqs;
};

/// Receiver-side gap detector with retry/backoff.
class NackGenerator {
 public:
  struct Config {
    /// Delay before a fresh gap is NACKed (reordering grace; our links are
    /// FIFO so this is small).
    TimeDelta initial_delay = TimeDelta::Millis(5);
    /// Minimum spacing between NACKs of the same sequence.
    TimeDelta retry_interval = TimeDelta::Millis(120);
    int max_retries = 4;
    /// Batches are flushed at this cadence.
    TimeDelta process_interval = TimeDelta::Millis(20);
  };

  using SendCallback = InlineFunction<void(const NackBatch&)>;
  /// Invoked when a media seq is abandoned (retries exhausted).
  using GiveUpCallback = InlineFunction<void(int64_t media_seq)>;

  NackGenerator(EventLoop& loop, const Config& config, SendCallback send,
                GiveUpCallback give_up);

  /// Feeds every received media packet (first transmissions and RTX alike).
  void OnPacketReceived(const net::Packet& packet);

  size_t missing() const { return missing_.size(); }
  int64_t nacks_sent() const { return nacks_sent_; }

 private:
  void Process();

  struct MissingEntry {
    int64_t seq = -1;
    Timestamp first_seen;
    Timestamp last_nack = Timestamp::MinusInfinity();
    int retries = 0;
  };

  EventLoop& loop_;
  Config config_;
  SendCallback send_;
  GiveUpCallback give_up_;
  RepeatingTask task_;
  int64_t highest_seen_ = -1;
  /// Sorted by seq: new gaps append at the back (monotone), arrivals erase
  /// in place. Small in steady state (bounded by the retry/give-up horizon).
  std::vector<MissingEntry> missing_;
  /// Reused across Process() calls so flushing never allocates in steady
  /// state (the NackBatch handed to `send_` is const& and copied only if the
  /// receiver keeps it).
  NackBatch batch_scratch_;
  std::vector<int64_t> abandoned_scratch_;
  int64_t nacks_sent_ = 0;
};

}  // namespace rave::transport
