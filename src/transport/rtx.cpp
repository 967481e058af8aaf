#include "transport/rtx.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace rave::transport {

RtxCache::RtxCache(TimeDelta window) : window_(window) {}

void RtxCache::Insert(const net::Packet& packet, Timestamp now) {
  if (packet.media_seq < 0) return;
  if (!ring_.empty() && packet.media_seq < base_seq_) {
    // Older than anything cached (already pruned); monotone send order
    // makes this unreachable in practice, and re-caching it would only
    // produce an immediately-prunable entry.
    return;
  }
  if (ring_.empty()) base_seq_ = packet.media_seq;
  const Entry entry{.sent = now,
                    .size = packet.size,
                    .packet_index = packet.packet_index,
                    .frame = FrameFor(packet)};
  const auto idx = static_cast<size_t>(packet.media_seq - base_seq_);
  if (idx < ring_.size()) {
    Entry& e = ring_[idx];
    if (!e.valid()) ++valid_count_;
    e = entry;
  } else {
    // Fill any seq gap with invalid placeholders so indexing stays direct.
    while (ring_.size() < idx) ring_.push_back(Entry{});
    ring_.push_back(entry);
    ++valid_count_;
  }
  Prune(now);
}

uint32_t RtxCache::FrameFor(const net::Packet& packet) {
  const bool same_frame =
      !frames_.empty() && frames_.back().frame_id == packet.frame_id &&
      frames_.back().capture_time == packet.capture_time &&
      frames_.back().packets_in_frame == packet.packets_in_frame &&
      frames_.back().keyframe == packet.keyframe &&
      frames_.back().is_fec == packet.is_fec;
  if (same_frame) {
    int64_t& last_seq = frames_.back().last_seq;
    last_seq = std::max(last_seq, packet.media_seq);
  } else {
    frames_.push_back(FrameRecord{.frame_id = packet.frame_id,
                                  .capture_time = packet.capture_time,
                                  .last_seq = packet.media_seq,
                                  .packets_in_frame = packet.packets_in_frame,
                                  .keyframe = packet.keyframe,
                                  .is_fec = packet.is_fec});
  }
  const uint32_t frame =
      frame_base_ + static_cast<uint32_t>(frames_.size() - 1);
  assert(frame != kNoFrame);
  return frame;
}

std::optional<net::Packet> RtxCache::Lookup(int64_t media_seq, Timestamp now) {
  Prune(now);
  const int64_t idx = media_seq - base_seq_;
  if (ring_.empty() || idx < 0 || static_cast<size_t>(idx) >= ring_.size()) {
    return std::nullopt;
  }
  const Entry& e = ring_[static_cast<size_t>(idx)];
  if (!e.valid()) return std::nullopt;
  const FrameRecord& frame = frames_[e.frame - frame_base_];
  return net::Packet{.seq = -1,  // fresh transport seq assigned on send
                     .media_seq = media_seq,
                     .is_retransmission = true,
                     .is_fec = frame.is_fec,
                     .size = e.size,
                     .send_time = Timestamp::MinusInfinity(),
                     .frame_id = frame.frame_id,
                     .packet_index = e.packet_index,
                     .packets_in_frame = frame.packets_in_frame,
                     .capture_time = frame.capture_time,
                     .keyframe = frame.keyframe};
}

void RtxCache::Prune(Timestamp now) {
  // Entries are in seq order and (placeholders aside) age order, exactly like
  // the smallest-seq-first pruning of the old ordered map.
  while (!ring_.empty() &&
         (!ring_.front().valid() || now - ring_.front().sent > window_)) {
    if (ring_.front().valid()) --valid_count_;
    ring_.pop_front();
    ++base_seq_;
  }
  // A frame record goes once every seq that referred to it is gone.
  while (!frames_.empty() &&
         (ring_.empty() || frames_.front().last_seq < base_seq_)) {
    frames_.pop_front();
    ++frame_base_;
  }
}

void FrameSeqTable::Append(int64_t first_media_seq, int64_t packet_count,
                           int64_t frame_id) {
  assert(packet_count > 0);
  assert(starts_.empty() || first_media_seq == end_seq_);
  starts_.push_back(Start{first_media_seq, frame_id});
  end_seq_ = first_media_seq + packet_count;
}

int64_t FrameSeqTable::FrameOf(int64_t media_seq) const {
  if (starts_.empty() || media_seq < starts_.front().first_media_seq ||
      media_seq >= end_seq_) {
    return -1;
  }
  // The last frame starting at or below `media_seq`.
  const auto it = std::upper_bound(
      starts_.begin(), starts_.end(), media_seq,
      [](int64_t seq, const Start& s) { return seq < s.first_media_seq; });
  return std::prev(it)->frame_id;
}

NackGenerator::NackGenerator(EventLoop& loop, const Config& config,
                             SendCallback send, GiveUpCallback give_up)
    : loop_(loop),
      config_(config),
      send_(std::move(send)),
      give_up_(std::move(give_up)),
      task_(loop, config.process_interval, [this] { Process(); }) {
  assert(send_);
  assert(give_up_);
  missing_.reserve(64);
  batch_scratch_.media_seqs.reserve(64);
  abandoned_scratch_.reserve(64);
  task_.Start();
}

void NackGenerator::OnPacketReceived(const net::Packet& packet) {
  const int64_t seq = packet.media_seq;
  if (seq < 0) return;
  // An RTX (or late) arrival fills the gap.
  auto it = std::lower_bound(
      missing_.begin(), missing_.end(), seq,
      [](const MissingEntry& e, int64_t s) { return e.seq < s; });
  if (it != missing_.end() && it->seq == seq) missing_.erase(it);
  if (seq > highest_seen_) {
    // New gaps have seqs above every tracked entry, so appending keeps the
    // vector sorted.
    for (int64_t s = highest_seen_ + 1; s < seq; ++s) {
      missing_.push_back(MissingEntry{.seq = s, .first_seen = loop_.now()});
    }
    highest_seen_ = seq;
  }
}

void NackGenerator::Process() {
  const Timestamp now = loop_.now();
  batch_scratch_.media_seqs.clear();
  abandoned_scratch_.clear();

  for (MissingEntry& entry : missing_) {
    if (now - entry.first_seen < config_.initial_delay) continue;
    if (entry.retries >= config_.max_retries) {
      abandoned_scratch_.push_back(entry.seq);
      continue;
    }
    if (entry.last_nack.IsMinusInfinity() ||
        now - entry.last_nack >= config_.retry_interval) {
      batch_scratch_.media_seqs.push_back(entry.seq);
      entry.last_nack = now;
      ++entry.retries;
    }
  }

  if (!abandoned_scratch_.empty()) {
    missing_.erase(
        std::remove_if(missing_.begin(), missing_.end(),
                       [this](const MissingEntry& e) {
                         return std::binary_search(abandoned_scratch_.begin(),
                                                   abandoned_scratch_.end(),
                                                   e.seq);
                       }),
        missing_.end());
    for (int64_t seq : abandoned_scratch_) give_up_(seq);
  }
  if (!batch_scratch_.media_seqs.empty()) {
    nacks_sent_ += static_cast<int64_t>(batch_scratch_.media_seqs.size());
    send_(batch_scratch_);
  }
}

}  // namespace rave::transport
