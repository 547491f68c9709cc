// Topic-based pub/sub primitives for the update fan-out path.
//
// HAT-style infrastructures are structurally pub/sub: every interior node of
// the multicast/supernode topology relays each acquired version to the set
// of replicas subscribed to it. This module holds the pure state of that
// relationship — who subscribes to what, which sequence numbers were
// published, how far each subscriber has confirmed — so the delivery layer
// (consistency::UpdateEngine) only supplies transport.
//
//  * Topic      — per-topic subscriber registry. Subscribers get compact
//                 u32 ids in registration order; the fan-out walks them in
//                 id order, so the walk order is a function of topology
//                 alone.
//  * UpdateLog  — bounded, in-order log of published sequence numbers, the
//                 source of truth for catch-up. A lagging subscriber tails
//                 missed versions from here (RocketSpeed's tailer idiom);
//                 versions trimmed from the ring are "skipped ahead".
//  * FlowController — per-subscriber credit window: at most `window`
//                 unconfirmed deliveries in flight per subscriber.
//  * Fanout     — the delivery walker. publish() drains the subscriber list
//                 in id order through a caller-supplied transport callback,
//                 suppressing subscribers without a free credit (they are
//                 marked *lagging*); settle() consumes delivery
//                 confirmations, advances cursors with exactly-once
//                 catch-up-read accounting, and decides when to tail the
//                 log head to a lagging subscriber.
//
// Everything here is deterministic plain state: no clock, no RNG, no I/O.
// With flow control disabled (window 0) the walker degenerates to a pure
// in-order iteration and the log append — bit-identical send sequences to a
// direct child-list loop, which is the engine's equivalence anchor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdnsim::pubsub {

/// Compact per-topic subscriber index (registration order).
using SubscriberId = std::uint32_t;
/// Published sequence number; the engine publishes trace versions, which
/// are strictly increasing per topic.
using SequenceNumber = std::uint64_t;

/// Bounded in-order log of published sequence numbers. Entries need not be
/// contiguous (a relay that itself catches up publishes only the versions
/// it actually acquired); they are strictly increasing. When the ring is
/// full the oldest entry is trimmed — catch-up past a trimmed entry counts
/// as a skipped-ahead version, not a log read.
class UpdateLog {
 public:
  explicit UpdateLog(std::size_t capacity);

  /// Appends `seq` (must exceed last_seq()) published at sim time `time`.
  void publish(SequenceNumber seq, double time);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  /// Newest published sequence; 0 before the first publish.
  SequenceNumber last_seq() const { return last_seq_; }
  /// Oldest retained sequence; 0 when empty.
  SequenceNumber first_seq() const;
  /// True when `seq` is retained in the ring.
  bool contains(SequenceNumber seq) const;
  /// Publish time of a retained sequence (precondition: contains(seq)).
  double publish_time(SequenceNumber seq) const;

  /// Catch-up accounting for a cursor advancing from `cursor` (exclusive)
  /// to `upto` (inclusive): `reads` counts the retained entries in that
  /// range (versions the tailer can actually read back), `skipped` the
  /// rest — versions trimmed from the ring or never published to this
  /// topic, which the subscriber skips ahead over.
  struct Tail {
    std::uint64_t reads = 0;
    std::uint64_t skipped = 0;
  };
  Tail tail(SequenceNumber cursor, SequenceNumber upto) const;

 private:
  struct Entry {
    SequenceNumber seq = 0;
    double time = 0;
  };
  const Entry& at(std::size_t i) const {  // i-th oldest retained entry
    return ring_[(head_ + i) % capacity_];
  }

  std::vector<Entry> ring_;  // allocated lazily on first publish
  std::size_t capacity_;
  std::size_t head_ = 0;  // ring index of the oldest entry
  std::size_t size_ = 0;
  SequenceNumber last_seq_ = 0;
};

/// One subscriber's delivery state within a topic.
struct Subscriber {
  std::int32_t node = 0;  // engine node id (opaque to this module)
  bool gated = false;     // delivery gated by the caller (subscription gate)
  bool lagging = false;   // behind the log head awaiting catch-up
  SequenceNumber cursor = 0;  // newest sequence confirmed delivered
  SequenceNumber sent = 0;    // newest sequence transmitted (live or tail)
  std::uint32_t inflight = 0;  // unconfirmed transmissions (credits in use)
};

/// Per-topic subscriber registry plus the topic's update log.
class Topic {
 public:
  explicit Topic(std::size_t log_capacity = kDefaultLogCapacity)
      : log_(log_capacity) {}

  static constexpr std::size_t kDefaultLogCapacity = 64;

  /// Registers a subscriber; ids are dense and assigned in call order.
  SubscriberId add(std::int32_t node, bool gated) {
    subscribers_.push_back(Subscriber{node, gated, false, 0, 0, 0});
    return static_cast<SubscriberId>(subscribers_.size() - 1);
  }

  bool empty() const { return subscribers_.empty(); }
  std::size_t size() const { return subscribers_.size(); }
  Subscriber& at(SubscriberId id) { return subscribers_[id]; }
  const Subscriber& at(SubscriberId id) const { return subscribers_[id]; }
  std::vector<Subscriber>& subscribers() { return subscribers_; }
  const std::vector<Subscriber>& subscribers() const { return subscribers_; }
  UpdateLog& log() { return log_; }
  const UpdateLog& log() const { return log_; }

 private:
  std::vector<Subscriber> subscribers_;
  UpdateLog log_;
};

/// Credit-window policy: at most `window` unconfirmed deliveries per
/// subscriber. window == 0 disables flow control entirely (the walker does
/// no bookkeeping at all — the byte-identical legacy path).
class FlowController {
 public:
  explicit FlowController(std::uint32_t window) : window_(window) {}

  bool enabled() const { return window_ > 0; }
  std::uint32_t window() const { return window_; }

  bool try_acquire(Subscriber& s) const {
    if (s.inflight >= window_) return false;
    ++s.inflight;
    return true;
  }
  void release(Subscriber& s) const;

 private:
  std::uint32_t window_;
};

/// Counters the walker maintains; the engine folds these into its lane
/// counters / metrics registry. lagging_enter - lagging_exit is the live
/// lagging-subscriber gauge (monotone counters fold exactly across lanes).
struct FanoutStats {
  std::uint64_t live_deliveries = 0;
  std::uint64_t suppressed_deliveries = 0;
  std::uint64_t catch_up_messages = 0;
  std::uint64_t catch_up_reads = 0;
  std::uint64_t skipped_ahead = 0;
  std::uint64_t lagging_enter = 0;
  std::uint64_t lagging_exit = 0;
};

/// Batched delivery walker over one topic. Stateless over (topic, flow,
/// stats) references — construct on the fly wherever a publish or a
/// confirmation lands.
class Fanout {
 public:
  /// `flow` may be null or disabled: the walker then performs no credit or
  /// cursor bookkeeping and publish() reduces to the plain in-order walk.
  Fanout(Topic& topic, const FlowController* flow, FanoutStats& stats)
      : topic_(topic), flow_(flow), stats_(stats) {}

  /// Publishes `seq` at sim time `time` and walks every subscriber in id
  /// order. `allowed(sub)` applies caller-side gating (skips without any
  /// flow bookkeeping when false); `deliver(id, sub)` transmits to one
  /// subscriber. Under flow control a subscriber without a free credit is
  /// suppressed and marked lagging instead of delivered.
  template <typename AllowedFn, typename DeliverFn>
  void publish(SequenceNumber seq, double time, AllowedFn&& allowed,
               DeliverFn&& deliver) {
    // Re-publishes happen: an invalidation relay floods the same version on
    // notice receipt and again when it acquires the content. The log keeps
    // the first publish; every call walks the subscribers (matching the
    // legacy flooding loops).
    if (seq > topic_.log().last_seq()) topic_.log().publish(seq, time);
    auto& subs = topic_.subscribers();
    const bool flow_on = flow_ != nullptr && flow_->enabled();
    for (SubscriberId id = 0; id < subs.size(); ++id) {
      Subscriber& s = subs[id];
      if (!allowed(static_cast<const Subscriber&>(s))) continue;
      if (flow_on) {
        if (!flow_->try_acquire(s)) {
          ++stats_.suppressed_deliveries;
          mark_lagging(s);
          continue;
        }
        if (s.sent < seq) s.sent = seq;
      }
      ++stats_.live_deliveries;
      deliver(id, s);
    }
  }

  /// Consumes the confirmation (ok) or loss verdict (!ok) of the
  /// transmission of `seq` to subscriber `id`, releasing its credit.
  /// A confirmation advances the cursor; a catch-up confirmation accounts
  /// log reads / skipped-ahead versions for the whole gap (exactly-once:
  /// the cursor is monotone, so re-tailed ranges are never double
  /// counted). Returns true when the caller must now transmit the log head
  /// to this subscriber as a catch-up (the walker has already taken the
  /// credit and advanced `sent`); the target sequence is log().last_seq().
  bool settle(SubscriberId id, SequenceNumber seq, bool ok, bool catch_up);

  /// No-bookkeeping variant used when a subscriber's pending catch-up is
  /// re-armed by a timer rather than by a settle (unreliable transports
  /// space retries out): takes a credit for the log head if the subscriber
  /// still trails it. Returns true when the caller must transmit.
  bool begin_catch_up(SubscriberId id);

 private:
  void mark_lagging(Subscriber& s) {
    if (!s.lagging) {
      s.lagging = true;
      ++stats_.lagging_enter;
    }
  }
  bool tail_head(Subscriber& s);

  Topic& topic_;
  const FlowController* flow_;
  FanoutStats& stats_;
};

}  // namespace cdnsim::pubsub
