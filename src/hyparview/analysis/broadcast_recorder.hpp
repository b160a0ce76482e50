// Network-wide broadcast delivery accounting.
//
// The harness installs one recorder as the DeliveryObserver of every node's
// gossip engine; per message it tracks first deliveries, hop counts and
// duplicates, yielding the paper's reliability metric (§2.5: percentage of
// *active* nodes that deliver).
#pragma once

#include <cstdint>
#include <vector>

#include "hyparview/common/flat_hash.hpp"
#include "hyparview/common/function.hpp"
#include "hyparview/common/time.hpp"
#include "hyparview/gossip/gossip_engine.hpp"

namespace hyparview::analysis {

struct MessageResult {
  std::uint64_t msg_id = 0;
  std::size_t delivered = 0;      ///< distinct nodes that delivered
  std::size_t alive_nodes = 0;    ///< correct nodes when the message was sent
  std::uint16_t max_hops = 0;     ///< last-delivery distance from the source
  std::uint64_t hop_sum = 0;      ///< for average-hops metrics
  std::uint64_t duplicates = 0;
  /// Timestamps from the recorder's injected time source (simulated time on
  /// the sim backend, event-loop time on TCP; 0 when no source is set).
  TimePoint begin_time = 0;       ///< when begin_message registered the id
  TimePoint last_delivery = 0;    ///< time of the latest first-delivery

  /// Gossip reliability (§2.5): delivered / alive.
  [[nodiscard]] double reliability() const {
    return alive_nodes == 0
               ? 0.0
               : static_cast<double>(delivered) /
                     static_cast<double>(alive_nodes);
  }

  /// Publish-to-last-delivery latency (the pub/sub latency metric).
  [[nodiscard]] Duration latency_to_last() const {
    return last_delivery - begin_time;
  }

  bool operator==(const MessageResult&) const = default;
};

class BroadcastRecorder final : public gossip::DeliveryObserver {
 public:
  /// Pre-sizes the record storage for `messages` begin_message calls, after
  /// which recording (begin/deliver/duplicate) performs no heap allocation
  /// until the reservation is exceeded. Benches reserve their full message
  /// budget up front so the accounting never rehashes mid-measurement.
  void reserve(std::size_t messages);

  /// Installs the clock used to stamp begin/delivery times (sim.now() on
  /// the simulator, loop.now() on TCP). Without one, timestamps stay 0 and
  /// latency metrics read as 0 — reliability accounting is unaffected.
  void set_time_source(InplaceFunction<TimePoint()> now) {
    now_ = std::move(now);
  }

  /// Starts accounting for msg_id; `alive_nodes` is the reliability
  /// denominator (correct processes at send time).
  void begin_message(std::uint64_t msg_id, std::size_t alive_nodes);

  void on_deliver(const NodeId& node, std::uint64_t msg_id,
                  std::uint16_t hops) override;
  void on_duplicate(const NodeId& node, std::uint64_t msg_id) override;

  [[nodiscard]] const std::vector<MessageResult>& results() const {
    return results_;
  }
  [[nodiscard]] const MessageResult& result(std::uint64_t msg_id) const;

  /// Mean reliability over every recorded message.
  [[nodiscard]] double average_reliability() const;

  /// Mean over messages of the per-message max hop count (Table 1 column
  /// "maximum hops to delivery").
  [[nodiscard]] double average_max_hops() const;

  [[nodiscard]] std::uint64_t total_duplicates() const;

  void clear();

 private:
  /// msg_id → index into results_. Open-addressing: the per-delivery lookup
  /// on the dissemination hot path is one probe in a contiguous slab, and
  /// with reserve() the whole recording phase is rehash-free. Ids in flight
  /// together are consecutive, so their slots share cache lines.
  FlatMap<std::uint64_t, std::uint32_t, SequentialIndex> index_;
  std::vector<MessageResult> results_;
  InplaceFunction<TimePoint()> now_;
};

}  // namespace hyparview::analysis
