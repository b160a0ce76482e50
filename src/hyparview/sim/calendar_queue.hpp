// Calendar queue (Brown '88, with a ladder-style far list) for simulator
// events.
//
// The binary heap pays O(log n) sifts on a queue whose occupancy tracks the
// whole network: at 100k nodes a bootstrap holds hundreds of thousands of
// pending events and every push/pop walks ~20 levels of a cache-hostile
// array. Gossip traffic, however, is near-horizon-dominated — arrival times
// fall in a narrow band above `now` (uniform latency in [min, max], failure
// detection a millisecond out) — exactly the distribution a calendar queue
// exploits:
//
//  * a wheel of `nbuckets_` time buckets, each `width_` ticks wide, covers
//    one "year" ahead of the cursor. An event lands in bucket
//    (at / width) & mask. The bucket count adapts to the live event
//    population — grow at >2 events/bucket (until buckets are single-tick,
//    where more buckets cannot split ties), shrink only once the cursor
//    has burned several wheel-years of empty-bucket steps (the only real
//    cost of an oversized wheel) — so a drain/refill workload never
//    thrashes rebuilds. Width is re-derived from the latency band so the
//    year always covers ~2x the band. A push is an O(1) append; at scale
//    (single-tick buckets) a pop is an O(1) head-cursor take from a
//    bucket that is seq-sorted by construction — no global sift at all;
//  * an unsorted *far list* absorbs the tail beyond the wheel horizon
//    (long timers, harness tasks). It is swept into the wheel when the
//    cursor wraps a year — before any far event's due window can be
//    reached (a far event is at least a year minus one bucket ahead at
//    push time) — and when the wheel empties the cursor jumps straight to
//    the earliest far event instead of stepping through empty years.
//
// Ordering is the same strict (at, seq) total order as the heap: buckets
// are unsorted but a pop takes the (at, seq) minimum of the cursor bucket,
// the cursor only takes events inside its current window, and every event
// in a later bucket or the far list is provably later in (at, seq). A run
// is therefore bit-identical to the MinHeap at a fixed seed — pinned by
// event_queue_property_test.
//
// Allocation discipline: buckets, the far list, and the rebuild scratch are
// plain vectors that grow to their steady-state footprint during warm-up
// and are recycled in place afterwards, so the zero-allocation gates of
// micro_sim_events hold on this structure too (the grow/shrink hysteresis
// is wide enough that a steady workload never resizes the wheel).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/time.hpp"

namespace hyparview::sim {

/// T must expose `.at` (TimePoint) and `.seq` (uint64): the fixed (at, seq)
/// ordering is what makes the bucket discipline equivalent to a heap pop.
template <typename T>
class CalendarQueue {
 public:
  /// Wheel-size bounds, both powers of two so the bucket index is a mask.
  /// The floor keeps tiny queues cheap to rebuild; the ceiling bounds the
  /// bucket-header footprint at ~tens of MB for million-event runs.
  static constexpr std::size_t kMinBuckets = 256;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  /// Capacity floor given to every active bucket when the wheel geometry
  /// changes. Without it, steady traffic keeps setting per-bucket depth
  /// records (vector capacity ladders 1→2→4→8…) for thousands of events
  /// after warm-up, and the zero-allocation gate of micro_sim_events
  /// trickles failures. Paying the whole ladder up front at rebuild time
  /// moves those allocations into the (rare, already-allocating) geometry
  /// changes. Seeding stops at kSeedableBuckets — beyond that the floor's
  /// footprint would rival the event population itself.
  static constexpr std::size_t kBucketSeedCapacity = 16;
  static constexpr std::size_t kSeedableBuckets = std::size_t{1} << 14;

  /// `band_max` is the upper edge of the live latency band; the bucket
  /// width is sized so the wheel year covers ~2x the band (messages plus
  /// the failure-detection delays that ride just behind them).
  explicit CalendarQueue(Duration band_max)
      : buckets_(kMinBuckets),
        heads_(kMinBuckets, 0u),
        dirty_(kMinBuckets, 0),
        live_(kMinBuckets / 64, 0u) {
    set_band(band_max);
    seed_buckets();
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Duration bucket_width() const { return width_; }
  [[nodiscard]] std::size_t bucket_count() const { return nbuckets_; }

  /// Pre-sizes the wheel for an expected population (the heap's reserve()
  /// equivalent): the bucket count jumps straight to its steady-state
  /// value so warm-up does not pay a doubling cascade of rebuilds.
  void reserve(std::size_t n) {
    const std::size_t target = buckets_for(n);
    if (target > nbuckets_) rebuild(derive_width(band_max_, target), target);
    far_.reserve(std::max<std::size_t>(64, n / 8));
    scratch_.reserve(n);
  }

  /// Scheduling contract (the simulator's): never push before the last
  /// popped timestamp. It is what lets the cursor only ever move forward.
  void push(T item) {
    HPV_ASSERT(item.at >= floor_);
    if (item.at < horizon()) {
      insert_wheel(std::move(item));
    } else {
      far_.push_back(std::move(item));
    }
    ++size_;
    // Occupancy crept past 2 events/bucket: double the wheel (narrower
    // width, same ~2x-band year) so pops keep scanning a handful of
    // events. Skipped once buckets are single-tick — more buckets cannot
    // split same-timestamp ties any further, only stretch the year.
    if (size_ - far_.size() > 2 * nbuckets_ && nbuckets_ < kMaxBuckets &&
        width_ > 1) {
      rebuild(derive_width(band_max_, nbuckets_ * 2), nbuckets_ * 2);
    }
  }

  /// Removes and returns the minimum (at, seq) element.
  T pop() {
    HPV_ASSERT(size_ > 0);
    return width_ == 1 ? pop_tick() : pop_scan();
  }

  /// Re-derives the bucket width from the far edge of a new latency band
  /// and re-buckets every pending event (latency-spike fault injection
  /// widens the arrival horizon; keeping the old width would pile the
  /// spike's events into a few buckets and degrade toward O(n) scans).
  void set_band(Duration band_max) {
    band_max_ = band_max;
    const Duration width = derive_width(band_max_, nbuckets_);
    if (width == width_ && size_ == 0) {
      anchor_window();
      return;
    }
    rebuild(width, nbuckets_);
  }

 private:
  /// Pop for single-tick buckets — the at-scale regime, where same-tick tie
  /// piles grow with the network and a scan-min pop would be O(ties).
  ///
  /// Two invariants make an O(1) head-cursor take correct here:
  ///  * single-tick residency: every pushable timestamp lives in
  ///    [floor_, horizon), an interval at most one wheel-year long (the pop
  ///    window re-anchors at floor_ on every return), so no bucket ever
  ///    holds two distinct ticks at once;
  ///  * push order is seq order: `seq` is globally monotonic and pushes
  ///    append, so a bucket fed only by push() is sorted by (at, seq) by
  ///    construction — at is constant per bucket, seq ascends.
  /// Only migrate_far() and rebuild() append out of seq order; they mark
  /// the bucket dirty and the first pop to reach it sorts the remainder
  /// once (in place — no allocation).
  T pop_tick() {
    while (true) {
      std::vector<T>& bucket = buckets_[cur_];
      std::uint32_t& head = heads_[cur_];
      if (head < bucket.size()) {
        if (dirty_[cur_]) {
          std::sort(bucket.begin() + head, bucket.end(),
                    [](const T& a, const T& b) { return later(b, a); });
          dirty_[cur_] = 0;
        }
        HPV_ASSERT(bucket[head].at < window_end_);
        T out = std::move(bucket[head]);
        ++head;
        if (head == bucket.size()) {
          bucket.clear();
          head = 0;
          mark_dead(cur_);
        }
        --size_;
        floor_ = out.at;
        maybe_shrink();
        return out;
      }
      advance();
    }
  }

  /// Pop for multi-tick buckets (small wheels, wide bands): buckets are
  /// unsorted in `at`, so take the (at, seq) minimum by scan — a handful of
  /// elements at the tuned occupancy — and fill the hole from the back.
  T pop_scan() {
    while (true) {
      std::vector<T>& bucket = buckets_[cur_];
      const std::size_t head = heads_[cur_];
      if (head < bucket.size()) {
        std::size_t best = head;
        for (std::size_t i = head + 1; i < bucket.size(); ++i) {
          if (later(bucket[best], bucket[i])) best = i;
        }
        if (bucket[best].at < window_end_) {
          T out = std::move(bucket[best]);
          bucket[best] = std::move(bucket.back());
          bucket.pop_back();
          if (heads_[cur_] == bucket.size()) {
            bucket.clear();
            heads_[cur_] = 0;
            mark_dead(cur_);
          }
          --size_;
          floor_ = out.at;
          maybe_shrink();
          return out;
        }
      }
      advance();
    }
  }

  /// First timestamp that no longer maps uniquely into the wheel: one year
  /// (nbuckets_ buckets) past the current window start.
  [[nodiscard]] TimePoint horizon() const {
    return window_end_ + static_cast<TimePoint>(nbuckets_ - 1) *
                             static_cast<TimePoint>(width_);
  }

  [[nodiscard]] std::size_t bucket_of(TimePoint at) const {
    return static_cast<std::size_t>(at / width_) & (nbuckets_ - 1);
  }

  /// Width such that `buckets` buckets cover ~2x the band (floored at one
  /// tick — beyond that the year simply outgrows the band, harmlessly).
  [[nodiscard]] static Duration derive_width(Duration band_max,
                                             std::size_t buckets) {
    const Duration span = band_max * 2;
    return std::max<Duration>(
        1, (span + static_cast<Duration>(buckets) - 1) /
               static_cast<Duration>(buckets));
  }

  /// Steady-state bucket count for `n` wheel events: ~2 events per bucket,
  /// clamped to [kMinBuckets, kMaxBuckets], power of two.
  [[nodiscard]] static std::size_t buckets_for(std::size_t n) {
    std::size_t target = kMinBuckets;
    while (target < kMaxBuckets && n > 2 * target) target *= 2;
    return target;
  }

  static bool later(const T& a, const T& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  /// O(1) append; buckets are unsorted, pop() scans for the minimum (both
  /// ends of the trade are a handful of elements at the tuned occupancy,
  /// and appends never memmove the way sorted inserts would).
  void insert_wheel(T item) {
    const std::size_t b = bucket_of(item.at);
    if (buckets_[b].empty()) mark_live(b);
    buckets_[b].push_back(std::move(item));
  }

  /// Live-bucket bitmap bookkeeping. A bucket is live while it holds any
  /// unconsumed event; the cursor uses the bitmap to jump straight to the
  /// next live bucket instead of stepping one empty bucket at a time.
  void mark_live(std::size_t b) {
    live_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  void mark_dead(std::size_t b) {
    live_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }

  /// Index of the first live bucket strictly after `b` within the current
  /// wheel year, or nbuckets_ if the rest of the year is empty. Counts the
  /// bitmap words it touches into empty_steps_ — with the bitmap, scanned
  /// words *are* the cost an oversized wheel imposes.
  [[nodiscard]] std::size_t next_live_after(std::size_t b) {
    std::size_t i = b + 1;
    if (i >= nbuckets_) return nbuckets_;
    std::size_t w = i >> 6;
    const std::size_t words = nbuckets_ >> 6;
    std::uint64_t bits = live_[w] & (~std::uint64_t{0} << (i & 63));
    while (true) {
      ++empty_steps_;
      if (bits != 0) {
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      }
      if (++w == words) return nbuckets_;
      bits = live_[w];
    }
  }

  /// Halves the wheel when the cursor has burned through enough live-bitmap
  /// words since the last geometry change. Bitmap scanning is the *only*
  /// cost an oversized wheel imposes (storage is high-water anyway), so it
  /// is the trigger — not occupancy, which collapses to zero at the tail of
  /// every run_until_quiescent drain and would make a drain/refill workload
  /// pay a shrink cascade plus a regrow cascade of full rebuilds every
  /// single round. A full-year scan is nbuckets_/64 words and a rebuild is
  /// O(nbuckets_) work, so the threshold fires only when sparse scanning
  /// has genuinely outweighed a rebuild many times over.
  void maybe_shrink() {
    if (nbuckets_ > kMinBuckets && empty_steps_ > 8 * nbuckets_) {
      rebuild(derive_width(band_max_, nbuckets_ / 2), nbuckets_ / 2);
    }
  }

  /// Moves the cursor to the next live bucket — or, when the wheel is
  /// empty, jumps it straight to the earliest far event (skipping empty
  /// years). The jump is a bitmap scan (one countr_zero per 64 buckets),
  /// so a near-empty wheel — the dominant regime between quiescent drains,
  /// where events sit hundreds of empty buckets apart — costs one or two
  /// word loads per pop instead of a bucket-by-bucket walk of the gap.
  void advance() {
    if (size_ == far_.size()) {
      // Nothing lives in the wheel: the next event (pop asserts there is
      // one) is in the far list. Jump the window to its bucket and migrate.
      HPV_ASSERT(!far_.empty());
      std::size_t best = 0;
      for (std::size_t i = 1; i < far_.size(); ++i) {
        if (later(far_[best], far_[i])) best = i;
      }
      const TimePoint at = far_[best].at;
      cur_ = bucket_of(at);
      window_end_ = (at / width_ + 1) * width_;
      migrate_far();
      return;
    }
    const std::size_t next = next_live_after(cur_);
    if (next < nbuckets_) {
      window_end_ +=
          static_cast<TimePoint>(next - cur_) * static_cast<TimePoint>(width_);
      cur_ = next;
      return;
    }
    // Rest of the year is empty: wrap. A far event is >= (nbuckets_ - 1)
    // buckets ahead at push time and jumps never cross a year boundary, so
    // sweeping at every wrap is still always soon enough: no far event's
    // window can be entered before the sweep that installs it. Bucket 0 of
    // the new year may itself be empty — pop's loop just advances again.
    window_end_ += static_cast<TimePoint>(nbuckets_ - cur_) *
                   static_cast<TimePoint>(width_);
    cur_ = 0;
    migrate_far();
  }

  /// Moves every far event that now fits the wheel year into its bucket.
  /// The far list is unordered, so receiving buckets lose their seq-sorted
  /// property and are marked dirty for pop_tick's one-time sort.
  void migrate_far() {
    const TimePoint limit = horizon();
    std::size_t i = 0;
    while (i < far_.size()) {
      if (far_[i].at < limit) {
        dirty_[bucket_of(far_[i].at)] = 1;
        insert_wheel(std::move(far_[i]));
        far_[i] = std::move(far_.back());
        far_.pop_back();
      } else {
        ++i;
      }
    }
  }

  /// Gives every active bucket its capacity floor (see kBucketSeedCapacity).
  /// Capacities above the floor are kept — high-water, like the storage.
  void seed_buckets() {
    if (nbuckets_ > kSeedableBuckets) return;
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      if (buckets_[i].capacity() < kBucketSeedCapacity) {
        buckets_[i].reserve(kBucketSeedCapacity);
      }
    }
  }

  /// Re-anchors the cursor window at the pop-time floor. Anchoring at the
  /// earliest *pending* event would be wrong: future pushes may land
  /// anywhere in [floor_, min_pending) — behind such a window, where the
  /// cursor has already passed and would only revisit a year late.
  void anchor_window() {
    cur_ = bucket_of(floor_);
    window_end_ = (floor_ / width_ + 1) * width_;
  }

  /// Re-buckets everything under a new width / bucket count, re-anchoring
  /// at the floor.
  void rebuild(Duration width, std::size_t nbuckets) {
    scratch_.clear();
    // No exact-fit reserve here: push_back's geometric growth gives the
    // scratch a capacity high-water with slack, so a pending-set peak a few
    // events above any previous one does not reallocate in steady state.
    // Only the active mask can hold events; high-water storage beyond it
    // is empty by construction.
    for (std::size_t b = 0; b < nbuckets_; ++b) {
      std::vector<T>& bucket = buckets_[b];
      for (std::size_t i = heads_[b]; i < bucket.size(); ++i) {
        scratch_.push_back(std::move(bucket[i]));
      }
      bucket.clear();
      heads_[b] = 0;
    }
    for (T& item : far_) scratch_.push_back(std::move(item));
    far_.clear();
    // High-water storage: shrinks only narrow the active mask (nbuckets_),
    // never free bucket vectors, so a workload that oscillates between
    // drained and full every round (run_until_quiescent cycles) reuses the
    // same capacity instead of reallocating the wheel each time.
    if (nbuckets > buckets_.size()) {
      buckets_.resize(nbuckets);
      heads_.resize(nbuckets, 0u);
      dirty_.resize(nbuckets, std::uint8_t{0});
      live_.resize(nbuckets / 64, 0u);
    }
    std::fill(live_.begin(), live_.end(), std::uint64_t{0});
    nbuckets_ = nbuckets;
    width_ = width;
    seed_buckets();
    anchor_window();
    size_ = 0;
    empty_steps_ = 0;
    // The scratch visits buckets in wheel order, not seq order, so every
    // re-bucketed pile is potentially unsorted: mark the active wheel dirty.
    std::fill(dirty_.begin(), dirty_.begin() + static_cast<std::ptrdiff_t>(nbuckets_),
              std::uint8_t{1});
    for (T& item : scratch_) {
      // Raw re-insert: the caller already chose the target geometry, so
      // the push-time grow check must not recurse.
      if (item.at < horizon()) {
        insert_wheel(std::move(item));
      } else {
        far_.push_back(std::move(item));
      }
      ++size_;
    }
    scratch_.clear();
  }

  std::vector<std::vector<T>> buckets_;
  std::vector<std::uint32_t> heads_;  ///< per-bucket consumed prefix (tick pops)
  std::vector<std::uint8_t> dirty_;   ///< per-bucket "tail not seq-sorted"
  std::vector<std::uint64_t> live_;   ///< bit per bucket: holds unconsumed events
  std::vector<T> far_;      ///< beyond-horizon overflow, unsorted
  std::vector<T> scratch_;  ///< rebuild staging (kept to avoid realloc)
  std::size_t size_ = 0;
  std::size_t empty_steps_ = 0;  ///< bitmap words scanned since last rebuild
  TimePoint floor_ = 0;  ///< largest popped timestamp; pushes are >= this
  std::size_t nbuckets_ = kMinBuckets;  ///< wheel size (power of two)
  std::size_t cur_ = 0;                 ///< bucket under the cursor
  TimePoint window_end_ = 1;  ///< end of cur_'s time window (aligned)
  Duration width_ = 1;        ///< bucket width in ticks
  Duration band_max_ = 0;     ///< latency-band far edge (width derivation)
};

}  // namespace hyparview::sim
