#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace xrbench::runtime {

/// The runtime's dynamic event kinds. Sensor frame arrivals are not events:
/// they are known before a run starts, so ScenarioRunner merges them in as
/// a presorted stream (see EventQueue::pop_before).
enum class EventKind : std::uint8_t {
  kComplete,     ///< The inference in flight on `unit` finishes.
  kFault,        ///< It finishes with a transient fault (no frame produced).
  kRetry,        ///< A faulted request re-enters pending (`unit`: retry slot).
  kOutageStart,  ///< `unit` goes offline, killing its in-flight work.
  kOutageEnd,    ///< `unit` comes back online.
};

/// One queued event: plain data, 32 bytes, no callback.
struct Event {
  double when = 0.0;
  std::uint64_t seq = 0;     ///< FIFO tie-break at equal `when`.
  std::uint32_t unit = 0;    ///< Sub-accelerator (retry: payload slot).
  std::uint32_t token = 0;   ///< Completion kinds: the unit's token at push.
  EventKind kind = EventKind::kComplete;
};

/// Deterministic event queue of one scenario run, ordered by (time, FIFO
/// sequence), so a seeded run is fully reproducible.
///
/// Each unit has at most one pending completion (kComplete or kFault). An
/// outage kill voids it in O(1) by bumping the unit's token; the stale heap
/// entry stays queued and is skipped when it surfaces. The heap is a vector
/// that keeps its capacity across reset(), so steady-state runs allocate
/// nothing.
class EventQueue {
 public:
  /// Rewinds the clock to 0 for a run over `num_units` units. Stale (voided)
  /// entries are dropped; a live pending event is a logic error.
  void reset(std::size_t num_units) {
    if (live_ != 0) {
      throw std::logic_error("EventQueue::reset: events are still pending");
    }
    heap_.clear();
    token_.assign(num_units, 0);
    armed_.assign(num_units, 0);
    now_ = 0.0;
    next_seq_ = 0;
    high_water_ = 0;
  }

  /// Drops every queued event, live or voided, so the next reset() finds
  /// the queue empty. Only for a run that threw mid-way: a completed run
  /// has drained its queue.
  void discard() {
    heap_.clear();
    std::fill(armed_.begin(), armed_.end(), std::uint8_t{0});
    live_ = 0;
  }

  /// Current simulation time: the last popped event's time or the last
  /// advance_to() boundary, whichever is later.
  double now() const { return now_; }

  /// Queues an event at `when`, clamped to now(). A completion kind arms
  /// `unit`; arming an already armed unit is a logic error.
  void push_at(double when, EventKind kind, std::uint32_t unit) {
    std::uint32_t token = 0;
    if (is_completion(kind)) {
      if (armed_[unit] != 0) {
        throw std::logic_error("EventQueue: unit already has a completion");
      }
      armed_[unit] = 1;
      token = token_[unit];
    }
    heap_.push_back(
        Event{std::max(when, now_), next_seq_++, unit, token, kind});
    std::push_heap(heap_.begin(), heap_.end(), later);
    high_water_ = std::max(high_water_, heap_.size());
    ++live_;
  }

  /// Queues an event `delay` ms from now (a negative delay counts as 0).
  void push_after(double delay, EventKind kind, std::uint32_t unit) {
    push_at(now_ + std::max(delay, 0.0), kind, unit);
  }

  /// Voids the pending completion of `unit`: it will never pop. Returns
  /// false when the unit has none (never armed, already popped or voided).
  bool void_completion(std::uint32_t unit) {
    if (armed_[unit] == 0) return false;
    armed_[unit] = 0;
    ++token_[unit];
    --live_;
    return true;
  }

  /// Pops the next live event strictly before `t` into `out` and advances
  /// now() to its time. Events at exactly `t` stay queued, so an arrival
  /// merged in at `t` precedes every queued event sharing its timestamp.
  /// Voided entries are discarded before the boundary test: a stale entry
  /// below `t` must never let a live one at or past `t` through.
  bool pop_before(double t, Event& out) {
    drop_stale_top();
    if (heap_.empty() || !(heap_.front().when < t)) return false;
    pop_top(out);
    return true;
  }

  /// Pops the next live event, whatever its time.
  bool pop(Event& out) {
    drop_stale_top();
    if (heap_.empty()) return false;
    pop_top(out);
    return true;
  }

  /// Moves now() forward to `t` (never back): the clock of an arrival.
  void advance_to(double t) { now_ = std::max(now_, t); }

  /// Live (not voided) events still queued.
  std::size_t pending() const { return live_; }
  /// Most entries (live or voided) ever queued at once since reset().
  std::size_t high_water() const { return high_water_; }

 private:
  static bool is_completion(EventKind kind) {
    return kind == EventKind::kComplete || kind == EventKind::kFault;
  }
  /// Heap order: std::push_heap keeps the greatest on top, so "greater"
  /// here means "fires later".
  static bool later(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
  bool stale(const Event& e) const {
    return is_completion(e.kind) && e.token != token_[e.unit];
  }
  void drop_stale_top() {
    while (!heap_.empty() && stale(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
    }
  }
  void pop_top(Event& out) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    out = heap_.back();
    heap_.pop_back();
    if (is_completion(out.kind)) armed_[out.unit] = 0;
    now_ = out.when;
    --live_;
  }

  std::vector<Event> heap_;
  std::vector<std::uint32_t> token_;  ///< Per unit; bumped by each void.
  std::vector<std::uint8_t> armed_;   ///< Per unit: a completion is pending.
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace xrbench::runtime
