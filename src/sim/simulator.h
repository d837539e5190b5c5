#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

namespace xrbench::sim {

/// Simulation time in milliseconds since run start.
using TimeMs = double;

/// Opaque handle identifying a scheduled event (for cancellation). Encodes
/// (generation << 32 | pool slot), so a handle kept across a slot reuse is
/// detected as stale instead of cancelling an unrelated event. 0 is never a
/// valid id.
using EventId = std::uint64_t;

/// Small-buffer callback for simulator events. Stores the callable inline
/// (no heap allocation); callables larger than the inline buffer are
/// rejected at compile time — the simulation hot path schedules millions of
/// events per sweep, so every capture must stay small.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  EventCallback() = default;

  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>, int> = 0>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kInlineBytes,
                  "event callback capture exceeds the inline event-pool "
                  "buffer; shrink the capture (pass a pointer to shared "
                  "state instead of copying it)");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned event callback capture");
    new (buf_) D(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
    relocate_ = [](void* dst, void* src) {
      D* s = static_cast<D*>(src);
      new (dst) D(std::move(*s));
      s->~D();
    };
    destroy_ = [](void* p) { static_cast<D*>(p)->~D(); };
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

  /// Destroys the stored callable (releasing any resources it owns) and
  /// returns to the empty state.
  void reset() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void move_from(EventCallback& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    if (relocate_ != nullptr) relocate_(buf_, other.buf_);
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// Deterministic discrete-event simulator.
///
/// Events at equal timestamps fire in scheduling order (FIFO tie-break), so a
/// run is fully reproducible. The simulator is the time substrate for the
/// XRBench runtime, which keeps only its dynamic events here: inference
/// completions, transient-fault retries and outage windows. Sensor frame
/// arrivals are known before a run starts, so the runtime feeds them as a
/// presorted stream and merges them in with run_before() instead of queueing
/// them.
///
/// Events live in a pooled free-list arena: the priority queue holds small
/// POD entries and each callback is stored inline in a recycled pool slot,
/// so steady-state scheduling performs no heap allocation (the pool and the
/// queue retain their high-water capacity). Cancellation is O(1): the slot
/// is released immediately and the stale queue entry is skipped on pop via
/// its generation tag.
class Simulator {
 public:
  using Callback = EventCallback;

  /// Current simulation time. 0 before the first event fires.
  TimeMs now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (>= now, clamped otherwise).
  /// Returns an id usable with cancel().
  EventId schedule_at(TimeMs when, Callback cb);

  /// Schedules `cb` `delay` milliseconds from now.
  EventId schedule_after(TimeMs delay, Callback cb);

  /// Cancels a pending event. Returns false if it already fired, was
  /// cancelled before, or never existed (including ids whose pool slot has
  /// since been reused by a newer event).
  bool cancel(EventId id);

  /// Runs events until the queue is empty. Returns the number of events
  /// fired.
  std::size_t run();

  /// Runs events with timestamp <= `until`, then sets now() to `until` if it
  /// advanced past the last fired event. Returns events fired.
  std::size_t run_until(TimeMs until);

  /// Runs events with timestamp strictly before `t`, then sets now() to `t`
  /// if it advanced past the last fired event. Events at exactly `t` stay
  /// queued, so an external event merged in at `t` (the runtime's arrival
  /// stream) precedes every queued event sharing its timestamp. Events the
  /// fired callbacks schedule before `t` fire too. Returns events fired.
  std::size_t run_before(TimeMs t);

  /// Fires exactly one event if available. Returns false when queue is empty.
  bool step();

  bool empty() const { return live_events_ == 0; }
  std::size_t pending_events() const { return live_events_; }
  std::size_t fired_events() const { return fired_; }

  /// Rewinds the clock to 0 for a new run, keeping the pool's high-water
  /// capacity — the arena-reuse hook for sweep workers that run thousands
  /// of trials. Only legal once the queue has drained (run() returned and
  /// nothing was scheduled since); throws std::logic_error otherwise.
  /// The FIFO sequence counter keeps running — only the relative order of
  /// equal-time events matters, so a reused simulator replays a seeded run
  /// bit-identically to a fresh one (enforced by test).
  void reset();

  /// Number of pool slots ever allocated (high-water mark of concurrently
  /// pending events; exposed for tests and diagnostics).
  std::size_t pool_slots() const { return pool_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    EventCallback cb;
    std::uint32_t generation = 0;  ///< Bumped on each allocation of the slot.
    std::uint32_t next_free = kNil;
    bool live = false;
  };

  /// POD heap entry; `generation` detects entries whose slot was cancelled
  /// (and possibly reused) between push and pop.
  struct QueueEntry {
    TimeMs when;
    std::uint64_t seq;  // FIFO tie-break
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const QueueEntry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot);
  bool entry_live(const QueueEntry& e) const {
    return pool_[e.slot].live && pool_[e.slot].generation == e.generation;
  }
  void skip_stale_top();
  bool fire_next();

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue_;
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t fired_ = 0;
};

}  // namespace xrbench::sim
