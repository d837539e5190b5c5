#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace xrbench::sim {

std::uint32_t Simulator::alloc_slot() {
  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& n = pool_[slot];
  ++n.generation;  // stale ids/entries from the previous tenant now mismatch
  n.live = true;
  n.next_free = kNil;
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Node& n = pool_[slot];
  n.cb.reset();
  n.live = false;
  n.next_free = free_head_;
  free_head_ = slot;
}

EventId Simulator::schedule_at(TimeMs when, Callback cb) {
  const std::uint32_t slot = alloc_slot();
  Node& n = pool_[slot];
  n.cb = std::move(cb);
  queue_.push(QueueEntry{std::max(when, now_), next_seq_++, slot,
                         n.generation});
  ++live_events_;
  return (static_cast<EventId>(n.generation) << 32) | slot;
}

EventId Simulator::schedule_after(TimeMs delay, Callback cb) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(cb));
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= pool_.size()) return false;
  Node& n = pool_[slot];
  if (!n.live || n.generation != generation) return false;
  release_slot(slot);  // the stale queue entry is skipped on pop
  if (live_events_ > 0) --live_events_;
  return true;
}

void Simulator::skip_stale_top() {
  while (!queue_.empty() && !entry_live(queue_.top())) queue_.pop();
}

bool Simulator::fire_next() {
  while (!queue_.empty()) {
    const QueueEntry e = queue_.top();
    queue_.pop();
    if (!entry_live(e)) continue;
    // Move the callback out before firing: the callback may schedule new
    // events, growing the pool and invalidating node references; releasing
    // first also makes a cancel() of this id during the callback a no-op.
    EventCallback cb = std::move(pool_[e.slot].cb);
    release_slot(e.slot);
    now_ = e.when;
    --live_events_;
    ++fired_;
    cb();
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t fired = 0;
  while (fire_next()) ++fired;
  return fired;
}

std::size_t Simulator::run_until(TimeMs until) {
  std::size_t fired = 0;
  while (true) {
    skip_stale_top();
    if (queue_.empty() || queue_.top().when > until) break;
    if (fire_next()) ++fired;
  }
  now_ = std::max(now_, until);
  return fired;
}

std::size_t Simulator::run_before(TimeMs t) {
  std::size_t fired = 0;
  while (true) {
    skip_stale_top();
    if (queue_.empty() || queue_.top().when >= t) break;
    if (fire_next()) ++fired;
  }
  now_ = std::max(now_, t);
  return fired;
}

bool Simulator::step() { return fire_next(); }

void Simulator::reset() {
  if (live_events_ != 0) {
    throw std::logic_error("Simulator::reset: events are still pending");
  }
  // Every remaining queue entry is stale (its slot was cancelled — live
  // slots are counted by live_events_); drop them so the rewound clock can
  // never resurrect one.
  while (!queue_.empty()) queue_.pop();
  now_ = 0.0;
  fired_ = 0;
}

}  // namespace xrbench::sim
