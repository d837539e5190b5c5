#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/request.h"

namespace xrbench::runtime {

/// Structure-of-arrays storage for the inference records of one model run.
///
/// The QoE/score aggregation walks every record of every trial of every
/// sweep point; with AoS `std::vector<InferenceRecord>` that walk strides
/// over 72-byte records to read four doubles. Here each field is a dense
/// column, so the scorer streams exactly the doubles it needs and the
/// branch column (dropped) is one byte per record.
///
/// All eleven columns live in ONE heap arena (column pointers carved out
/// of a single allocation): a trial's per-model setup costs one malloc,
/// not eleven — sub-millisecond sweep trials run thousands of these stores
/// per second and the allocator round-trips were measurable.
///
/// Compatibility: `operator[]`/`view()` materialize AoS `InferenceRecord`s
/// and the proxy iterator keeps range-for working, so record consumers that
/// are not hot (CSV export, tests) read the store exactly like the old
/// vector. Hot paths should use the column accessors instead.
class RecordStore {
 public:
  RecordStore() = default;
  RecordStore(const RecordStore& other);
  RecordStore& operator=(const RecordStore& other);
  RecordStore(RecordStore&& other) noexcept;
  RecordStore& operator=(RecordStore&& other) noexcept;
  ~RecordStore() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  void reserve(std::size_t n);
  void clear() { size_ = 0; }

  /// Appends a dropped record (never dispatched; sub_accel/dvfs stay -1).
  void append_dropped(models::TaskId task, std::int64_t frame, double treq_ms,
                      double tdl_ms);

  /// Appends an executed record. `resumed` tags checkpoint-resumed work
  /// (fault-free runs always pass false).
  void append_executed(models::TaskId task, std::int64_t frame, double treq_ms,
                       double tdl_ms, int sub_accel, int dvfs_level,
                       double dispatch_ms, double complete_ms,
                       double energy_mj, bool resumed = false);

  /// AoS-compatible append (tests and synthetic-run builders).
  void push_back(const InferenceRecord& rec);

  /// Appends every record of `other` with `shift_ms` added to its request
  /// and deadline times — and, for executed records, its dispatch and
  /// completion times (dropped records keep their canonical zeroed
  /// execution fields). This is how a scenario program stitches per-phase
  /// stores onto one session timeline; a shift of 0 appends exact copies.
  void append_shifted(const RecordStore& other, double shift_ms);

  /// Materializes record `i` (AoS compatibility; not the hot path).
  InferenceRecord operator[](std::size_t i) const;

  /// Full AoS copy of the store.
  std::vector<InferenceRecord> view() const;

  // ---- Column accessors (the scorer's streaming interface) --------------
  const models::TaskId* task() const { return task_; }
  const std::int64_t* frame() const { return frame_; }
  const double* treq_ms() const { return treq_ms_; }
  const double* tdl_ms() const { return tdl_ms_; }
  const double* dispatch_ms() const { return dispatch_ms_; }
  const double* complete_ms() const { return complete_ms_; }
  const double* energy_mj() const { return energy_mj_; }
  const std::int32_t* sub_accel() const { return sub_accel_; }
  const std::int32_t* dvfs_level() const { return dvfs_level_; }
  const std::uint8_t* dropped() const { return dropped_; }
  const std::uint8_t* resumed() const { return resumed_; }

  /// Per-record derived quantities, mirroring InferenceRecord's helpers.
  double latency_ms(std::size_t i) const {
    return complete_ms_[i] - treq_ms_[i];
  }
  double slack_ms(std::size_t i) const { return tdl_ms_[i] - treq_ms_[i]; }
  bool missed_deadline(std::size_t i) const {
    return dropped_[i] == 0 && complete_ms_[i] > tdl_ms_[i];
  }

  /// Sorts all columns by the runner's canonical record order — (frame,
  /// treq, executed-before-dropped, dispatch) — via one index permutation
  /// applied in place, cycle by cycle. Same full tie-break as the former
  /// AoS std::sort: equal keys must not permute between runs or stdlib
  /// implementations. Returns after one linear check when the store is
  /// already canonical (the common case: records append in event order).
  /// `order` is the permutation scratch; its capacity is reused.
  void sort_canonical(std::vector<std::size_t>& order);

  /// Proxy iterator: dereferences to a materialized InferenceRecord by
  /// value. Keeps `for (const auto& rec : store)` working (the const ref
  /// binds to the temporary, lifetime-extended per iteration).
  class const_iterator {
   public:
    const_iterator(const RecordStore* store, std::size_t i)
        : store_(store), i_(i) {}
    InferenceRecord operator*() const { return (*store_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const RecordStore* store_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

 private:
  /// (Re)allocates the arena for `n` records and rebases the column
  /// pointers, copying the first `size_` records of each column over.
  void rebase(std::size_t n);
  /// True when record `a` precedes record `b` in the canonical order.
  bool canonical_less(std::size_t a, std::size_t b) const {
    if (frame_[a] != frame_[b]) return frame_[a] < frame_[b];
    if (treq_ms_[a] != treq_ms_[b]) return treq_ms_[a] < treq_ms_[b];
    if (dropped_[a] != dropped_[b]) return dropped_[b] != 0;  // executed 1st
    return dispatch_ms_[a] < dispatch_ms_[b];
  }
  void ensure_capacity() {
    if (size_ == capacity_) rebase(capacity_ == 0 ? 16 : capacity_ * 2);
  }

  /// One allocation, columns in descending-alignment order (8-byte blocks
  /// first, the byte column last) so every column pointer is aligned.
  std::unique_ptr<unsigned char[]> arena_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;

  double* treq_ms_ = nullptr;
  double* tdl_ms_ = nullptr;
  double* dispatch_ms_ = nullptr;
  double* complete_ms_ = nullptr;
  double* energy_mj_ = nullptr;
  std::int64_t* frame_ = nullptr;
  std::int32_t* sub_accel_ = nullptr;
  std::int32_t* dvfs_level_ = nullptr;
  models::TaskId* task_ = nullptr;
  std::uint8_t* dropped_ = nullptr;
  std::uint8_t* resumed_ = nullptr;
};

}  // namespace xrbench::runtime
