#include "runtime/record_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/harness.h"
#include "hw/accelerator.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

InferenceRecord executed(TaskId task, std::int64_t frame, double treq,
                         double tdl, double dispatch, double complete,
                         double energy, int sa = 0, int level = 0) {
  InferenceRecord rec;
  rec.task = task;
  rec.frame = frame;
  rec.treq_ms = treq;
  rec.tdl_ms = tdl;
  rec.sub_accel = sa;
  rec.dvfs_level = level;
  rec.dispatch_ms = dispatch;
  rec.complete_ms = complete;
  rec.energy_mj = energy;
  return rec;
}

TEST(RecordStore, RoundTripsThroughAllAppendPaths) {
  RecordStore store;
  EXPECT_TRUE(store.empty());

  store.append_executed(TaskId::kHT, /*frame=*/3, /*treq_ms=*/1.0,
                        /*tdl_ms=*/10.0, /*sub_accel=*/1, /*dvfs_level=*/2,
                        /*dispatch_ms=*/2.0, /*complete_ms=*/4.0,
                        /*energy_mj=*/0.5);
  store.append_dropped(TaskId::kHT, 4, 5.0, 12.0);
  store.push_back(executed(TaskId::kHT, 5, 6.0, 20.0, 7.0, 9.0, 0.25));

  ASSERT_EQ(store.size(), 3u);
  const InferenceRecord a = store[0];
  EXPECT_EQ(a.task, TaskId::kHT);
  EXPECT_EQ(a.frame, 3);
  EXPECT_FALSE(a.dropped);
  EXPECT_EQ(a.sub_accel, 1);
  EXPECT_EQ(a.dvfs_level, 2);
  EXPECT_EQ(a.dispatch_ms, 2.0);
  EXPECT_EQ(a.complete_ms, 4.0);
  EXPECT_EQ(a.energy_mj, 0.5);
  EXPECT_EQ(a.latency_ms(), 3.0);   // complete - treq
  EXPECT_EQ(a.slack_ms(), 9.0);     // tdl - treq
  EXPECT_FALSE(a.missed_deadline());

  const InferenceRecord b = store[1];
  EXPECT_TRUE(b.dropped);
  EXPECT_EQ(b.sub_accel, -1);
  EXPECT_EQ(b.dvfs_level, -1);

  // Column helpers agree with the materialized records.
  EXPECT_EQ(store.latency_ms(0), a.latency_ms());
  EXPECT_EQ(store.slack_ms(0), a.slack_ms());
  EXPECT_EQ(store.missed_deadline(0), a.missed_deadline());
  EXPECT_FALSE(store.missed_deadline(1));  // dropped never "missed"
}

TEST(RecordStore, ViewAndIteratorsMatchIndexing) {
  RecordStore store;
  for (int f = 0; f < 5; ++f) {
    store.push_back(
        executed(TaskId::kES, f, f * 1.0, f + 10.0, f + 0.5, f + 2.0, 0.1));
  }
  const auto aos = store.view();
  ASSERT_EQ(aos.size(), store.size());
  std::size_t i = 0;
  for (const auto& rec : store) {  // proxy iterator
    EXPECT_EQ(rec.frame, aos[i].frame);
    EXPECT_EQ(rec.treq_ms, aos[i].treq_ms);
    EXPECT_EQ(rec.complete_ms, aos[i].complete_ms);
    ++i;
  }
  EXPECT_EQ(i, store.size());
}

TEST(RecordStore, SortCanonicalMatchesAosSort) {
  // Same comparator, one applied to the SoA store via index permutation,
  // one to the materialized AoS copy via std::sort. Mixed frames, repeated
  // frames, dropped-vs-executed ties.
  RecordStore store;
  store.append_dropped(TaskId::kOD, 2, 3.0, 9.0);
  store.push_back(executed(TaskId::kOD, 2, 3.0, 9.0, 4.0, 6.0, 0.3));
  store.push_back(executed(TaskId::kOD, 0, 1.0, 5.0, 1.5, 2.0, 0.2));
  store.append_dropped(TaskId::kOD, 0, 0.5, 5.0);
  store.push_back(executed(TaskId::kOD, 1, 2.0, 7.0, 2.5, 3.0, 0.1));
  store.push_back(executed(TaskId::kOD, 1, 2.0, 7.0, 2.2, 2.9, 0.1));

  auto aos = store.view();
  std::sort(aos.begin(), aos.end(),
            [](const InferenceRecord& a, const InferenceRecord& b) {
              if (a.frame != b.frame) return a.frame < b.frame;
              if (a.treq_ms != b.treq_ms) return a.treq_ms < b.treq_ms;
              if (a.dropped != b.dropped) return b.dropped;
              return a.dispatch_ms < b.dispatch_ms;
            });
  std::vector<std::size_t> order;
  store.sort_canonical(order);
  ASSERT_EQ(store.size(), aos.size());
  for (std::size_t i = 0; i < aos.size(); ++i) {
    EXPECT_EQ(store[i].frame, aos[i].frame) << i;
    EXPECT_EQ(store[i].treq_ms, aos[i].treq_ms) << i;
    EXPECT_EQ(store[i].dropped, aos[i].dropped) << i;
    EXPECT_EQ(store[i].dispatch_ms, aos[i].dispatch_ms) << i;
    EXPECT_EQ(store[i].complete_ms, aos[i].complete_ms) << i;
    EXPECT_EQ(store[i].energy_mj, aos[i].energy_mj) << i;
  }
}

TEST(RecordStore, SortCanonicalReturnsEarlyAndReusesItsScratch) {
  RecordStore store;
  store.push_back(executed(TaskId::kOD, 2, 4.0, 9.0, 4.5, 5.0, 0.1));
  store.push_back(executed(TaskId::kOD, 1, 2.0, 7.0, 2.5, 3.0, 0.1));
  store.push_back(executed(TaskId::kOD, 0, 0.0, 5.0, 0.5, 1.0, 0.1));
  std::vector<std::size_t> order;
  store.sort_canonical(order);  // out of order: permutes via the scratch
  EXPECT_EQ(store[0].frame, 0);
  EXPECT_EQ(store[2].frame, 2);
  const std::size_t capacity = order.capacity();
  EXPECT_GE(capacity, store.size());
  // Already canonical: one linear check, no permutation, scratch untouched.
  order.assign(1, 7);
  store.sort_canonical(order);
  EXPECT_EQ(order, std::vector<std::size_t>{7});
  EXPECT_EQ(order.capacity(), capacity);
  EXPECT_EQ(store[1].frame, 1);
}

TEST(RecordStore, FullSuiteRunColumnsAgreeWithAosView) {
  // End-to-end SoA/AoS equivalence on a real workload: run the full
  // Table-2 suite and check every store's columns against its materialized
  // records, plus the frame-accounting invariants the AoS path guaranteed.
  core::HarnessOptions opt;
  opt.run.duration_ms = 400.0;
  opt.dynamic_trials = 2;
  const core::Harness harness(hw::make_accelerator('J', 8192), opt);
  const auto outcome = harness.run_suite();
  std::size_t total_records = 0;
  for (const auto& scenario : outcome.scenarios) {
    for (const auto& m : scenario.last_run.per_model) {
      const RecordStore& recs = m.records;
      const auto aos = recs.view();
      ASSERT_EQ(aos.size(), recs.size());
      std::int64_t executed_count = 0, dropped_count = 0;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto& rec = aos[i];
        EXPECT_EQ(rec.task, recs.task()[i]);
        EXPECT_EQ(rec.frame, recs.frame()[i]);
        EXPECT_EQ(rec.treq_ms, recs.treq_ms()[i]);
        EXPECT_EQ(rec.tdl_ms, recs.tdl_ms()[i]);
        EXPECT_EQ(rec.dispatch_ms, recs.dispatch_ms()[i]);
        EXPECT_EQ(rec.complete_ms, recs.complete_ms()[i]);
        EXPECT_EQ(rec.energy_mj, recs.energy_mj()[i]);
        EXPECT_EQ(rec.dropped, recs.dropped()[i] != 0);
        if (rec.dropped) {
          ++dropped_count;
        } else {
          ++executed_count;
          EXPECT_EQ(rec.latency_ms(), recs.latency_ms(i));
          EXPECT_EQ(rec.missed_deadline(), recs.missed_deadline(i));
        }
      }
      EXPECT_EQ(executed_count, m.frames_executed);
      EXPECT_EQ(dropped_count, m.frames_dropped);
      total_records += recs.size();
    }
  }
  EXPECT_GT(total_records, 0u);
}

}  // namespace
}  // namespace xrbench::runtime
