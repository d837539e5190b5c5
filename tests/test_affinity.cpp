// util::affinity and the opt-in worker-pinning path: the module must report
// a coherent CPU set, pin only the calling thread, degrade to a documented
// no-op where unsupported, and a pinned ThreadPool / SweepEngine must
// produce byte-identical results at every worker count — pinning moves
// work, never output.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.h"
#include "hw/accelerator.h"
#include "util/affinity.h"
#include "util/thread_pool.h"

namespace xrbench {
namespace {

/// RAII save/restore of one environment variable (tests flip XRBENCH_PIN).
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* value = std::getenv(name);
    if (value != nullptr) saved_ = value;
    had_value_ = value != nullptr;
  }
  ~EnvGuard() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(Affinity, AllowedCpusAscendingAndNonNegative) {
  namespace aff = util::affinity;
  const auto cpus = aff::allowed_cpus();
  if (aff::supported()) {
    ASSERT_FALSE(cpus.empty());
    EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
    for (int cpu : cpus) EXPECT_GE(cpu, 0);
  } else {
    EXPECT_TRUE(cpus.empty());
  }
}

TEST(Affinity, PinCurrentThreadOnlyAffectsThatThread) {
  namespace aff = util::affinity;
  const auto before = aff::allowed_cpus();
  std::atomic<bool> pinned{false};
  std::atomic<std::size_t> visible{0};
  // Pin inside a scratch thread: the mask is per-thread on Linux, so the
  // main thread's mask must stay untouched.
  std::thread t([&] {
    pinned.store(aff::pin_current_thread(1));  // slot 1 wraps on 1-CPU boxes
    visible.store(aff::allowed_cpus().size());
  });
  t.join();
  EXPECT_EQ(pinned.load(), aff::supported());
  if (aff::supported()) {
    EXPECT_EQ(visible.load(), 1u);  // pinned thread sees exactly its CPU
    EXPECT_EQ(aff::allowed_cpus(), before);
  }
}

TEST(ThreadPoolPin, OptionsFromEnvRequireExactlyOne) {
  EnvGuard guard("XRBENCH_PIN");
  ::unsetenv("XRBENCH_PIN");
  EXPECT_FALSE(util::ThreadPoolOptions::from_env().pin_workers);
  ::setenv("XRBENCH_PIN", "1", 1);
  EXPECT_TRUE(util::ThreadPoolOptions::from_env().pin_workers);
  ::setenv("XRBENCH_PIN", "0", 1);
  EXPECT_FALSE(util::ThreadPoolOptions::from_env().pin_workers);
  ::setenv("XRBENCH_PIN", "yes", 1);  // opt-in is strict: "1" only
  EXPECT_FALSE(util::ThreadPoolOptions::from_env().pin_workers);
}

TEST(ThreadPoolPin, PinnedPoolRunsTasksAndReportsPinState) {
  util::ThreadPoolOptions options;
  options.pin_workers = true;
  util::ThreadPool pool(4, options);
  // workers_pinned() is reliable right after construction; it degrades to
  // false (not an error) where the platform has no affinity API.
  EXPECT_EQ(pool.workers_pinned(), util::affinity::supported());
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolPin, UnpinnedAndInlinePoolsReportUnpinned) {
  util::ThreadPoolOptions off;
  util::ThreadPool unpinned(2, off);
  EXPECT_FALSE(unpinned.workers_pinned());
  util::ThreadPoolOptions on;
  on.pin_workers = true;
  util::ThreadPool inline_pool(0, on);  // no workers to pin
  EXPECT_FALSE(inline_pool.workers_pinned());
  std::atomic<int> ran{0};
  inline_pool.submit([&ran] { ran.fetch_add(1); });
  inline_pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolPin, PinnedSweepByteIdenticalAtEveryWorkerCount) {
  // The acceptance contract: XRBENCH_PIN=1 moves workers onto fixed CPUs
  // and changes nothing else — scores at 1/2/4/8 pinned workers are
  // byte-identical to the unpinned serial reference.
  core::HarnessOptions opt;
  opt.run.duration_ms = 200.0;
  opt.dynamic_trials = 2;
  std::vector<core::SweepPoint> points;
  for (char id : {'A', 'J'}) {
    points.push_back({std::string(1, id),
                      hw::with_default_dvfs(hw::make_accelerator(id, 4096)),
                      opt});
  }

  EnvGuard guard("XRBENCH_PIN");
  ::unsetenv("XRBENCH_PIN");
  core::SweepEngine reference(0);
  EXPECT_FALSE(reference.workers_pinned());
  const auto expected = reference.run_suite_points(points);

  ::setenv("XRBENCH_PIN", "1", 1);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    core::SweepEngine engine(workers);  // picks up XRBENCH_PIN via from_env
    EXPECT_EQ(engine.workers_pinned(), util::affinity::supported());
    const auto outcomes = engine.run_suite_points(points);
    ASSERT_EQ(outcomes.size(), expected.size());
    for (std::size_t p = 0; p < expected.size(); ++p) {
      EXPECT_EQ(outcomes[p].score.overall, expected[p].score.overall);
      EXPECT_EQ(outcomes[p].score.realtime, expected[p].score.realtime);
      EXPECT_EQ(outcomes[p].score.energy, expected[p].score.energy);
      EXPECT_EQ(outcomes[p].score.qoe, expected[p].score.qoe);
    }
  }
}

}  // namespace
}  // namespace xrbench
