// Unit tests of the benchmark's own pieces: the exact-decimal digest, the
// span self-time accounting, and digest stability of every workload across
// worker counts and against its traced replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <string>

#include <sched.h>

#include "digest.h"
#include "placement.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Digester, EqualInputsGiveEqualDigests) {
  Digester a, b;
  a.add(0.1);
  a.add(std::int64_t{7});
  b.add(0.1);
  b.add(std::int64_t{7});
  EXPECT_EQ(a.value(), b.value());
}

TEST(Digester, OneUlpChangesTheDigest) {
  Digester a, b;
  a.add(0.1);
  b.add(std::nextafter(0.1, 1.0));
  EXPECT_NE(a.value(), b.value());
}

TEST(Digester, FieldBoundariesDoNotAlias) {
  Digester a, b;
  a.add(std::string("1"));
  a.add(std::string("23"));
  b.add(std::string("12"));
  b.add(std::string("3"));
  EXPECT_NE(a.value(), b.value());
}

TEST(PassDigest, MismatchChargesTheGroupsOps) {
  PassDigest ref{{1, 2, 3}, {10, 20, 30}};
  PassDigest same = ref;
  EXPECT_EQ(same.mismatched_ops(ref), 0);
  PassDigest one = ref;
  one.groups[1] = 99;
  EXPECT_EQ(one.mismatched_ops(ref), 20);
  PassDigest shape{{1, 2}, {10, 20}};
  EXPECT_EQ(shape.mismatched_ops(ref), 30);
  EXPECT_NE(one.combined(), ref.combined());
}

TEST(Tracer, SelfTimesPartitionTheRoot) {
  Tracer t;
  const auto root = t.open("sweep.pass");
  for (int i = 0; i < 3; ++i) {
    const auto a = t.open("runtime.trial", i);
    volatile double sink = 0.0;
    for (int k = 0; k < 10000; ++k) sink = sink + k;
    const auto b = t.open("core.score", i);
    t.close(b);
    t.close(a);
  }
  t.close(root);
  double sum = 0.0;
  for (const auto& [name, ns] : t.self_ns_by_name()) {
    EXPECT_GE(ns, 0.0) << name;
    sum += ns;
  }
  EXPECT_DOUBLE_EQ(sum, t.duration_ns(root));
  const auto layers = t.self_ns_by_layer();
  EXPECT_EQ(layers.size(), 3u);  // sweep, runtime, core
  EXPECT_EQ(t.spans()[1].parent, root);
  EXPECT_EQ(t.spans()[2].parent, 1);
  EXPECT_EQ(t.spans()[2].op, 0);
  EXPECT_EQ(layer_of("costmodel.build"), "costmodel");
}

TEST(Placement, RestrictsTheThreadToOneCpu) {
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &before)) last = cpu;
  }
  ASSERT_TRUE(place_thread(0, last));
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_EQ(CPU_COUNT(&after), 1);
  EXPECT_TRUE(CPU_ISSET(last, &after));
  EXPECT_FALSE(place_thread(0, -1));
  ASSERT_EQ(sched_setaffinity(0, sizeof(before), &before), 0);
  EXPECT_FALSE(thread_ids().empty());
}

class WorkloadDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadDigest, SameAtOneAndTwoWorkersAndInTheReplay) {
  auto w = make_workload(GetParam());
  ASSERT_NE(w, nullptr);
  w->prepare(7);
  w->start_engines();
  w->run_pass(1);
  const PassDigest w1 = w->take_digest();
  w->run_pass(2);
  const PassDigest w2 = w->take_digest();
  EXPECT_EQ(w1.ops(), w->ops_per_pass());
  EXPECT_EQ(w2.mismatched_ops(w1), 0);
  EXPECT_EQ(w1.combined(), w2.combined());

  Samples samples;
  w->probe_layers(samples);
  Tracer tracer;
  EXPECT_EQ(w->replay(tracer, samples).mismatched_ops(w1), 0);
  EXPECT_FALSE(samples["trace.pass_ms"].empty());

  // Another seed gives other outputs.
  auto other = make_workload(GetParam());
  other->prepare(8);
  other->start_engines();
  other->run_pass(1);
  EXPECT_NE(other->take_digest().combined(), w1.combined());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDigest,
                         ::testing::ValuesIn(workload_names()));

TEST(Workloads, UnknownNameIsNull) {
  EXPECT_EQ(make_workload("no_such_workload"), nullptr);
}

}  // namespace
}  // namespace perfbench
