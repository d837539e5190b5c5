#include "core/aggregate.h"

#include <cstddef>
#include <stdexcept>

namespace xrbench::core {

namespace {

/// Mean-only Welford accumulator: the exact `mean += delta / n` recurrence
/// of util::RunningStats::add, without the min/max/sum/variance upkeep the
/// scorer never reads, so its means are bit-identical.
class RunningMean {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
  }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace

const ModelScore* ScenarioScore::find(models::TaskId task) const {
  for (const auto& m : models) {
    if (m.task == task) return &m;
  }
  return nullptr;
}

ScenarioScore score_scenario(const runtime::ScenarioRunResult& run,
                             const ScoreConfig& config) {
  ScenarioScore sc;
  sc.scenario_name = run.scenario_name;
  sc.total_energy_mj = run.total_energy_mj;

  std::int64_t total_expected = 0;
  std::int64_t total_dropped = 0;

  sc.models.reserve(run.per_model.size());
  for (const auto& mstats : run.per_model) {
    const auto& goal = workload::unit_model_spec(mstats.task).quality;
    ModelScore m;
    m.task = mstats.task;
    m.active = mstats.frames_expected > 0 || !mstats.records.empty();
    m.accuracy = accuracy_score(goal, config.epsilon);
    m.frames_expected = mstats.frames_expected;
    m.frames_executed = mstats.frames_executed;
    m.frames_dropped = mstats.frames_dropped;
    m.deadline_misses = mstats.deadline_misses;
    m.qoe = qoe_score(mstats.frames_executed, mstats.frames_expected);

    // Stream the SoA columns directly: no per-record temporaries, one
    // byte-wide branch column, and the accuracy factor (constant per model)
    // multiplied in without re-deriving it per record. The accumulation
    // order and arithmetic match the former AoS loop exactly —
    // inference_score(rec) == rt * en * acc with the same left-to-right
    // products — so scores stay bit-identical.
    const runtime::RecordStore& recs = mstats.records;
    const auto& dropped = recs.dropped();
    const auto& treq = recs.treq_ms();
    const auto& tdl = recs.tdl_ms();
    const auto& complete = recs.complete_ms();
    const auto& energy = recs.energy_mj();
    RunningMean rt_stats, en_stats, inf_stats;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (dropped[i] != 0) continue;
      const double latency_ms = complete[i] - treq[i];
      const double rt = rt_score(latency_ms, tdl[i] - treq[i], config.k);
      const double en = energy_score(energy[i], config.enmax_mj);
      rt_stats.add(rt);
      en_stats.add(en);
      inf_stats.add(rt * en * m.accuracy);
    }
    // "If all the frames are dropped, the score is defined to be zero."
    m.rt = rt_stats.empty() ? 0.0 : rt_stats.mean();
    m.energy = en_stats.empty() ? 0.0 : en_stats.mean();
    m.per_model = inf_stats.empty() ? 0.0 : inf_stats.mean();
    m.combined = m.per_model * m.qoe;

    total_expected += mstats.frames_expected;
    total_dropped += mstats.frames_dropped;
    sc.models.push_back(m);
  }

  if (sc.models.empty()) {
    throw std::invalid_argument("score_scenario: run has no models");
  }

  RunningMean rt, en, acc, qoe, overall;
  for (const auto& m : sc.models) {
    if (!m.active) continue;
    rt.add(m.rt);
    en.add(m.energy);
    acc.add(m.accuracy);
    qoe.add(m.qoe);
    overall.add(m.combined);
  }
  sc.realtime = rt.mean();
  sc.energy = en.mean();
  sc.accuracy = acc.mean();
  sc.qoe = qoe.mean();
  sc.overall = overall.mean();
  sc.frame_drop_rate =
      total_expected > 0
          ? static_cast<double>(total_dropped) /
                static_cast<double>(total_expected)
          : 0.0;
  return sc;
}

ScenarioScore average_scores(const std::vector<ScenarioScore>& trials) {
  if (trials.empty()) {
    throw std::invalid_argument("average_scores: no trials");
  }
  ScenarioScore avg = trials.front();
  const auto n = static_cast<double>(trials.size());
  if (trials.size() == 1) return avg;

  for (auto& m : avg.models) {
    m.active = false;
    m.rt = 0;
    m.energy = 0;
    m.per_model = 0;
    m.qoe = 0;
    m.combined = 0;
    m.frames_expected = 0;
    m.frames_executed = 0;
    m.frames_dropped = 0;
    m.deadline_misses = 0;
  }
  avg.realtime = avg.energy = avg.accuracy = avg.qoe = avg.overall = 0;
  avg.total_energy_mj = 0;
  avg.frame_drop_rate = 0;

  // Per-model score means are taken over the trials where the model was
  // actually demanded (control-dependent models can be inactive in a trial).
  std::vector<double> active_trials(avg.models.size(), 0.0);
  for (const auto& t : trials) {
    if (t.scenario_name != avg.scenario_name ||
        t.models.size() != avg.models.size()) {
      throw std::invalid_argument(
          "average_scores: trials are not the same scenario");
    }
    for (std::size_t i = 0; i < avg.models.size(); ++i) {
      const auto& tm = t.models[i];
      auto& am = avg.models[i];
      if (tm.task != am.task) {
        throw std::invalid_argument("average_scores: model order mismatch");
      }
      if (tm.active) {
        am.active = true;
        active_trials[i] += 1.0;
        am.rt += tm.rt;
        am.energy += tm.energy;
        am.per_model += tm.per_model;
        am.qoe += tm.qoe;
        am.combined += tm.combined;
      }
      am.frames_expected += tm.frames_expected;
      am.frames_executed += tm.frames_executed;
      am.frames_dropped += tm.frames_dropped;
      am.deadline_misses += tm.deadline_misses;
    }
    avg.realtime += t.realtime / n;
    avg.energy += t.energy / n;
    avg.accuracy += t.accuracy / n;
    avg.qoe += t.qoe / n;
    avg.overall += t.overall / n;
    avg.total_energy_mj += t.total_energy_mj / n;
    avg.frame_drop_rate += t.frame_drop_rate / n;
  }
  for (std::size_t i = 0; i < avg.models.size(); ++i) {
    if (active_trials[i] > 0.0) {
      auto& am = avg.models[i];
      am.rt /= active_trials[i];
      am.energy /= active_trials[i];
      am.per_model /= active_trials[i];
      am.qoe /= active_trials[i];
      am.combined /= active_trials[i];
    }
  }
  return avg;
}

BenchmarkScore combine_scenarios(std::vector<ScenarioScore> scenarios) {
  if (scenarios.empty()) {
    throw std::invalid_argument("combine_scenarios: no scenarios");
  }
  BenchmarkScore b;
  RunningMean overall, rt, en, qoe;
  for (const auto& s : scenarios) {
    overall.add(s.overall);
    rt.add(s.realtime);
    en.add(s.energy);
    qoe.add(s.qoe);
  }
  b.overall = overall.mean();
  b.realtime = rt.mean();
  b.energy = en.mean();
  b.qoe = qoe.mean();
  b.scenarios = std::move(scenarios);
  return b;
}

}  // namespace xrbench::core
