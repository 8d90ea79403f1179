// Link-time interposers (ld --wrap, see ../CMakeLists.txt). Calls into these
// public library functions — from the benchmark and from inside the library
// alike, wherever the caller sits in another translation unit — land here,
// are timed as a span, and continue into the real definition. This is how
// the benchmark sees generation, characterization, eval batches, journal
// appends and manifest writes that happen inside Campaign::run_bot and
// CampaignService::step without touching library code.
//
// The __real_ declarations are weak: should a later revision drop or
// re-sign one of these functions, the benchmark still links and that
// layer's figures read 0 instead of the build failing.

#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "expert/core/campaign.hpp"
#include "expert/core/characterization.hpp"
#include "expert/core/estimator.hpp"
#include "expert/eval/service.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/service/manifest.hpp"
#include "expert/stats/distributions.hpp"
#include "expert/workload/presets.hpp"

namespace {

std::mutex g_counter_mutex;
std::set<std::tuple<double, double, double>> g_calibrate_inputs;
std::uint64_t g_history_records = 0;
std::uint64_t g_estimator_calls = 0;
double g_estimator_wall_s = 0.0;

/// Times one estimator call on whichever thread makes it. These calls run
/// by the thousand on eval pool threads, so they are summed, not spanned.
template <typename Call>
auto time_estimator(Call&& call) {
  if (!perfbench::tracing_on()) return call();
  const double start = perfbench::wall_now();
  auto out = call();
  const double wall = perfbench::wall_now() - start;
  std::lock_guard<std::mutex> lock(g_counter_mutex);
  ++g_estimator_calls;
  g_estimator_wall_s += wall;
  return out;
}

}  // namespace

namespace perfbench {

WrapCounters wrap_counters_take() {
  std::lock_guard<std::mutex> lock(g_counter_mutex);
  WrapCounters out;
  out.calibrate_distinct_inputs = g_calibrate_inputs.size();
  out.characterize_history_records = g_history_records;
  out.estimator_calls = g_estimator_calls;
  out.estimator_wall_s = g_estimator_wall_s;
  g_calibrate_inputs.clear();
  g_history_records = 0;
  g_estimator_calls = 0;
  g_estimator_wall_s = 0.0;
  return out;
}

}  // namespace perfbench

using namespace expert;
using perfbench::Scope;

// The symbols are C++-mangled names; extern "C" keeps the compiler from
// mangling them again. Member functions take `this` as the first argument.
#define PB_WEAK __attribute__((weak))

extern "C" {

// stats::TruncatedLognormal::from_stats(double, double, double)
stats::TruncatedLognormal
__real__ZN6expert5stats18TruncatedLognormal10from_statsEddd(double, double,
                                                            double) PB_WEAK;
stats::TruncatedLognormal
__wrap__ZN6expert5stats18TruncatedLognormal10from_statsEddd(double mean,
                                                            double lo,
                                                            double hi) {
  if (perfbench::tracing_on()) {
    std::lock_guard<std::mutex> lock(g_counter_mutex);
    g_calibrate_inputs.emplace(mean, lo, hi);
  }
  Scope span("stats.calibrate");
  return __real__ZN6expert5stats18TruncatedLognormal10from_statsEddd(mean, lo,
                                                                     hi);
}

// workload::make_synthetic_bot(std::string, size_t, double, double, double,
// uint64_t) — the generator behind every service tenant BoT.
workload::Bot
__real__ZN6expert8workload18make_synthetic_botENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmdddm(
    std::string, std::size_t, double, double, double, std::uint64_t) PB_WEAK;
workload::Bot
__wrap__ZN6expert8workload18make_synthetic_botENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmdddm(
    std::string name, std::size_t tasks, double mean, double lo, double hi,
    std::uint64_t seed) {
  Scope span("workload.make_bot");
  return __real__ZN6expert8workload18make_synthetic_botENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmdddm(
      std::move(name), tasks, mean, lo, hi, seed);
}

// core::characterize_checked(const ExecutionTrace&, const
// CharacterizationOptions&, const QualityThresholds&)
core::CheckedCharacterization
__real__ZN6expert4core20characterize_checkedERKNS_5trace14ExecutionTraceERKNS0_23CharacterizationOptionsERKNS0_17QualityThresholdsE(
    const trace::ExecutionTrace&, const core::CharacterizationOptions&,
    const core::QualityThresholds&) PB_WEAK;
core::CheckedCharacterization
__wrap__ZN6expert4core20characterize_checkedERKNS_5trace14ExecutionTraceERKNS0_23CharacterizationOptionsERKNS0_17QualityThresholdsE(
    const trace::ExecutionTrace& history,
    const core::CharacterizationOptions& options,
    const core::QualityThresholds& thresholds) {
  if (perfbench::tracing_on()) {
    std::lock_guard<std::mutex> lock(g_counter_mutex);
    g_history_records += history.records().size();
  }
  Scope span("core.characterize");
  return __real__ZN6expert4core20characterize_checkedERKNS_5trace14ExecutionTraceERKNS0_23CharacterizationOptionsERKNS0_17QualityThresholdsE(
      history, options, thresholds);
}

// core::estimate_effective_size_iterative(const ExecutionTrace&, const
// TurnaroundModel&, double, uint64_t)
std::size_t
__real__ZN6expert4core33estimate_effective_size_iterativeERKNS_5trace14ExecutionTraceERKNS0_15TurnaroundModelEdm(
    const trace::ExecutionTrace&, const core::TurnaroundModel&, double,
    std::uint64_t) PB_WEAK;
std::size_t
__wrap__ZN6expert4core33estimate_effective_size_iterativeERKNS_5trace14ExecutionTraceERKNS0_15TurnaroundModelEdm(
    const trace::ExecutionTrace& history, const core::TurnaroundModel& model,
    double deadline, std::uint64_t seed) {
  Scope span("core.effective_size");
  return __real__ZN6expert4core33estimate_effective_size_iterativeERKNS_5trace14ExecutionTraceERKNS0_15TurnaroundModelEdm(
      history, model, deadline, seed);
}

// core::Estimator::estimate(size_t, const StrategyConfig&, uint64_t) const
core::EstimateResult
__real__ZNK6expert4core9Estimator8estimateEmRKNS_10strategies14StrategyConfigEm(
    const core::Estimator*, std::size_t, const strategies::StrategyConfig&,
    std::uint64_t) PB_WEAK;
core::EstimateResult
__wrap__ZNK6expert4core9Estimator8estimateEmRKNS_10strategies14StrategyConfigEm(
    const core::Estimator* self, std::size_t tasks,
    const strategies::StrategyConfig& strategy, std::uint64_t stream) {
  return time_estimator([&] {
    return __real__ZNK6expert4core9Estimator8estimateEmRKNS_10strategies14StrategyConfigEm(
        self, tasks, strategy, stream);
  });
}

// core::Estimator::simulate(size_t, const StrategyConfig&, uint64_t,
// uint64_t) const — one repetition, as the eval layer runs it.
std::pair<core::RunMetrics, trace::ExecutionTrace>
__real__ZNK6expert4core9Estimator8simulateEmRKNS_10strategies14StrategyConfigEmm(
    const core::Estimator*, std::size_t, const strategies::StrategyConfig&,
    std::uint64_t, std::uint64_t) PB_WEAK;
std::pair<core::RunMetrics, trace::ExecutionTrace>
__wrap__ZNK6expert4core9Estimator8simulateEmRKNS_10strategies14StrategyConfigEmm(
    const core::Estimator* self, std::size_t tasks,
    const strategies::StrategyConfig& strategy, std::uint64_t stream,
    std::uint64_t rep) {
  return time_estimator([&] {
    return __real__ZNK6expert4core9Estimator8simulateEmRKNS_10strategies14StrategyConfigEmm(
        self, tasks, strategy, stream, rep);
  });
}

// eval::EvalService::evaluate(const Estimator&, size_t, const
// vector<NTDMr>&, const BatchOptions&)
std::vector<eval::EvalResult>
__real__ZN6expert4eval11EvalService8evaluateERKNS_4core9EstimatorEmRKSt6vectorINS_10strategies5NTDMrESaIS8_EERKNS0_12BatchOptionsE(
    eval::EvalService*, const core::Estimator&, std::size_t,
    const std::vector<strategies::NTDMr>&, const eval::BatchOptions&) PB_WEAK;
std::vector<eval::EvalResult>
__wrap__ZN6expert4eval11EvalService8evaluateERKNS_4core9EstimatorEmRKSt6vectorINS_10strategies5NTDMrESaIS8_EERKNS0_12BatchOptionsE(
    eval::EvalService* self, const core::Estimator& estimator,
    std::size_t tasks, const std::vector<strategies::NTDMr>& candidates,
    const eval::BatchOptions& options) {
  Scope span("eval.batch");
  return __real__ZN6expert4eval11EvalService8evaluateERKNS_4core9EstimatorEmRKSt6vectorINS_10strategies5NTDMrESaIS8_EERKNS0_12BatchOptionsE(
      self, estimator, tasks, candidates, options);
}

// gridsim::Executor::run(const Bot&, const StrategyConfig&, uint64_t) const
trace::ExecutionTrace
__real__ZNK6expert7gridsim8Executor3runERKNS_8workload3BotERKNS_10strategies14StrategyConfigEm(
    const gridsim::Executor*, const workload::Bot&,
    const strategies::StrategyConfig&, std::uint64_t) PB_WEAK;
trace::ExecutionTrace
__wrap__ZNK6expert7gridsim8Executor3runERKNS_8workload3BotERKNS_10strategies14StrategyConfigEm(
    const gridsim::Executor* self, const workload::Bot& bot,
    const strategies::StrategyConfig& strategy, std::uint64_t stream) {
  Scope span("gridsim.run");
  return __real__ZNK6expert7gridsim8Executor3runERKNS_8workload3BotERKNS_10strategies14StrategyConfigEm(
      self, bot, strategy, stream);
}

// core::Campaign::run_bot(const Bot&, const Utility&)
core::Campaign::BotReport
__real__ZN6expert4core8Campaign7run_botERKNS_8workload3BotERKNS0_7UtilityE(
    core::Campaign*, const workload::Bot&, const core::Utility&) PB_WEAK;
core::Campaign::BotReport
__wrap__ZN6expert4core8Campaign7run_botERKNS_8workload3BotERKNS0_7UtilityE(
    core::Campaign* self, const workload::Bot& bot,
    const core::Utility& utility) {
  Scope span("core.campaign.run_bot");
  return __real__ZN6expert4core8Campaign7run_botERKNS_8workload3BotERKNS0_7UtilityE(
      self, bot, utility);
}

// resilience::CampaignJournal::recorder() — the journal's own closure calls
// record() from inside journal.cpp, out of reach of --wrap, so the closure
// itself is wrapped.
core::Campaign::Recorder
__real__ZN6expert10resilience15CampaignJournal8recorderEv(
    resilience::CampaignJournal*) PB_WEAK;
core::Campaign::Recorder
__wrap__ZN6expert10resilience15CampaignJournal8recorderEv(
    resilience::CampaignJournal* self) {
  auto inner = __real__ZN6expert10resilience15CampaignJournal8recorderEv(self);
  return [inner = std::move(inner)](const core::Campaign::BotRecord& record) {
    Scope span("resilience.journal.record");
    inner(record);
  };
}

// service::write_manifest(const std::string&, const Manifest&, uint64_t)
void
__real__ZN6expert7service14write_manifestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_8ManifestEm(
    const std::string&, const service::Manifest&, std::uint64_t) PB_WEAK;
void
__wrap__ZN6expert7service14write_manifestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_8ManifestEm(
    const std::string& path, const service::Manifest& manifest,
    std::uint64_t digest) {
  Scope span("service.manifest.write");
  __real__ZN6expert7service14write_manifestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_8ManifestEm(
      path, manifest, digest);
}

}  // extern "C"
