#include "expert/core/campaign.hpp"

#include <algorithm>

#include "expert/eval/service.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/util/assert.hpp"

namespace expert::core {

namespace {

/// Campaign-level instrumentation: one bots counter per outcome (so a
/// metrics snapshot shows the campaign's health mix directly) plus the
/// total backend retry count.
struct CampaignObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter completed =
      reg.counter("core.campaign.bots", obs::Labels{{"outcome", "completed"}});
  obs::Counter completed_after_retry = reg.counter(
      "core.campaign.bots",
      obs::Labels{{"outcome", "completed_after_retry"}});
  obs::Counter quarantined = reg.counter(
      "core.campaign.bots", obs::Labels{{"outcome", "quarantined"}});
  obs::Counter backend_retries = reg.counter("core.campaign.backend_retries");

  void count(Campaign::BotOutcome outcome) {
    switch (outcome) {
      case Campaign::BotOutcome::Completed:
        completed.inc();
        break;
      case Campaign::BotOutcome::CompletedAfterRetry:
        completed_after_retry.inc();
        break;
      case Campaign::BotOutcome::Quarantined:
        quarantined.inc();
        break;
    }
  }
};

CampaignObs& campaign_obs() {
  static CampaignObs metrics;
  return metrics;
}

}  // namespace

Campaign::Campaign(Backend backend, Options options)
    : backend_(std::move(backend)), options_(std::move(options)) {
  EXPERT_REQUIRE(backend_ != nullptr, "campaign needs an execution backend");
  EXPERT_REQUIRE(options_.history_window > 0,
                 "history window must be positive");
  options_.params.validate();
  // Frontier sweeps issued by campaign re-planning should be attributed to
  // the campaign, not lumped under ad-hoc frontier calls; respect an
  // explicit caller override.
  if (options_.expert.frontier.consumer == "frontier") {
    options_.expert.frontier.consumer = "campaign";
  }
}

Campaign Campaign::resume(Backend backend, Options options,
                          RestoredState state) {
  Campaign campaign(std::move(backend), std::move(options));
  EXPERT_REQUIRE(state.histories.size() <= campaign.options_.history_window,
                 "restored state holds more histories than the window");
  EXPERT_REQUIRE(state.next_stream >= 1, "stream counter starts at 1");
  campaign.histories_ = std::move(state.histories);
  campaign.reports_ = std::move(state.reports);
  campaign.next_stream_ = state.next_stream;
  campaign.quarantined_ = state.quarantined;
  return campaign;
}

std::optional<trace::ExecutionTrace> Campaign::merged_history() const {
  if (histories_.empty()) return std::nullopt;
  std::size_t task_offset = 0;
  std::vector<trace::InstanceRecord> merged;
  double offset = 0.0;
  // Concatenate the BoTs end to end, shifting both time and task ids so
  // the merged trace reads as one long campaign.
  for (const auto& h : histories_) {
    for (auto r : h.records()) {
      r.send_time += offset;
      r.task += static_cast<workload::TaskId>(task_offset);
      merged.push_back(r);
    }
    offset += h.makespan() + 1.0;
    task_offset += h.task_count();
  }
  // The merged trace is a pure history: everything already happened, so
  // the "decision time" sits at its end — characterization then treats all
  // but the last deadline-width of it as full-knowledge data.
  return trace::ExecutionTrace(task_offset, std::move(merged), offset, offset);
}

std::optional<std::uint64_t> Campaign::last_model_digest() const {
  for (auto it = reports_.rbegin(); it != reports_.rend(); ++it) {
    if (it->model_digest) return it->model_digest;
  }
  return std::nullopt;
}

Campaign::BotReport Campaign::run_bot(const workload::Bot& bot,
                                      const Utility& utility) {
  strategies::StrategyConfig strategy =
      options_.bootstrap_strategy.value_or(strategies::make_static_strategy(
          strategies::StaticStrategyKind::AUR, options_.params.tur, 0.0));
  BotReport report;

  if (const auto history = merged_history()) {
    auto built = Expert::from_history_robust(*history, options_.params,
                                             options_.expert, options_.quality);
    report.quality = built.quality;
    report.degradation = built.degradation;
    report.model_digest = built.expert.estimator().model().digest();
    // A re-plan over a new model supersedes the previous one: no later
    // sweep keys on the old digest, so its eval-cache entries would only
    // pile up until LRU eviction. Drop them, as a drift trip does.
    const std::optional<std::uint64_t> previous = last_model_digest();
    if (previous && *previous != *report.model_digest) {
      eval::EvalService& service = options_.expert.frontier.service
                                       ? *options_.expert.frontier.service
                                       : eval::EvalService::global();
      service.cache().invalidate_model(*previous);
    }
    // The degraded synthetic model still yields a recommendation, so even a
    // faulted campaign keeps making NTDMr decisions — just openly weaker
    // ones. Recommendation failure on top of it keeps the original reason.
    if (const auto rec = built.expert.recommend(bot.size(), utility)) {
      strategy = strategies::make_ntdmr_strategy(rec->strategy);
      report.predicted = rec->predicted;
      report.used_recommendation = true;
    } else if (!report.degradation) {
      report.degradation = DegradationReason::RecommendationInfeasible;
    }
  } else {
    report.degradation = DegradationReason::NoHistory;
  }
  report.strategy = strategy;

  // Execute with bounded retries: each attempt draws a fresh stream so a
  // deterministic backend does not deterministically fail the same way.
  std::optional<trace::ExecutionTrace> trace;
  for (std::size_t attempt = 0;
       attempt <= options_.max_backend_retries && !trace; ++attempt) {
    try {
      trace = backend_(bot, strategy, next_stream_++);
    } catch (const std::exception&) {
      ++report.retries;
    }
  }

  if (report.retries > 0) campaign_obs().backend_retries.inc(report.retries);

  if (!trace) {
    report.outcome = BotOutcome::Quarantined;
    report.degradation = DegradationReason::BackendFailure;
    campaign_obs().count(report.outcome);
    ++quarantined_;
    reports_.push_back(report);
    if (options_.recorder) {
      options_.recorder(BotRecord{reports_.back(), nullptr, next_stream_});
    }
    return report;  // no history from a BoT that never ran
  }

  report.outcome = report.retries > 0 ? BotOutcome::CompletedAfterRetry
                                      : BotOutcome::Completed;
  campaign_obs().count(report.outcome);
  report.truncated = trace->truncated();
  report.makespan = trace->makespan();
  report.tail_makespan = trace->tail_makespan();
  report.cost_per_task_cents = trace->cost_per_task_cents();

  // Drift check before the trace joins the history: a trip means the pool
  // this trace came from no longer matches the characterized model, so the
  // model's training data is discarded wholesale — the next BoT
  // re-characterizes from this post-drift trace alone.
  if (options_.drift_monitor && options_.drift_monitor(report, *trace)) {
    report.degradation = DegradationReason::ModelDrift;
    histories_.clear();
  }

  histories_.push_back(std::move(*trace));
  if (histories_.size() > options_.history_window) {
    histories_.erase(histories_.begin());
  }
  reports_.push_back(report);
  if (options_.recorder) {
    options_.recorder(BotRecord{reports_.back(), &histories_.back(),
                                next_stream_});
  }
  return report;
}

const char* to_string(Campaign::BotOutcome outcome) noexcept {
  switch (outcome) {
    case Campaign::BotOutcome::Completed:
      return "completed";
    case Campaign::BotOutcome::CompletedAfterRetry:
      return "completed_after_retry";
    case Campaign::BotOutcome::Quarantined:
      return "quarantined";
  }
  return "?";
}

}  // namespace expert::core
