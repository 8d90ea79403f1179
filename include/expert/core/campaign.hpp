#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "expert/core/expert.hpp"
#include "expert/workload/bot.hpp"

namespace expert::core {

/// Orchestrates a multi-BoT campaign the way superlink-online-style
/// services use GridBoT (paper §I, §V): every finished BoT's execution
/// history feeds the statistical characterization for the next one, so
/// ExPERT's recommendations sharpen as the campaign proceeds.
///
/// The campaign is backend-agnostic: the executor callback runs a BoT
/// under a strategy and returns its trace (gridsim::Executor::run bound to
/// an environment, or a binding to a real scheduler).
class Campaign {
 public:
  using Backend = std::function<trace::ExecutionTrace(
      const workload::Bot& bot, const strategies::StrategyConfig& strategy,
      std::uint64_t stream)>;

  struct BotReport;

  /// Everything a journal needs to persist one finished BoT: the report,
  /// the trace as retained for characterization (nullptr when the BoT was
  /// quarantined and contributes no history), and the stream counter value
  /// after the BoT — restoring it replays the exact backend streams.
  struct BotRecord {
    const BotReport& report;
    const trace::ExecutionTrace* history = nullptr;
    std::uint64_t next_stream = 1;
  };

  /// Journal hook, invoked after every finished BoT (including quarantined
  /// ones), once the report and histories are final. Exceptions propagate
  /// to the run_bot caller: losing the journal is a hard error, since a
  /// later resume would silently diverge.
  using Recorder = std::function<void(const BotRecord& record)>;

  /// Online drift check, invoked with the finished report and its trace
  /// before the trace joins the history. Returning true declares model
  /// drift: the accumulated history is discarded (re-characterization
  /// restarts from this post-drift trace only) and the report's
  /// degradation becomes DegradationReason::ModelDrift.
  using DriftMonitor = std::function<bool(const BotReport& report,
                                          const trace::ExecutionTrace& trace)>;

  struct Options {
    UserParams params;
    ExpertOptions expert;
    /// Strategy for the first BoT (no history yet). Default: AUR.
    std::optional<strategies::StrategyConfig> bootstrap_strategy;
    /// Keep at most this many BoT histories for characterization (older
    /// environments drift; the paper characterizes from recent data).
    std::size_t history_window = 4;
    /// How often a BoT whose backend threw is re-run on a fresh stream
    /// before being quarantined. 0 quarantines on the first failure.
    std::size_t max_backend_retries = 2;
    /// Sample-size floor below which characterization falls back to the
    /// synthetic bootstrap model (see Expert::from_history_robust).
    QualityThresholds quality;
    /// Journal hook (see resilience::CampaignJournal). Absent by default;
    /// with no recorder and no drift monitor every run is byte-identical
    /// to the pre-resilience behaviour.
    Recorder recorder;
    /// Drift check (see resilience::DriftDetector). Absent by default.
    DriftMonitor drift_monitor;
  };

  /// State reconstructed from a journal, from which `resume` continues a
  /// campaign exactly where a crash stopped it.
  struct RestoredState {
    std::vector<trace::ExecutionTrace> histories;
    std::vector<BotReport> reports;
    std::uint64_t next_stream = 1;
    std::size_t quarantined = 0;
  };

  /// Terminal state of one BoT within the campaign.
  enum class BotOutcome {
    Completed,            ///< first backend attempt returned a trace
    CompletedAfterRetry,  ///< one or more attempts threw, a later one ran
    Quarantined,          ///< every attempt threw; BoT excluded from history
  };

  struct BotReport {
    strategies::StrategyConfig strategy;
    bool used_recommendation = false;
    double makespan = 0.0;
    double tail_makespan = 0.0;
    double cost_per_task_cents = 0.0;
    /// Prediction made before the run (absent for the bootstrap BoT).
    std::optional<StrategyPoint> predicted;
    BotOutcome outcome = BotOutcome::Completed;
    /// Backend attempts that threw before the run succeeded (== attempts
    /// made when quarantined).
    std::size_t retries = 0;
    /// The returned trace hit the simulation horizon (partial results).
    bool truncated = false;
    /// Why the recommendation pipeline fell back, when it did: the
    /// characterization's reason, RecommendationInfeasible when no strategy
    /// passed the utility gate, or BackendFailure when quarantined.
    std::optional<DegradationReason> degradation;
    /// What the accumulated history offered the characterization (absent
    /// for the first BoT, which has no history).
    std::optional<CharacterizationQuality> quality;
    /// Digest of the turnaround model this BoT's recommendation came from
    /// (absent for the bootstrap BoT). Drift handling uses it to invalidate
    /// stale eval-cache entries keyed on the same model.
    std::optional<std::uint64_t> model_digest;
  };

  Campaign(Backend backend, Options options);

  /// Continue a campaign from journal-recovered state: the retained
  /// histories, already-finished reports, and the stream counter are
  /// restored exactly, so the remaining BoTs run as if the original process
  /// had never died (see resilience::recover_campaign).
  static Campaign resume(Backend backend, Options options,
                         RestoredState state);

  /// Run one BoT: recommend from accumulated history (when any), execute
  /// with bounded retries on backend failure, record the trace for future
  /// characterization. Never throws on backend or characterization
  /// failure — a BoT whose every attempt threw is quarantined (reported,
  /// excluded from history) and the campaign continues.
  BotReport run_bot(const workload::Bot& bot, const Utility& utility);

  std::size_t completed_bots() const noexcept { return reports_.size(); }
  const std::vector<BotReport>& reports() const noexcept { return reports_; }
  std::size_t quarantined_bots() const noexcept { return quarantined_; }
  /// BoT traces currently retained for characterization. Drops to 1 right
  /// after a drift trip (the post-drift trace alone survives).
  std::size_t history_depth() const noexcept { return histories_.size(); }

  /// Pooled characterization input: the retained histories merged into one
  /// trace (send times offset so BoTs do not overlap).
  std::optional<trace::ExecutionTrace> merged_history() const;

 private:
  /// Model digest of the most recent re-plan (restored reports included).
  std::optional<std::uint64_t> last_model_digest() const;

  Backend backend_;
  Options options_;
  std::vector<trace::ExecutionTrace> histories_;
  std::vector<BotReport> reports_;
  std::uint64_t next_stream_ = 1;
  std::size_t quarantined_ = 0;
};

const char* to_string(Campaign::BotOutcome outcome) noexcept;

}  // namespace expert::core
