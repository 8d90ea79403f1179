// The three workloads. Each is a closed loop on the driving thread: the
// next unit starts only when the previous one returned. Inputs derive from
// Settings::seed alone; the library sees only generated inputs.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "expert/core/campaign.hpp"
#include "expert/core/characterization.hpp"
#include "expert/core/estimator.hpp"
#include "expert/eval/service.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/procexec/codec.hpp"
#include "expert/procexec/supervisor.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/service/service.hpp"
#include "expert/workload/presets.hpp"

namespace perfbench {

extern const double kProcessStart;

namespace {

using namespace expert;
namespace fs = std::filesystem;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Eval pool size: the CPUs this process may run on, never more.
std::size_t cpu_count() {
  ::cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Append a 64-bit FNV-1a digest of `bytes` to a pass fingerprint, so the
/// fingerprint stays small however many units a run does.
void add_digest(std::string& fingerprint, const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  fingerprint += std::to_string(h) + "\n";
}

/// Closed-loop bookkeeping shared by the workloads.
class Loop {
 public:
  Loop(const Settings& settings, PassResult& result)
      : settings_(settings), result_(result) {}

  void open() {
    start_ = wall_now();
    cpu_start_ = process_cpu_now();
    main_cpu_start_ = thread_cpu_now();
  }
  /// True while another unit should run.
  bool more() const {
    if (settings_.fixed_units > 0) return done_ < settings_.fixed_units;
    return done_ == 0 || wall_now() - start_ < settings_.seconds;
  }
  void unit_done(double latency_s) {
    result_.unit_latency_s.push_back(latency_s);
    ++done_;
  }
  /// Take work done inside the window (output checks) out of its figures.
  void exclude(double wall_s, double cpu_s) {
    excluded_wall_ += wall_s;
    excluded_cpu_ += cpu_s;
  }
  void close() {
    result_.window_wall_s = wall_now() - start_ - excluded_wall_;
    result_.window_cpu_s = process_cpu_now() - cpu_start_ - excluded_cpu_;
    result_.window_main_cpu_s = thread_cpu_now() - main_cpu_start_;
    // Before any output check that follows the window can add to it.
    result_.peak_rss_mb = peak_rss_mb();
  }
  std::size_t done() const { return done_; }

 private:
  const Settings& settings_;
  PassResult& result_;
  double start_ = 0.0;
  double cpu_start_ = 0.0;
  double main_cpu_start_ = 0.0;
  double excluded_wall_ = 0.0;
  double excluded_cpu_ = 0.0;
  std::size_t done_ = 0;
};

void fail(PassResult& result, std::string what) {
  result.check_failures.push_back(std::move(what));
}

double relative_gap(double predicted, double observed) {
  return std::abs(predicted - observed) / observed;
}

// ---------------------------------------------------------------- campaign

constexpr int kCampaignExperiment = 11;

const gridsim::TableVExperiment& table_v_row(int number) {
  for (const auto& e : gridsim::table_v_experiments()) {
    if (e.number == number) return e;
  }
  throw std::runtime_error("no Table V row " + std::to_string(number));
}

/// One campaign over Table V experiment 11 with a fsync'd journal. Owns
/// everything the campaign's closures point into, so it never moves.
class CampaignRig {
 public:
  CampaignRig(std::uint64_t seed, std::size_t threads,
              const std::string& journal_path)
      : exp_(table_v_row(kCampaignExperiment)),
        wl_(workload::workload_spec(exp_.workload)),
        executor_(gridsim::make_experiment_environment(
            exp_, mix(seed, 0x7AB1E))),
        eval_(eval::EvalCache::kDefaultCapacity, cpu_count()),
        utility_(core::parse_utility("product")),
        seed_(seed) {
    core::Campaign::Options copts;
    copts.params.tur = wl_.mean_cpu;
    copts.params.tr = wl_.mean_cpu;
    copts.params.charging_period_r_s = exp_.ec2_reliable() ? 3600.0 : 1.0;
    copts.expert.repetitions = 10;
    copts.expert.frontier.service = &eval_;
    copts.expert.frontier.threads = threads;
    copts.history_window = 4;
    journal_.emplace(journal_path, copts);
    copts.recorder = journal_->recorder();
    campaign_.emplace(
        [this](const workload::Bot& bot,
               const strategies::StrategyConfig& strategy,
               std::uint64_t stream) {
          return executor_.run(bot, strategy, stream);
        },
        copts);
  }
  CampaignRig(const CampaignRig&) = delete;
  CampaignRig& operator=(const CampaignRig&) = delete;

  /// Generate BoT `index` and run it through the campaign.
  core::Campaign::BotReport run(std::size_t index) {
    std::optional<workload::Bot> bot;
    {
      Scope span("workload.make_bot");
      bot.emplace(workload::make_bot(exp_.workload, mix(seed_, index)));
    }
    return campaign_->run_bot(*bot, utility_);
  }

  std::uint64_t journal_bytes() const { return journal_->bytes(); }

 private:
  const gridsim::TableVExperiment& exp_;
  const workload::WorkloadSpec& wl_;
  gridsim::Executor executor_;
  eval::EvalService eval_;
  core::Utility utility_;
  std::uint64_t seed_;
  std::optional<resilience::CampaignJournal> journal_;
  std::optional<core::Campaign> campaign_;
};

/// Build a rig and run its bootstrap BoT, recording the set-up time
/// measured from `since`.
std::unique_ptr<CampaignRig> campaign_setup(const Settings& settings,
                                            std::size_t threads,
                                            const std::string& journal,
                                            double since, PassResult& result) {
  auto rig = std::make_unique<CampaignRig>(settings.seed, threads, journal);
  const auto boot = rig->run(0);
  if (boot.outcome == core::Campaign::BotOutcome::Quarantined) {
    fail(result, "campaign: bootstrap BoT quarantined");
  }
  result.setup_s.push_back(wall_now() - since);
  return rig;
}

/// Re-run the first `bots` BoTs (bootstrap included) at the same seed and
/// require the journal to equal the timed journal's prefix byte for byte.
void campaign_rerun_check(const Settings& settings, std::size_t threads,
                           std::size_t bots, const std::string& reference,
                           PassResult& result) {
  const std::string path = settings.work_dir + "/campaign-check-t" +
                           std::to_string(threads) + ".journal";
  {
    auto rig = campaign_setup(settings, threads, path, wall_now(), result);
    for (std::size_t i = 1; i < bots; ++i) rig->run(i);
  }
  const std::string bytes = read_file(path);
  if (bytes.empty() || bytes.size() > reference.size() ||
      reference.compare(0, bytes.size(), bytes) != 0) {
    fail(result, "campaign: journal of a re-run with threads=" +
                     std::to_string(threads) +
                     " differs from the timed run's journal");
  }
}

}  // namespace

PassResult run_campaign(const Settings& settings) {
  PassResult result;
  const std::string journal = settings.work_dir + "/campaign.journal";
  Loop loop(settings, result);
  {
    auto rig = campaign_setup(settings, 0, journal, kProcessStart, result);
    loop.open();
    std::size_t index = 1;
    while (loop.more()) {
      const double start = wall_now();
      core::Campaign::BotReport report;
      {
        Scope unit("campaign.bot", true);
        report = rig->run(index++);
      }
      loop.unit_done(wall_now() - start);
      ++result.attempted;
      if (report.outcome == core::Campaign::BotOutcome::Quarantined) {
        ++result.failed;
        continue;
      }
      if (report.predicted) {
        result.pred_dev.push_back(relative_gap(
            report.predicted->metrics.tail_makespan, report.tail_makespan));
      }
    }
    loop.close();
    result.extra.emplace_back("resilience.journal.bytes",
                              static_cast<double>(rig->journal_bytes()));
  }
  result.fingerprint = read_file(journal);
  if (settings.verify) {
    // Two planned BoTs on the default pool and one inline: enough to show
    // thread count and a second run leave the journal bytes unchanged while
    // keeping a run inside its time budget.
    campaign_rerun_check(settings, 0, std::min<std::size_t>(3, loop.done() + 1),
                          result.fingerprint, result);
    campaign_rerun_check(settings, 1, 2, result.fingerprint, result);
  }
  return result;
}

// ----------------------------------------------------------------- service

namespace {

constexpr std::size_t kActiveTenants = 4;
constexpr std::size_t kQueuedTenants = 4;
constexpr std::size_t kTenants = kActiveTenants + kQueuedTenants;
constexpr std::size_t kBotsPerTenant = 2;

service::TenantSpec tenant_spec(std::uint64_t session_seed, std::size_t i) {
  service::TenantSpec spec;
  spec.id = "t" + std::to_string(i);
  spec.seed = mix(session_seed, 100 + i);
  for (std::size_t b = 0; b < kBotsPerTenant; ++b) {
    spec.bots.push_back({150, mix(spec.seed, b)});
  }
  // A CPU triple of its own per tenant: 8 means 150 s apart, jittered by
  // the seed, with the spread of the stock tenant (0.4x .. 2.5x).
  spec.mean_cpu = 500.0 + 150.0 * static_cast<double>(i) +
                  static_cast<double>(mix(session_seed, i) % 100);
  spec.min_cpu = 0.4 * spec.mean_cpu;
  spec.max_cpu = 2.5 * spec.mean_cpu;
  spec.sampling_density = i % 2 == 0 ? 2 : 4;
  spec.repetitions = 3;
  return spec;
}

std::string directory_bytes(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  std::string out;
  for (const auto& f : files) out += f.substr(dir.size()) + "\n" + read_file(f);
  return out;
}

/// Set-up of one service session: construct the service over a fresh eval
/// layer and submit every tenant (4 fill the active slots, 4 the queue).
std::unique_ptr<service::CampaignService> service_setup(
    std::uint64_t session_seed, const std::string& state_dir,
    eval::EvalService& eval, service::CampaignService::BotObserver observer,
    PassResult& result) {
  fs::create_directories(state_dir);
  service::GridsimBackendOptions backend;
  backend.seed = session_seed;
  service::CampaignService::Options options;
  options.max_active_tenants = kActiveTenants;
  options.queue_capacity = kQueuedTenants;
  options.state_dir = state_dir;
  options.backend_factory = service::make_gridsim_backend_factory(backend);
  options.eval = &eval;
  options.on_bot_finished = std::move(observer);
  auto svc = std::make_unique<service::CampaignService>(std::move(options));
  for (std::size_t i = 0; i < kTenants; ++i) {
    Scope span("service.submit");
    const auto admission = svc->submit(tenant_spec(session_seed, i));
    if (!admission.admitted) {
      ++result.attempted;
      ++result.failed;
      fail(result, "service: tenant t" + std::to_string(i) + " shed: " +
                       admission.detail);
    }
  }
  return svc;
}

}  // namespace

PassResult run_service(const Settings& settings) {
  PassResult result;
  Loop loop(settings, result);
  std::uint64_t journal_bytes = 0;
  const std::size_t sessions_fixed =
      settings.fixed_units / (kTenants * kBotsPerTenant);
  for (std::size_t session = 0;
       session == 0 || (settings.fixed_units > 0 ? session < sessions_fixed
                                                 : loop.more());
       ++session) {
    const double setup_start = session == 0 ? kProcessStart : wall_now();
    const std::string state_dir =
        settings.work_dir + "/service-" + std::to_string(session);
    eval::EvalService eval(eval::EvalCache::kDefaultCapacity, cpu_count());
    double mark = 0.0;
    auto svc = service_setup(
        mix(settings.seed, session), state_dir, eval,
        [&](const std::string&, const core::Campaign::BotReport& report) {
          const double now = wall_now();
          loop.unit_done(now - mark);
          mark = now;
          ++result.attempted;
          if (report.outcome == core::Campaign::BotOutcome::Quarantined) {
            ++result.failed;
          } else if (report.predicted) {
            result.pred_dev.push_back(relative_gap(
                report.predicted->metrics.tail_makespan,
                report.tail_makespan));
          }
        },
        result);
    result.setup_s.push_back(wall_now() - setup_start);
    if (session == 0) loop.open();

    std::uint64_t steps = 0;
    bool more = true;
    while (more) {
      mark = wall_now();
      Scope unit("service.step", true);
      more = svc->step();
      ++steps;
    }

    const double check_start = wall_now();
    const double check_cpu = process_cpu_now();
    const auto& stats = svc->stats();
    if (stats.shed_total != 0 || stats.admitted != kTenants ||
        stats.bots_run != kTenants * kBotsPerTenant || stats.rounds != steps) {
      fail(result, "service: session " + std::to_string(session) +
                       " admitted " + std::to_string(stats.admitted) +
                       ", shed " + std::to_string(stats.shed_total) +
                       ", bots " + std::to_string(stats.bots_run) +
                       ", rounds " + std::to_string(stats.rounds) + " of " +
                       std::to_string(steps) + " steps");
    }
    for (const auto& tenant : svc->status()) {
      journal_bytes += tenant.journal_bytes;
      if (tenant.phase != service::TenantPhase::Completed) {
        ++result.failed;
        fail(result, "service: tenant " + tenant.id + " ended " +
                         service::to_string(tenant.phase));
      }
    }
    result.fingerprint += "rounds " + std::to_string(stats.rounds) + "\n";
    add_digest(result.fingerprint, directory_bytes(state_dir));
    loop.exclude(wall_now() - check_start, process_cpu_now() - check_cpu);
  }
  loop.close();
  result.extra.emplace_back("resilience.journal.bytes",
                            static_cast<double>(journal_bytes));

  // A session's set-up is milliseconds of fsync-bound work; repeat it (and
  // discard the services) so set-up time is a median over many.
  for (std::size_t repeat = 0; settings.verify && repeat < 8; ++repeat) {
    const double start = wall_now();
    eval::EvalService eval(eval::EvalCache::kDefaultCapacity, cpu_count());
    const auto svc = service_setup(
        mix(settings.seed, 1000 + repeat),
        settings.work_dir + "/setup-" + std::to_string(repeat), eval, {},
        result);
    result.setup_s.push_back(wall_now() - start);
  }
  return result;
}

// ------------------------------------------------------------------ replay

namespace {

struct Prediction {
  bool ok = false;
  double tail_makespan = 0.0;
};

/// The Table V recipe's simulated side: characterize the executed trace,
/// size the pool, and estimate the row's strategy.
Prediction predict(const trace::ExecutionTrace& real,
                   const gridsim::TableVExperiment& exp,
                   const workload::WorkloadSpec& wl,
                   const strategies::StrategyConfig& strategy,
                   core::ReliabilityMode mode, std::uint64_t seed) {
  core::CharacterizationOptions copts;
  copts.mode = mode;
  copts.instance_deadline = wl.deadline_d;
  copts.windows_per_epoch = 6;
  const auto checked = core::characterize_checked(real, copts);
  if (!checked.model) return {};

  core::EstimatorConfig cfg;
  cfg.unreliable_size = core::estimate_effective_size_iterative(
      real, *checked.model, wl.deadline_d);
  const auto reliable = real.successful_turnarounds(trace::PoolKind::Reliable);
  double tr = wl.mean_cpu;
  if (!reliable.empty()) {
    tr = 0.0;
    for (double t : reliable) tr += t;
    tr /= static_cast<double>(reliable.size());
  }
  cfg.tr = tr;
  cfg.cur_cents_per_s = 1.0 / 3600.0;
  cfg.cr_cents_per_s = 34.0 / 3600.0;
  cfg.charging_period_r_s = exp.ec2_reliable() ? 3600.0 : 1.0;
  cfg.throughput_deadline = wl.deadline_d;
  cfg.repetitions = 10;
  cfg.seed = 0x7AB1E5 + seed + static_cast<std::uint64_t>(exp.number);
  cfg.tail_tasks_override =
      std::max<std::size_t>(1, real.remaining_at(real.t_tail()));
  core::Estimator estimator(cfg, *checked.model);
  Scope span("core.estimator.estimate");
  const auto estimate = estimator.estimate(real.task_count(), strategy);
  return {estimate.mean.finished, estimate.mean.tail_makespan};
}

/// Worker seed: expert_cli parses --seed as a double, so keep it exact.
std::uint64_t replay_seed(std::uint64_t seed) { return seed % 1000000; }

/// One worker slot running `expert_cli worker` for Table V row `number`.
procexec::SupervisorOptions worker_options(const Settings& settings,
                                           int number, std::uint64_t seed) {
  procexec::SupervisorOptions options;
  options.workers = 1;
  options.worker_program = settings.worker_cli;
  options.worker_args = {"worker", "--experiment", std::to_string(number),
                         "--seed", std::to_string(seed)};
  return options;
}

}  // namespace

PassResult run_replay(const Settings& settings) {
  PassResult result;
  const auto& rows = gridsim::table_v_experiments();
  const std::uint64_t seed = replay_seed(settings.seed);
  if (::access(settings.worker_cli.c_str(), X_OK) != 0) {
    throw std::runtime_error("replay: worker binary not executable: " +
                             settings.worker_cli);
  }

  // Set-up: the in-process reference executor of every row, built as the
  // worker builds its own (expert_cli worker --experiment N --seed S), and a
  // probe that brings one worker up and round-trips a one-task BoT, so a
  // broken worker fails before the first row. Repeated, so set-up time is
  // reported as a median.
  std::vector<std::unique_ptr<gridsim::Executor>> reference;
  for (int repeat = 0; repeat < 15; ++repeat) {
    const double start = repeat == 0 ? kProcessStart : wall_now();
    reference.clear();
    for (const auto& exp : rows) {
      reference.push_back(std::make_unique<gridsim::Executor>(
          gridsim::make_experiment_environment(
              exp, 0x7AB1E + seed + static_cast<std::uint64_t>(exp.number))));
    }
    const auto& exp = rows.front();
    const workload::Bot probe(
        "probe", {{0, workload::workload_spec(exp.workload).mean_cpu}});
    procexec::ProcessPool pool(worker_options(settings, exp.number, seed));
    pool.run(probe, gridsim::make_experiment_strategy(exp), 0);
    result.setup_s.push_back(wall_now() - start);
  }

  std::uint64_t spawned = 0, restarts = 0;
  double roundtrip_s = 0.0, payload_bytes = 0.0;
  Loop loop(settings, result);
  loop.open();
  // Timed runs replay whole passes over Table V, so every run weighs the
  // rows alike; a traced run stops after its fixed unit count.
  for (std::size_t pass = 0; loop.more(); ++pass) {
    for (std::size_t row = 0;
         row < rows.size() && (settings.fixed_units == 0 || loop.more());
         ++row) {
      const auto& exp = rows[row];
      const auto& wl = workload::workload_spec(exp.workload);
      const auto strategy = gridsim::make_experiment_strategy(exp);
      const std::uint64_t stream = pass + 1;
      const double start = wall_now();
      ++result.attempted;
      bool ok = false;
      workload::Bot bot;
      std::optional<trace::ExecutionTrace> real;
      double process_wall_s = 0.0;
      {
        Scope unit("replay.row", true);
        {
          Scope span("workload.make_bot");
          bot = workload::make_bot(exp.workload,
                                   mix(settings.seed, pass * 100 + row));
        }
        {
          std::optional<procexec::ProcessPool> pool(
              std::in_place, worker_options(settings, exp.number, seed));
          try {
            Scope span("procexec.run");
            const double t0 = wall_now();
            real.emplace(pool->run(bot, strategy, stream));
            process_wall_s = wall_now() - t0;
          } catch (const procexec::WorkerFailure& e) {
            fail(result, "replay: row " + std::to_string(exp.number) +
                             " worker failed: " + e.what());
          }
          const auto stats = pool->stats();
          spawned += stats.spawned;
          restarts += stats.restarts;
          Scope span("procexec.shutdown");
          pool.reset();
        }
        if (real) {
          const auto offline = predict(*real, exp, wl, strategy,
                                       core::ReliabilityMode::Offline, seed);
          const auto online = predict(*real, exp, wl, strategy,
                                      core::ReliabilityMode::Online, seed);
          ok = offline.ok && online.ok;
          if (ok) {
            result.pred_dev.push_back(
                relative_gap(online.tail_makespan, real->tail_makespan()));
          } else {
            fail(result, "replay: row " + std::to_string(exp.number) +
                             " produced no prediction");
          }
        }
      }
      loop.unit_done(wall_now() - start);
      if (!ok) ++result.failed;
      if (!real) continue;

      // The worker's trace must be what an in-process run of the same
      // (bot, strategy, stream) produces, byte for byte after the wire
      // codec. Checked outside the timed window; traced passes skip it and
      // compare their traces with the untraced pass instead.
      const std::string response = procexec::encode_response(*real);
      add_digest(result.fingerprint, response);
      if (!settings.verify) continue;
      const double check_start = wall_now();
      const double check_cpu = process_cpu_now();
      const double local_start = wall_now();
      const auto local = reference[row]->run(bot, strategy, stream);
      roundtrip_s += process_wall_s - (wall_now() - local_start);
      payload_bytes += static_cast<double>(
          procexec::encode_request(bot, strategy, stream).size() +
          response.size());
      if (procexec::encode_response(local) != response) {
        ++result.failed;
        fail(result, "replay: row " + std::to_string(exp.number) +
                         " process trace differs from the in-process trace");
      }
      loop.exclude(wall_now() - check_start, process_cpu_now() - check_cpu);
    }
  }
  loop.close();
  result.extra.emplace_back("procexec.spawned", static_cast<double>(spawned));
  result.extra.emplace_back("procexec.restarts", static_cast<double>(restarts));
  if (settings.verify) {
    result.extra.emplace_back("procexec.xpf1_roundtrip.wall_s", roundtrip_s);
    result.extra.emplace_back("procexec.payload_bytes", payload_bytes);
  }
  return result;
}

std::size_t traced_units(const std::string& workload) {
  if (workload == "campaign") return 6;
  if (workload == "service") return 2 * kTenants * kBotsPerTenant;
  return 13;  // one pass over Table V
}

}  // namespace perfbench
