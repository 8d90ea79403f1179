// expert_cli — command-line front end to the ExPERT framework.
//
//   expert_cli characterize --trace FILE [--mode online|offline]
//       [--deadline SECONDS]
//     Print the statistical characterization of an execution trace.
//
//   expert_cli frontier --trace FILE --tasks N [--reps R] [--csv]
//     Build the Pareto frontier for the next BoT from a history trace.
//
//   expert_cli recommend --trace FILE --tasks N --utility U [--reps R]
//     U: fastest | cheapest | product | budget:<cent/task> | deadline:<s>
//     Print the chosen N, T, D, Mr strategy string.
//
//   expert_cli simulate --strategy "N=3 T=2066 D=4132 Mr=0.02" --tasks N
//       [--pool L] [--gamma G] [--tur S] [--reps R]
//     Estimate makespan/cost of a strategy on a synthetic pool model.
//
//   expert_cli profile [--tasks N] [--pool L] [--gamma G] [--tur S]
//       [--reps R]
//     Run a synthetic frontier sweep with the tracer on and print the
//     self-time table: per span name, entries, self wall and self
//     thread-CPU time.
//
//   expert_cli execute [--experiment K] [--reps R] [--mode online|offline]
//       [--chaos PLAN] [--bots K] [--utility U] [--journal FILE] [--resume]
//       [--drift] [--backend-timeout S]
//     Run one Table V validation experiment machine-level (gridsim) and
//     compare against the Estimator's prediction. With --chaos, inject the
//     deterministic fault plan (see docs/robustness.md for the plan
//     grammar); with --bots K > 1, run a K-BoT campaign through the full
//     characterize -> recommend -> execute loop and report per-BoT
//     outcomes (completed / retried / quarantined) plus any degradation.
//     --journal FILE journals every finished BoT; --resume continues a
//     killed campaign from that journal, reproducing the uninterrupted
//     run's remaining BoTs exactly. --drift enables the online drift
//     detector; --backend-timeout S arms a wall-clock watchdog per backend
//     invocation. --backend process runs each BoT evaluation in a
//     supervised worker subprocess (--workers N slots; see
//     docs/process-backend.md); deterministic output is unchanged.
//
//   expert_cli serve --feed FILE|- [--state-dir DIR] [--resume] ...
//     Run the multi-tenant campaign service against a line-oriented feed
//     of submit/step/run/status/shutdown verbs: admission control with
//     bounded queueing and deterministic load shedding, deficit-round-
//     robin fair-share scheduling over the shared eval service, per-
//     tenant budgets, tenant-targeted chaos, and crash-safe resume from
//     --state-dir (see docs/service.md).
//
//   expert_cli worker [--experiment K] [--seed S] [--chaos PLAN] [--arch A]
//   expert_cli worker --synthetic --tenant ID [--machines L] [--gamma G]
//       [--reliable R] [--factory-seed S] [--mean-cpu S] [--tenant-seed S]
//       [--chaos PLAN]
//     Internal: the process the supervisor self-execs for --backend
//     process. Speaks the procexec wire protocol on fd 3; not for
//     interactive use. The first form rebuilds `execute`'s Table V
//     executor; with --synthetic, it rebuilds a serve tenant's
//     environment instead.
//
// Every command accepts --metrics-out=FILE and --trace-out=FILE to dump
// the run's metrics snapshot (JSON) and Chrome-trace spans, and --profile
// to print the span self-time table after the command finishes.

#include <unistd.h>

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>
#include <variant>

#include "expert/chaos/chaos.hpp"
#include "expert/core/campaign.hpp"
#include "expert/core/expert.hpp"
#include "expert/core/frontier.hpp"
#include "expert/core/frontier_io.hpp"
#include "expert/core/report.hpp"
#include "expert/core/sensitivity.hpp"
#include "expert/procexec/supervisor.hpp"
#include "expert/procexec/worker.hpp"
#include "expert/resilience/drift.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/resilience/serial.hpp"
#include "expert/resilience/watchdog.hpp"
#include "expert/service/feed.hpp"
#include "expert/service/service.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/eval/service.hpp"
#include "expert/obs/report.hpp"
#include "expert/strategies/parser.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/util/args.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/table.hpp"
#include "expert/workload/presets.hpp"

namespace {

using namespace expert;

int usage() {
  std::cerr <<
      "usage: expert_cli "
      "<characterize|frontier|recommend|simulate|execute|sensitivity|report"
      "|profile|serve> [options]\n"
      "  characterize --trace FILE [--mode online|offline] [--deadline S]\n"
      "  frontier     --trace FILE --tasks N [--reps R] [--csv]\n"
      "               [--out FILE] (persist frontier points as CSV)\n"
      "               [--arch A] (no --trace needed: synthesize the history\n"
      "               from one gridsim run of the reference environment)\n"
      "  recommend    --trace FILE --tasks N --utility U [--reps R]\n"
      "               U: fastest|cheapest|product|budget:<c/task>|"
      "deadline:<s>\n"
      "  simulate     --strategy STR --tasks N [--pool L] [--gamma G]\n"
      "               [--tur S] [--reps R]\n"
      "  execute      [--experiment 1..13] [--reps R] [--mode online|offline]\n"
      "               [--seed S] [--chaos PLAN] [--bots K] [--utility U]\n"
      "               PLAN e.g. 'blackouts=2,dispatch_fail=0.2,loss=0.05'\n"
      "               [--journal FILE] (journal each finished BoT)\n"
      "               [--resume] (continue a killed campaign from --journal)\n"
      "               [--drift] (online gamma/turnaround drift detection)\n"
      "               [--backend-timeout S] (wall-clock watchdog per BoT)\n"
      "               [--backend gridsim|process] [--workers N]\n"
      "               (process: evaluate each BoT in a supervised worker\n"
      "               subprocess; same bytes out as gridsim)\n"
      "               [--arch classic|spot|serverless|multiregion|volunteer]\n"
      "               (swap the experiment onto a reference environment\n"
      "               architecture; classic is the unchanged default)\n"
      "  serve        --feed FILE|- [--state-dir DIR] [--resume]\n"
      "               [--max-tenants N] [--queue N] [--quantum UNITS]\n"
      "               [--backend gridsim|process] [--workers N] [--seed S]\n"
      "               [--chaos 'id:plan;id2:plan'] [--kill-after-bots K]\n"
      "               (multi-tenant campaign service; feed verbs: submit,\n"
      "               step, run, status, shutdown — see docs/service.md)\n"
      "  worker       internal target of --backend process (wire protocol\n"
      "               on fd 3); never invoke by hand\n"
      "  profile      [--tasks N] [--pool L] [--gamma G] [--tur S] [--reps R]\n"
      "               (frontier sweep with the tracer on; prints the span\n"
      "               self-time table: self wall and self CPU per span)\n"
      "global: --metrics-out FILE (metrics JSON), --trace-out FILE\n"
      "        (Chrome trace JSON for chrome://tracing / Perfetto)\n"
      "        --eval-cache N (strategy-evaluation cache capacity in\n"
      "        entries; 0 disables caching)\n"
      "        --profile (print the span self-time table after the command)\n";
  return 2;
}

trace::ExecutionTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  EXPERT_REQUIRE(in.good(), "cannot open trace file: " + path);
  return trace::read_csv(in);
}

/// --mode, default online; any other value is a usage error.
core::ReliabilityMode reliability_mode(const util::Args& args) {
  const std::string mode = args.option_or("mode", "online");
  EXPERT_REQUIRE(mode == "online" || mode == "offline",
                 "--mode must be online or offline");
  return mode == "online" ? core::ReliabilityMode::Online
                          : core::ReliabilityMode::Offline;
}

core::ExpertOptions expert_options(const util::Args& args) {
  core::ExpertOptions options;
  options.repetitions =
      static_cast<std::size_t>(args.number_or("reps", 10.0));
  options.characterization.mode = reliability_mode(args);
  return options;
}

int cmd_characterize(const util::Args& args) {
  EXPERT_SPAN("cli.characterize");
  core::CharacterizationOptions opts;
  opts.mode = reliability_mode(args);
  const auto history = load_trace(args.required("trace"));
  opts.instance_deadline = args.number_or("deadline", 0.0);
  const auto checked = core::characterize_checked(history, opts);
  const auto& quality = checked.quality;

  util::Table table({"quantity", "value"});
  table.add_row({"records", std::to_string(history.records().size())});
  table.add_row({"tasks", std::to_string(history.task_count())});
  table.add_row({"T_tail [s]", util::fmt(history.t_tail(), 0)});
  table.add_row({"makespan [s]", util::fmt(history.makespan(), 0)});
  table.add_row({"truncated", history.truncated() ? "yes" : "no"});
  table.add_row({"cost [cent/task]",
                 util::fmt(history.cost_per_task_cents(), 3)});
  table.add_row({"pre-tail unreliable instances",
                 std::to_string(quality.unreliable_instances)});
  table.add_row({"observed successes",
                 std::to_string(quality.observed_successes)});
  table.add_row({"censored fraction",
                 util::fmt(quality.censored_fraction, 3)});
  table.add_row({"epoch-1 / epoch-2 samples",
                 std::to_string(quality.epoch1_instances) + " / " +
                     std::to_string(quality.epoch2_instances)});
  if (checked.model) {
    const auto& model = *checked.model;
    table.add_row({"Fs samples", std::to_string(model.fs().size())});
    table.add_row({"mean turnaround [s]",
                   util::fmt(model.mean_successful_turnaround(), 0)});
    table.add_row(
        {"mean gamma", util::fmt(model.gamma_model().mean_gamma(), 3)});
    table.add_row({"gamma (future sends)", util::fmt(model.gamma(1e15), 3)});
    table.add_row({"effective pool size (occupancy)",
                   std::to_string(core::estimate_effective_size(history))});
  } else {
    table.add_row({"degraded", core::to_string(*checked.degradation)});
  }
  table.print(std::cout);
  if (!checked.model) {
    std::cout << "history cannot support a model ("
              << core::to_string(*checked.degradation)
              << "); callers fall back to the bootstrap model\n";
    return 1;
  }
  return 0;
}

/// The Table V executor a command runs: the row named by --experiment,
/// seeded 0x7AB1E + --seed + row, with the --chaos plan and the --arch
/// reference environment applied. `frontier --arch`, `execute` and the
/// process worker all build their executor here, which is what keeps the
/// process backend byte-identical to the in-process one.
struct TableVSetup {
  const gridsim::TableVExperiment& exp;
  std::uint64_t seed;  ///< --seed
  gridsim::ExecutorConfig config;
  /// Content digest of a non-classic --arch environment for the eval key;
  /// 0 for classic, so every pre-seam key stays unchanged.
  std::uint64_t env_digest;
};

TableVSetup table_v_setup(const util::Args& args) {
  const int number = static_cast<int>(args.number_or("experiment", 11.0));
  const auto& rows = gridsim::table_v_experiments();  // row k at index k-1
  EXPERT_REQUIRE(number >= 1 && number <= static_cast<int>(rows.size()),
                 "--experiment must name a Table V row (1..13)");
  const auto& exp = rows[static_cast<std::size_t>(number - 1)];
  const auto seed = static_cast<std::uint64_t>(args.number_or("seed", 0.0));
  auto config = gridsim::make_experiment_environment(
      exp, 0x7AB1E + seed + static_cast<std::uint64_t>(number));
  if (const auto plan = args.option("chaos"))
    config.chaos = chaos::parse_chaos_plan(*plan);
  std::uint64_t env_digest = 0;
  const auto arch =
      gridsim::env::parse_architecture(args.option_or("arch", "classic"));
  if (arch != gridsim::env::Architecture::Classic) {
    config.environment = gridsim::env::make_reference_environment(
        arch, exp.unreliable_size, exp.gamma,
        workload::workload_spec(exp.workload).mean_cpu);
    env_digest = config.environment.digest();
  }
  return {exp, seed, std::move(config), env_digest};
}

int cmd_frontier(const util::Args& args) {
  EXPERT_SPAN("cli.frontier");
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  auto options = expert_options(args);
  trace::ExecutionTrace history;
  if (const auto path = args.option("trace")) {
    history = load_trace(*path);
  } else {
    // --arch without --trace: synthesize the history by executing one BoT
    // of the selected Table V experiment on the architecture's reference
    // environment, then characterize that trace exactly as a loaded one.
    EXPERT_REQUIRE(args.option("arch").has_value(),
                   "--trace is required (or pass --arch to synthesize one)");
    auto setup = table_v_setup(args);
    options.environment_digest = setup.env_digest;
    const gridsim::Executor executor(std::move(setup.config));
    const auto bot = workload::make_bot(
        setup.exp.workload,
        0xB07 + setup.seed + static_cast<std::uint64_t>(setup.exp.number));
    history = executor.run(bot, gridsim::make_experiment_strategy(setup.exp));
    std::cerr << "synthesized history: "
              << executor.config().environment.name() << ", "
              << history.records().size() << " records\n";
  }
  const auto expert =
      core::Expert::from_history(history, core::UserParams{}, options);
  const auto result = expert.build_frontier(tasks);

  if (const auto out = args.option("out")) {
    core::write_points_csv_file(result.frontier(), *out);
    std::cerr << "wrote " << result.frontier().size()
              << " frontier points to " << *out << "\n";
  }
  if (args.has_flag("csv")) {
    std::cout << "tail_makespan_s,cost_cents_per_task,n,t_s,d_s,mr\n";
    for (const auto& p : result.frontier()) {
      std::cout << p.makespan << ',' << p.cost << ','
                << (p.params.n ? std::to_string(*p.params.n) : "inf") << ','
                << p.params.timeout_t << ',' << p.params.deadline_d << ','
                << p.params.mr << '\n';
    }
    return 0;
  }
  util::Table table({"tail makespan [s]", "cost [cent/task]", "strategy"});
  for (const auto& p : result.frontier()) {
    table.add_row({util::fmt(p.makespan, 0), util::fmt(p.cost, 2),
                   p.params.to_string()});
  }
  table.print(std::cout);
  std::cout << "(" << result.sampled.size() << " strategies sampled; pool "
            << expert.unreliable_size() << " machines estimated)\n";
  return 0;
}

int cmd_recommend(const util::Args& args) {
  EXPERT_SPAN("cli.recommend");
  const auto history = load_trace(args.required("trace"));
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto utility = core::parse_utility(args.required("utility"));
  const auto expert = core::Expert::from_history(
      history, core::UserParams{}, expert_options(args));
  const auto rec = expert.recommend(tasks, utility);
  if (!rec) {
    std::cout << "no feasible strategy for utility '" << utility.name()
              << "'\n";
    return 1;
  }
  std::cout << rec->strategy.to_string() << "\n";
  std::cout << "predicted: tail makespan " << util::fmt(rec->predicted.makespan, 0)
            << " s, cost " << util::fmt(rec->predicted.cost, 2)
            << " cent/task\n";
  return 0;
}

int cmd_simulate(const util::Args& args) {
  EXPERT_SPAN("cli.simulate");
  const double tur = args.number_or("tur", 2066.0);
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto pool = static_cast<std::size_t>(args.number_or("pool", 50.0));
  const double gamma = args.number_or("gamma", 0.85);
  const auto strategy = strategies::parse_strategy(
      args.required("strategy"), tur, /*mr_max=*/1.0, tasks);

  core::UserParams params;
  params.tur = tur;
  params.tr = tur;
  auto cfg = core::EstimatorConfig::from_user_params(params, pool);
  cfg.repetitions = static_cast<std::size_t>(args.number_or("reps", 10.0));
  core::Estimator estimator(
      cfg, core::make_synthetic_model(tur, 0.15 * tur, 3.0 * tur, gamma));
  const auto est = estimator.estimate(tasks, strategy);

  util::Table table({"metric", "mean", "stddev"});
  table.add_row({"BoT makespan [s]", util::fmt(est.mean.makespan, 0),
                 util::fmt(est.stddev.makespan, 0)});
  table.add_row({"tail makespan [s]", util::fmt(est.mean.tail_makespan, 0),
                 util::fmt(est.stddev.tail_makespan, 0)});
  table.add_row({"cost [cent/task]",
                 util::fmt(est.mean.cost_per_task_cents, 3),
                 util::fmt(est.stddev.cost_per_task_cents, 3)});
  table.add_row({"reliable instances",
                 util::fmt(est.mean.reliable_instances_sent, 1),
                 util::fmt(est.stddev.reliable_instances_sent, 1)});
  table.add_row({"used Mr", util::fmt(est.mean.used_mr, 3),
                 util::fmt(est.stddev.used_mr, 3)});
  table.print(std::cout);
  return 0;
}

/// Canned workload for the self-time table: a full paper-style frontier
/// sweep over a synthetic pool model, routed through the shared eval
/// service so the frontier, eval batch, cache, estimator simulation and
/// aggregation spans all show up. main() turns the tracer on and prints
/// the table once this command's root span has closed.
int cmd_profile(const util::Args& args) {
  EXPERT_SPAN("cli.profile");
  const double tur = args.number_or("tur", 2066.0);
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 150.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks must be positive");
  const auto pool = static_cast<std::size_t>(args.number_or("pool", 50.0));
  const double gamma = args.number_or("gamma", 0.85);

  core::UserParams params;
  params.tur = tur;
  params.tr = tur;
  auto cfg = core::EstimatorConfig::from_user_params(params, pool);
  cfg.repetitions = static_cast<std::size_t>(args.number_or("reps", 5.0));
  core::Estimator estimator(
      cfg, core::make_synthetic_model(tur, 0.15 * tur, 3.0 * tur, gamma));

  core::SamplingSpec spec;
  spec.max_deadline = params.throughput_deadline();
  core::FrontierOptions fopts;
  fopts.consumer = "profile";
  const auto result = core::generate_frontier(estimator, tasks, spec, fopts);

  std::cout << "profiled " << result.sampled.size()
            << " strategy evaluations (" << cfg.repetitions
            << " repetitions each, " << tasks << " tasks, pool " << pool
            << ")\n";
  return 0;
}

int cmd_sensitivity(const util::Args& args) {
  EXPERT_SPAN("cli.sensitivity");
  const double tur = args.number_or("tur", 2066.0);
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto pool = static_cast<std::size_t>(args.number_or("pool", 50.0));
  const double gamma = args.number_or("gamma", 0.85);
  const auto strategy = strategies::parse_strategy(
      args.required("strategy"), tur, /*mr_max=*/1.0, tasks);
  EXPERT_REQUIRE(strategy.tail_mode == strategies::TailMode::NTDMrTail,
                 "sensitivity analysis needs an NTDMr strategy");

  core::UserParams params;
  params.tur = tur;
  params.tr = tur;
  const auto cfg = core::EstimatorConfig::from_user_params(params, pool);
  core::Estimator estimator(
      cfg, core::make_synthetic_model(tur, 0.15 * tur, 3.0 * tur, gamma));
  const auto report =
      core::analyze_sensitivity(estimator, tasks, strategy.ntdmr);

  std::cout << "base: tail makespan "
            << util::fmt(report.base.tail_makespan, 0) << " s, cost "
            << util::fmt(report.base.cost_per_task_cents, 2)
            << " cent/task\n\n";
  util::Table table({"parameter", "low", "high", "makespan elasticity",
                     "cost elasticity"});
  for (const auto& s : report.parameters) {
    table.add_row({s.parameter, util::fmt(s.low_value, 2),
                   util::fmt(s.high_value, 2),
                   util::fmt(s.makespan_elasticity, 2),
                   util::fmt(s.cost_elasticity, 2)});
  }
  table.print(std::cout);
  std::cout << "(elasticity: relative metric change per relative parameter "
               "change)\n";
  return 0;
}

int cmd_report(const util::Args& args) {
  EXPERT_SPAN("cli.report");
  const auto history = load_trace(args.required("trace"));
  const auto tasks = static_cast<std::size_t>(args.number_or("tasks", 0.0));
  EXPERT_REQUIRE(tasks > 0, "--tasks is required and must be positive");
  const auto options = expert_options(args);
  const core::UserParams params;
  const auto expert = core::Expert::from_history(history, params, options);
  const auto frontier = expert.build_frontier(tasks);

  core::ReportData data;
  data.title = "ExPERT report — " + args.required("trace");
  data.params = params;
  data.model = &expert.estimator().model();
  data.unreliable_size = expert.unreliable_size();
  data.frontier = &frontier;
  data.task_count = tasks;
  for (const auto& u :
       {core::Utility::fastest(), core::Utility::cheapest(),
        core::Utility::min_cost_makespan_product()}) {
    if (const auto rec = core::Expert::recommend(frontier, u)) {
      data.decisions.emplace_back(u.name(), *rec);
    }
  }
  std::cout << core::render_markdown_report(data);
  return 0;
}

std::string self_exe_path() {
  char buf[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  EXPERT_REQUIRE(n > 0, "cannot resolve /proc/self/exe for worker self-exec");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Internal subcommand the supervisor self-execs for --backend process.
/// Rebuilds the exact executor the in-process backend uses, through the
/// same table_v_setup (same experiment, seed, chaos plan and --arch), and
/// serves (bot, strategy, stream) requests over the wire protocol on fd 3
/// — which is what makes the process backend byte-identical to gridsim.
/// With --synthetic, the worker instead rebuilds a `serve` tenant's
/// synthetic environment via service::gridsim_executor_config — the same
/// function the in-process gridsim backend factory uses, so the two
/// backends stay byte-identical per tenant.
int cmd_worker(const util::Args& args) {
  if (args.has_flag("synthetic")) {
    service::GridsimBackendOptions gopts;
    gopts.unreliable_machines =
        static_cast<std::size_t>(args.number_or("machines", 40.0));
    gopts.gamma = args.number_or("gamma", 0.82);
    gopts.reliable_machines =
        static_cast<std::size_t>(args.number_or("reliable", 10.0));
    gopts.seed = static_cast<std::uint64_t>(
        args.number_or("factory-seed", static_cast<double>(gopts.seed)));
    service::TenantSpec spec;
    spec.id = args.required("tenant");
    spec.mean_cpu = args.number_or("mean-cpu", 1000.0);
    spec.seed =
        static_cast<std::uint64_t>(args.number_or("tenant-seed", 0.0));
    if (const auto plan = args.option("chaos")) {
      gopts.chaos.push_back({spec.id, chaos::parse_chaos_plan(*plan)});
    }
    gridsim::Executor executor(service::gridsim_executor_config(gopts, spec));
    return procexec::worker_main(
        [&executor](const workload::Bot& bot,
                    const strategies::StrategyConfig& strategy,
                    std::uint64_t stream) {
          return executor.run(bot, strategy, stream);
        });
  }
  const gridsim::Executor executor(table_v_setup(args).config);
  return procexec::worker_main(
      [&executor](const workload::Bot& bot,
                  const strategies::StrategyConfig& strategy,
                  std::uint64_t stream) {
        return executor.run(bot, strategy, stream);
      });
}

/// Extract the raw plan body for `target` from a targeted chaos option
/// ("a:plan;b:plan"), so a worker argv carries the tenant's plan text
/// verbatim (re-parsed in the worker into the identical ChaosConfig).
std::optional<std::string> chaos_body_for(const std::string& text,
                                          const std::string& target) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    entry = entry.substr(first, entry.find_last_not_of(" \t") - first + 1);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) continue;
    if (entry.substr(0, colon) == target) return entry.substr(colon + 1);
  }
  return std::nullopt;
}

/// Long-lived multi-tenant campaign service driven by a line-oriented
/// feed (see docs/service.md). Verbs: `submit <id> [fields...]`, `step`,
/// `run`, `status`, `shutdown`; blank lines and `#` comments are skipped.
int cmd_serve(const util::Args& args) {
  EXPERT_SPAN("cli.serve");
  const std::string feed = args.required("feed");
  std::ifstream file;
  std::istream* in = &std::cin;
  if (feed != "-") {
    file.open(feed);
    EXPERT_REQUIRE(file.good(), "cannot open feed file: " + feed);
    in = &file;
  }

  service::CampaignService::Options sopts;
  sopts.max_active_tenants =
      static_cast<std::size_t>(args.number_or("max-tenants", 4.0));
  sopts.queue_capacity =
      static_cast<std::size_t>(args.number_or("queue", 8.0));
  sopts.quantum_units =
      static_cast<std::uint64_t>(args.number_or("quantum", 2000.0));
  sopts.state_dir = args.option_or("state-dir", "");

  service::GridsimBackendOptions gopts;
  gopts.seed = static_cast<std::uint64_t>(
      args.number_or("seed", static_cast<double>(gopts.seed)));
  const std::string raw_chaos = args.option_or("chaos", "");
  if (!raw_chaos.empty()) {
    gopts.chaos = chaos::parse_targeted_plans(raw_chaos);
  }

  const std::string backend_kind = args.option_or("backend", "gridsim");
  EXPERT_REQUIRE(backend_kind == "gridsim" || backend_kind == "process",
                 "--backend must be gridsim or process");
  if (backend_kind == "gridsim") {
    sopts.backend_factory = service::make_gridsim_backend_factory(gopts);
  } else {
    // Each tenant gets its own supervised worker pool; the factory closure
    // owns the pool via shared_ptr so the backend is self-contained.
    const int workers = static_cast<int>(args.number_or("workers", 1.0));
    const std::string self = self_exe_path();
    sopts.backend_factory =
        [gopts, workers, raw_chaos, self](const service::TenantSpec& spec)
        -> core::Campaign::Backend {
      procexec::SupervisorOptions popts;
      popts.workers = workers;
      popts.worker_program = self;
      popts.worker_args = {
          "worker", "--synthetic", "--tenant", spec.id,
          "--machines", std::to_string(gopts.unreliable_machines),
          "--gamma", resilience::serial::fmt_double(gopts.gamma),
          "--reliable", std::to_string(gopts.reliable_machines),
          "--factory-seed", std::to_string(gopts.seed),
          "--mean-cpu", resilience::serial::fmt_double(spec.mean_cpu),
          "--tenant-seed", std::to_string(spec.seed)};
      if (const auto body = chaos_body_for(raw_chaos, spec.id)) {
        popts.worker_args.push_back("--chaos");
        popts.worker_args.push_back(*body);
      }
      auto pool = std::make_shared<procexec::ProcessPool>(std::move(popts));
      return [pool](const workload::Bot& bot,
                    const strategies::StrategyConfig& strategy,
                    std::uint64_t stream) {
        return pool->run(bot, strategy, stream);
      };
    };
  }

  // Crash harness hook: SIGKILL after the K-th finished BoT, service-wide.
  // Per-BoT progress goes to stderr so stdout stays comparable across
  // interrupted-and-resumed and uninterrupted runs.
  const auto kill_after =
      static_cast<std::size_t>(args.number_or("kill-after-bots", 0.0));
  auto finished = std::make_shared<std::size_t>(0);
  sopts.on_bot_finished =
      [kill_after, finished](const std::string& id,
                             const core::Campaign::BotReport& report) {
        std::cerr << "tenant " << id << ": bot "
                  << core::to_string(report.outcome) << "\n";
        if (kill_after > 0 && ++*finished == kill_after) {
          std::raise(SIGKILL);
        }
      };

  auto build = [&]() -> service::CampaignService {
    if (args.has_flag("resume")) {
      return service::CampaignService::resume(sopts);
    }
    return service::CampaignService(sopts);
  };
  service::CampaignService svc = build();
  if (args.has_flag("resume")) {
    std::cerr << "resumed " << svc.status().size() << " tenant(s) from "
              << sopts.state_dir << "\n";
  }

  service::run_feed(*in, svc, std::cout);

  const auto& stats = svc.stats();
  std::cout << "service: admitted=" << stats.admitted
            << " shed=" << stats.shed_total << " rounds=" << stats.rounds
            << " bots=" << stats.bots_run << "\n";
  for (std::size_t i = 0; i < service::kShedReasonCount; ++i) {
    if (stats.shed[i] > 0) {
      std::cout << "  shed " << service::to_string(
                       static_cast<service::ShedReason>(i))
                << "=" << stats.shed[i] << "\n";
    }
  }
  service::print_status(svc, std::cout);
  return 0;
}

/// Campaign mode of `execute`: K BoTs through the full
/// characterize -> recommend -> execute loop, with per-BoT outcome and
/// degradation reporting — the chaos-facing face of the pipeline.
int run_campaign(const util::Args& args, TableVSetup setup,
                 std::size_t bots) {
  const auto& exp = setup.exp;
  const auto& wl = workload::workload_spec(exp.workload);
  const gridsim::Executor executor(std::move(setup.config));

  core::Campaign::Options copts;
  copts.params.tur = wl.mean_cpu;
  copts.params.tr = wl.mean_cpu;
  copts.params.charging_period_r_s = exp.ec2_reliable() ? 3600.0 : 1.0;
  copts.expert = expert_options(args);
  copts.expert.repetitions =
      static_cast<std::size_t>(args.number_or("reps", 5.0));
  copts.expert.environment_digest = setup.env_digest;
  // A finite N needs the guaranteed (N+1)-th reliable instance (paper
  // §III), which the executor refuses without reliable machines: a
  // pure-grid campaign samples N = inf only.
  if (!executor.config().environment.has_cloud())
    copts.expert.sampling.n_values = {std::nullopt};
  const auto utility = core::parse_utility(args.option_or("utility", "product"));

  const std::string backend_kind = args.option_or("backend", "gridsim");
  EXPERT_REQUIRE(backend_kind == "gridsim" || backend_kind == "process",
                 "--backend must be gridsim or process");
  std::unique_ptr<procexec::ProcessPool> pool;
  core::Campaign::Backend backend;
  if (backend_kind == "process") {
    procexec::SupervisorOptions popts;
    popts.workers = static_cast<int>(args.number_or("workers", 1.0));
    popts.worker_program = self_exe_path();
    popts.worker_args = {"worker", "--experiment", std::to_string(exp.number),
                         "--seed", std::to_string(setup.seed)};
    for (const std::string flag : {"chaos", "arch"}) {
      if (const auto value = args.option(flag))
        popts.worker_args.insert(popts.worker_args.end(),
                                 {"--" + flag, *value});
    }
    pool = std::make_unique<procexec::ProcessPool>(std::move(popts));
    backend = pool->backend();
  } else {
    backend = [&executor](const workload::Bot& bot,
                          const strategies::StrategyConfig& strategy,
                          std::uint64_t stream) {
      return executor.run(bot, strategy, stream);
    };
  }
  const double backend_timeout = args.number_or("backend-timeout", 0.0);
  if (backend_timeout > 0.0) {
    resilience::WatchdogOptions wopts;
    wopts.timeout_s = backend_timeout;
    // With the process backend a timeout must *kill* the runaway worker,
    // not just abandon the thread waiting on it: the SIGKILL unblocks the
    // abandoned thread via the worker's EOF and the child is reaped.
    if (pool != nullptr) {
      wopts.on_timeout = [p = pool.get()] { p->kill_inflight(); };
    }
    backend = resilience::with_watchdog(std::move(backend), std::move(wopts));
  }

  std::shared_ptr<resilience::DriftDetector> detector;
  if (args.has_flag("drift")) {
    detector = std::make_shared<resilience::DriftDetector>();
    copts.drift_monitor = resilience::make_drift_monitor(
        detector, &eval::EvalService::global().cache());
  }

  // Journal / resume. Resume chatter goes to stderr so a resumed campaign's
  // stdout stays byte-identical to the uninterrupted run's.
  const auto journal_path = args.option("journal");
  EXPERT_REQUIRE(!args.has_flag("resume") || journal_path.has_value(),
                 "--resume requires --journal FILE");
  std::optional<resilience::CampaignJournal> journal;
  std::optional<core::Campaign> campaign;
  std::size_t resumed = 0;
  if (journal_path && args.has_flag("resume")) {
    auto recovered = resilience::recover_campaign(*journal_path, copts);
    if (recovered.torn_tail)
      std::cerr << "journal: dropped a torn trailing record\n";
    if (detector) {
      // Replay the detector's pure fold over the recovered records so its
      // state matches the uninterrupted run's at this point.
      for (const auto& rec : recovered.records) {
        if (rec.history) detector->observe_bot(rec.report, *rec.history);
      }
    }
    resumed = recovered.state.reports.size();
    std::cerr << "resumed " << resumed << " BoTs from journal "
              << *journal_path << "\n";
    journal.emplace(resilience::CampaignJournal::reopen(*journal_path, copts));
    copts.recorder = journal->recorder();
    campaign.emplace(core::Campaign::resume(backend, copts,
                                            std::move(recovered.state)));
  } else if (journal_path) {
    journal.emplace(*journal_path, copts);
    copts.recorder = journal->recorder();
    campaign.emplace(backend, copts);
  } else {
    campaign.emplace(backend, copts);
  }

  // Test hook for the crash/resume harness: die the hard way (SIGKILL,
  // nothing flushed beyond what the journal already fsynced) right after
  // the K-th BoT completes. Chaos kill_at cannot serve this role for the
  // process backend — there it kills the *worker*, which the supervisor
  // absorbs as a retried attempt.
  const auto kill_after =
      static_cast<std::size_t>(args.number_or("kill-after-bots", 0.0));

  util::Table table({"bot", "strategy", "outcome", "makespan [s]",
                     "cost [c/task]", "degradation"});
  for (std::size_t i = 0; i < bots; ++i) {
    const core::Campaign::BotReport* report = nullptr;
    if (i < resumed) {
      report = &campaign->reports()[i];
    } else {
      const auto bot = workload::make_bot(exp.workload, 0xB07 + setup.seed + i);
      campaign->run_bot(bot, utility);
      report = &campaign->reports().back();
      if (kill_after > 0 && i + 1 == kill_after) std::raise(SIGKILL);
    }
    std::string outcome = core::to_string(report->outcome);
    if (report->retries > 0)
      outcome += " (x" + std::to_string(report->retries) + " retry)";
    if (report->truncated) outcome += " [truncated]";
    const bool ran =
        report->outcome != core::Campaign::BotOutcome::Quarantined;
    table.add_row(
        {std::to_string(i + 1), report->strategy.name, outcome,
         ran ? util::fmt(report->makespan, 0) : "-",
         ran ? util::fmt(report->cost_per_task_cents, 3) : "-",
         report->degradation ? core::to_string(*report->degradation) : "-"});
  }
  table.print(std::cout);
  if (const auto& plan = executor.config().chaos; plan && plan->any())
    std::cout << "chaos plan: " << plan->to_string() << "\n";
  if (detector != nullptr && detector->trips() > 0)
    std::cout << "drift: " << detector->trips()
              << " trip(s); history re-characterized from post-drift "
                 "traces only\n";
  std::cout << campaign->completed_bots() - campaign->quarantined_bots()
            << "/" << bots << " BoTs completed, "
            << campaign->quarantined_bots() << " quarantined\n";
  // Re-planning across BoTs repeats many strategy evaluations whenever the
  // history window (and so the model) is stable; show how much the shared
  // evaluation cache absorbed.
  const auto cache = eval::EvalService::global().cache().stats();
  const std::uint64_t lookups = cache.hits + cache.misses;
  std::cout << "eval cache: " << cache.hits << "/" << lookups
            << " lookups served";
  if (lookups > 0)
    std::cout << " (" << util::fmt(100.0 * static_cast<double>(cache.hits) /
                                       static_cast<double>(lookups),
                                   1)
              << "% hit rate)";
  std::cout << "\n";
  return 0;
}

int cmd_execute(const util::Args& args) {
  EXPERT_SPAN("cli.execute");
  auto setup = table_v_setup(args);
  const auto& exp = setup.exp;
  const auto bots = static_cast<std::size_t>(args.number_or("bots", 1.0));
  if (bots > 1) return run_campaign(args, std::move(setup), bots);
  EXPERT_REQUIRE(args.option_or("backend", "gridsim") == "gridsim",
                 "--backend process needs a campaign (--bots > 1)");
  const auto options = expert_options(args);

  // Real side: machine-level execution of the experiment's strategy.
  const auto& wl = workload::workload_spec(exp.workload);
  const auto number = static_cast<std::uint64_t>(exp.number);
  const auto bot =
      workload::make_bot(exp.workload, 0xB07 + setup.seed + number);
  const gridsim::Executor executor(std::move(setup.config));
  const auto strategy = gridsim::make_experiment_strategy(exp);
  const auto real = executor.run(bot, strategy);
  if (real.truncated())
    std::cout << "note: run truncated at the simulation horizon ("
              << util::fmt(executor.config().max_sim_time, 0) << " s)\n";

  // Simulated side: the Table V validation recipe on the real trace.
  core::EstimatorConfig cfg;
  cfg.charging_period_r_s = exp.ec2_reliable() ? 3600.0 : 1.0;
  cfg.repetitions = options.repetitions;
  cfg.seed = 0x7AB1E5 + setup.seed + number;
  cfg.environment_digest = setup.env_digest;
  const auto prediction = core::predict_execution(
      real, wl, strategy, options.characterization.mode, cfg);
  if (const auto* why = std::get_if<core::DegradationReason>(&prediction)) {
    std::cout << "prediction skipped — trace cannot support a model ("
              << core::to_string(*why) << ")\n";
    return 0;
  }
  const auto& est = std::get<core::EstimateResult>(prediction);

  std::cout << "experiment " << exp.number << ": " << wl.name << ", N="
            << (exp.n ? std::to_string(*exp.n) : "inf") << ", pool "
            << exp.unreliable_size << " unreliable machines\n";
  util::Table table({"metric", "real (gridsim)",
                     "predicted (" + args.option_or("mode", "online") + ")"});
  table.add_row({"average reliability",
                 util::fmt(real.average_reliability(), 3), "-"});
  table.add_row({"reliable instances",
                 std::to_string(real.reliable_instances_sent()),
                 util::fmt(est.mean.reliable_instances_sent, 1)});
  table.add_row({"tail makespan [s]", util::fmt(real.tail_makespan(), 0),
                 util::fmt(est.mean.tail_makespan, 0)});
  table.add_row({"cost [cent/task]",
                 util::fmt(real.cost_per_task_cents(), 3),
                 util::fmt(est.mean.cost_per_task_cents, 3)});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(
      argc, argv,
      {"trace", "tasks", "utility", "reps", "mode", "deadline", "strategy",
       "pool", "gamma", "tur", "experiment", "seed", "chaos", "bots", "arch",
       "eval-cache", "metrics-out", "trace-out", "journal",
       "backend-timeout", "backend", "workers", "kill-after-bots", "out",
       "feed", "state-dir", "max-tenants", "queue", "quantum", "machines",
       "reliable", "factory-seed", "mean-cpu", "tenant-seed", "tenant"},
      {"csv", "resume", "drift", "profile", "synthetic"});
  try {
    if (!args.unknown_options().empty()) {
      std::cerr << "unknown option --" << args.unknown_options().front()
                << "\n";
      return usage();
    }
    const auto command = args.command();
    if (!command) return usage();

    const auto metrics_out = args.option("metrics-out");
    const auto trace_out = args.option("trace-out");
    const bool profile = args.has_flag("profile") || *command == "profile";
    if (metrics_out) obs::Registry::global().set_enabled(true);
    if (trace_out || profile) obs::Tracer::global().set_enabled(true);
    if (args.option("eval-cache")) {
      eval::EvalService::global().cache().set_capacity(
          static_cast<std::size_t>(args.number_or("eval-cache", 0.0)));
    }

    int rc = -1;
    if (*command == "characterize") rc = cmd_characterize(args);
    else if (*command == "frontier") rc = cmd_frontier(args);
    else if (*command == "recommend") rc = cmd_recommend(args);
    else if (*command == "report") rc = cmd_report(args);
    else if (*command == "sensitivity") rc = cmd_sensitivity(args);
    else if (*command == "simulate") rc = cmd_simulate(args);
    else if (*command == "execute") rc = cmd_execute(args);
    else if (*command == "profile") rc = cmd_profile(args);
    else if (*command == "serve") rc = cmd_serve(args);
    else if (*command == "worker") rc = cmd_worker(args);
    else return usage();

    if (profile) {
      std::cout << "\nself time by span:\n";
      obs::Tracer::global().write_self_time_table(std::cout);
    }
    if (metrics_out) {
      // The obs.span.* gauges, whenever spans were recorded this run.
      if (obs::Tracer::global().enabled()) {
        obs::Tracer::global().publish(obs::Registry::global());
      }
      obs::write_metrics_file(*metrics_out);
    }
    if (trace_out) obs::write_trace_file(*trace_out);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
