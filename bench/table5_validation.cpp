// Table V: simulator validation. Thirteen large-scale experiments, each
// applying a single strategy to a workload and resource-pool combination:
// the "real" side is the machine-level gridsim execution; the "simulated"
// side is the ExPERT Estimator fed by offline / online statistical
// characterization of the real trace (mean of 10 repetitions).
//
// Reported exactly like the paper: gamma, RI (reliable instances), TMS
// (tail-phase makespan), C (cost per task), and the relative deviations of
// the offline and online simulations. The paper's averages of absolute
// deviations are ~7-10% offline and about twice that online; ours should be
// the same order.

#include <cstdio>
#include <iostream>

#include "expert/core/estimator.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/obs/report.hpp"
#include "expert/stats/summary.hpp"
#include "expert/util/table.hpp"
#include "expert/workload/presets.hpp"

namespace {

using namespace expert;

struct SimDeviation {
  double tms_dev;
  double cost_dev;
};

SimDeviation simulate_side(const trace::ExecutionTrace& real,
                           const gridsim::TableVExperiment& exp,
                           const workload::WorkloadSpec& wl,
                           const strategies::StrategyConfig& strategy,
                           core::ReliabilityMode mode) {
  core::EstimatorConfig cfg;
  cfg.charging_period_r_s = exp.ec2_reliable() ? 3600.0 : 1.0;
  cfg.seed = 0x7AB1E5 + static_cast<std::uint64_t>(exp.number);
  const auto est = std::get<core::EstimateResult>(
      core::predict_execution(real, wl, strategy, mode, cfg));
  return {stats::relative_deviation(est.mean.tail_makespan,
                                    real.tail_makespan()),
          stats::relative_deviation(est.mean.cost_per_task_cents,
                                    real.cost_per_task_cents())};
}

}  // namespace

int main() {
  expert::obs::init_from_env();
  std::cout << "Table V: simulator validation — real (gridsim) vs simulated "
               "(ExPERT Estimator, offline/online)\n\n";

  util::Table table({"No.", "WL", "N", "l_ur", "gamma", "RI", "TMS[s]",
                     "C[c/task]", "dTMS off", "dC off", "dTMS on", "dC on"});

  stats::Accumulator abs_tms_off, abs_cost_off, abs_tms_on, abs_cost_on;
  stats::Accumulator gammas, ris, tmss, costs;

  for (const auto& exp : gridsim::table_v_experiments()) {
    const auto& wl = workload::workload_spec(exp.workload);
    const auto bot = workload::make_bot(
        exp.workload, 0xB07 + static_cast<std::uint64_t>(exp.number));

    const auto env = gridsim::make_experiment_environment(
        exp, 0x7AB1E + static_cast<std::uint64_t>(exp.number));
    gridsim::Executor executor(env);
    const auto strategy = gridsim::make_experiment_strategy(exp);
    const auto real = executor.run(bot, strategy);

    const auto offline = simulate_side(real, exp, wl, strategy,
                                       core::ReliabilityMode::Offline);
    const auto online = simulate_side(real, exp, wl, strategy,
                                      core::ReliabilityMode::Online);

    const double gamma = real.average_reliability();
    const auto ri = real.reliable_instances_sent();
    const double tms = real.tail_makespan();
    const double cost = real.cost_per_task_cents();

    gammas.add(gamma);
    ris.add(static_cast<double>(ri));
    tmss.add(tms);
    costs.add(cost);
    abs_tms_off.add(std::abs(offline.tms_dev));
    abs_cost_off.add(std::abs(offline.cost_dev));
    abs_tms_on.add(std::abs(online.tms_dev));
    abs_cost_on.add(std::abs(online.cost_dev));

    table.add_row({std::to_string(exp.number), wl.name,
                   exp.n.has_value() ? std::to_string(*exp.n) : "inf",
                   std::to_string(exp.unreliable_size), util::fmt(gamma, 3),
                   std::to_string(ri), util::fmt(tms, 0),
                   util::fmt(cost, 2), util::fmt_signed_pct(offline.tms_dev),
                   util::fmt_signed_pct(offline.cost_dev),
                   util::fmt_signed_pct(online.tms_dev),
                   util::fmt_signed_pct(online.cost_dev)});
  }

  table.print(std::cout);

  std::printf("\nAverages: gamma %.3f | RI %.0f | TMS %.0f s | C %.2f c/task\n",
              gammas.mean(), ris.mean(), tmss.mean(), costs.mean());
  std::printf("Mean |deviation| offline: TMS %.0f%%, C %.0f%%  "
              "(paper: 10%%, 7%%)\n",
              100.0 * abs_tms_off.mean(), 100.0 * abs_cost_off.mean());
  std::printf("Mean |deviation| online : TMS %.0f%%, C %.0f%%  "
              "(paper: 20%%, 13%%)\n",
              100.0 * abs_tms_on.mean(), 100.0 * abs_cost_on.mean());
  return 0;
}
