// Figure 5: CDF of single-result turnaround time. Paper input:
// Experiment 11 (workload WL1 on OSG, reliable pool Tech, gamma ~ 0.827).
//
// Runs the machine-level simulator to produce a real-style history, then
// prints the empirical CDF of successful-result turnaround times — the
// curve ExPERT feeds into the Estimator.

#include <cstdio>
#include <iostream>

#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/stats/ecdf.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/workload/presets.hpp"

int main() {
  using namespace expert;

  const auto spec = workload::workload_spec(workload::WorkloadId::WL1);
  const auto bot = workload::make_bot(spec, 0xF15);

  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_osg(200, /*gamma=*/0.827, spec.mean_cpu),
      gridsim::make_tech(20));
  cfg.seed = 0xF15005;
  gridsim::Executor executor(cfg);

  strategies::NTDMr params;
  params.n = 0;
  params.timeout_t = spec.timeout_t;
  params.deadline_d = spec.deadline_d;
  params.mr = 0.1;
  const auto trace =
      executor.run(bot, strategies::make_ntdmr_strategy(params));

  const auto turnarounds =
      trace.successful_turnarounds(trace::PoolKind::Unreliable);
  stats::EmpiricalCdf cdf(turnarounds);

  std::cout << "Figure 5: CDF of single-result turnaround time "
               "(Experiment 11 analog)\n";
  std::cout << "Workload WL1 (" << bot.size() << " tasks) on OSG, "
            << turnarounds.size() << " successful results, observed gamma = ";
  std::printf("%.3f\n\n", trace.average_reliability());

  std::cout << "turnaround[s]  P(T <= t)\n";
  for (double t = 0.0; t <= 6000.0; t += 250.0) {
    const double p = cdf.cdf(t);
    const int bar = static_cast<int>(p * 50);
    std::printf("%12.0f   %6.3f |%s\n", t, p,
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }

  std::printf("\nmean turnaround : %7.0f s (paper T_ur: 2066 s scale)\n",
              cdf.mean());
  std::printf("median          : %7.0f s\n", cdf.quantile(0.5));
  std::printf("90th percentile : %7.0f s\n", cdf.quantile(0.9));
  std::printf("max observed    : %7.0f s\n", cdf.max());
  return 0;
}
