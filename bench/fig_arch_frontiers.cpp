// Architecture frontiers: one Pareto frontier per environment architecture
// (classic / spot / serverless / multi-region / volunteer), all calibrated
// to the Experiment 11 setting (50 grid machines, gamma 0.827, T_ur 2066 s,
// 150-task BoT). Not a paper figure — this is the seam's showcase: the same
// characterize -> estimate -> frontier pipeline runs unchanged over every
// architecture, and the environment content digest keeps their cached
// evaluations apart.
//
// Claims checked here:
//  * every architecture yields a non-empty frontier through the unchanged
//    pipeline;
//  * the five environment digests are pairwise distinct (so eval::EvalKey
//    can never serve one architecture's cached point to another);
//  * preemption causes are attributed: multi-region traces carry blackout
//    outcomes, spot traces carry out-of-bid evictions.

#include <cstdio>
#include <iostream>
#include <set>
#include <vector>

#include "common.hpp"
#include "expert/core/expert.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/util/table.hpp"
#include "expert/workload/presets.hpp"

int main() {
  expert::bench::init_observability();
  using namespace expert;

  const auto& wl = workload::workload_spec(workload::WorkloadId::WL1);

  util::Table table({"architecture", "env digest", "records", "blackout",
                     "out_of_bid", "timeout", "frontier pts",
                     "fastest tail-ms[s]", "min cost[c/task]"});
  std::set<std::uint64_t> digests;
  std::size_t nonempty_frontiers = 0;
  std::size_t multiregion_blackouts = 0;
  std::size_t spot_evictions = 0;

  for (const auto arch : gridsim::env::all_architectures()) {
    auto env = gridsim::env::make_reference_environment(
        arch, bench::kPoolSize, bench::kGamma11, bench::kTur);
    const std::uint64_t digest = env.digest();
    digests.insert(digest);

    // Real side: one machine-level BoT execution on the architecture,
    // under a replicating strategy so the cloud pool is exercised too.
    gridsim::ExecutorConfig cfg;
    cfg.environment = std::move(env);
    cfg.throughput_deadline = wl.deadline_d;
    cfg.seed = bench::kSeed;
    gridsim::Executor executor(cfg);
    strategies::NTDMr params;
    params.n = 3;
    params.timeout_t = wl.timeout_t;
    params.deadline_d = wl.deadline_d;
    params.mr = executor.config().environment.has_cloud() ? 0.4 : 0.0;
    const auto real = executor.run(
        workload::make_bot(workload::WorkloadId::WL1, 0xB07ULL),
        strategies::make_ntdmr_strategy(params), /*stream=*/1);

    std::size_t blackouts = 0, out_of_bid = 0, timeouts = 0;
    for (const auto& r : real.records()) {
      if (r.outcome == trace::InstanceOutcome::Blackout) ++blackouts;
      if (r.outcome == trace::InstanceOutcome::OutOfBid) ++out_of_bid;
      if (r.outcome == trace::InstanceOutcome::Timeout) ++timeouts;
    }
    if (arch == gridsim::env::Architecture::MultiRegion)
      multiregion_blackouts = blackouts;
    if (arch == gridsim::env::Architecture::Spot) spot_evictions = out_of_bid;

    // Predicted side: characterize the trace and build the frontier, with
    // the environment digest keying the cached evaluations.
    core::ExpertOptions options;
    options.repetitions = 5;
    options.environment_digest = digest;
    const auto expert_inst =
        core::Expert::from_history(real, bench::paper_params(), options);
    const auto result = expert_inst.build_frontier(bench::kBotTasks);
    const auto& frontier = result.frontier();
    if (!frontier.empty()) ++nonempty_frontiers;

    char digest_hex[32];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    table.add_row({gridsim::env::to_string(arch), digest_hex,
                   std::to_string(real.records().size()),
                   std::to_string(blackouts), std::to_string(out_of_bid),
                   std::to_string(timeouts), std::to_string(frontier.size()),
                   frontier.empty() ? "-" : util::fmt(frontier.front().makespan, 0),
                   frontier.empty() ? "-" : util::fmt(frontier.back().cost, 2)});
  }

  std::cout << "Architecture frontiers (Experiment 11 calibration, "
            << bench::kBotTasks << "-task BoT)\n\n";
  table.print(std::cout);

  const std::size_t arch_count = gridsim::env::all_architectures().size();
  std::printf("\nnon-empty frontiers : %zu/%zu\n", nonempty_frontiers,
              arch_count);
  std::printf("distinct digests    : %zu/%zu%s\n", digests.size(), arch_count,
              digests.size() == arch_count ? "" : "  <-- DIGEST COLLISION");
  std::printf("multi-region blackout preemptions : %zu\n",
              multiregion_blackouts);
  std::printf("spot out-of-bid evictions         : %zu\n", spot_evictions);
  return digests.size() == arch_count && nonempty_frontiers == arch_count
             ? 0
             : 1;
}
