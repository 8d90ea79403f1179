// Trace analysis: export an execution history to CSV, read it back, and
// characterize the unreliable pool from it — the workflow for users who
// bring their own BOINC/GridBoT-style logs instead of a live run.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "expert/core/characterization.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/util/atomic_write.hpp"
#include "expert/workload/presets.hpp"

int main(int argc, char** argv) {
  using namespace expert;

  const std::string path = argc > 1 ? argv[1] : "/tmp/expert_trace.csv";

  // Produce a history (stand-in for a real GridBoT log).
  const auto spec = workload::workload_spec(workload::WorkloadId::WL2);
  const auto bot = workload::make_bot(spec, 0x7ACE);
  gridsim::ExecutorConfig env;
  env.environment = gridsim::env::Environment::classic(
      gridsim::make_osg(150, 0.84, spec.mean_cpu), gridsim::make_tech(15));
  env.seed = 0x7777;
  gridsim::Executor executor(env);
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = spec.timeout_t;
  p.deadline_d = spec.deadline_d;
  p.mr = 0.1;
  const auto trace = executor.run(bot, strategies::make_ntdmr_strategy(p));

  // Export. Render to memory first so the file appears atomically — a
  // crash mid-export must not leave a torn CSV for the re-import below
  // (or a real analysis pipeline) to trip over.
  {
    std::ostringstream out;
    trace::write_csv(trace, out);
    util::atomic_write(path, out.str());
  }
  std::printf("wrote %zu instance records to %s\n", trace.records().size(),
              path.c_str());

  // Re-import and analyze.
  std::ifstream in(path);
  const auto loaded = trace::read_csv(in);
  std::printf("\ntrace summary\n");
  std::printf("  tasks              : %zu\n", loaded.task_count());
  std::printf("  makespan           : %0.0f s (tail: %0.0f s)\n",
              loaded.makespan(), loaded.tail_makespan());
  std::printf("  cost               : %.2f cent/task\n",
              loaded.cost_per_task_cents());
  std::printf("  reliable instances : %zu\n",
              loaded.reliable_instances_sent());
  std::printf("  avg reliability    : %.3f\n", loaded.average_reliability());

  for (auto mode : {core::ReliabilityMode::Offline,
                    core::ReliabilityMode::Online}) {
    core::CharacterizationOptions opts;
    opts.mode = mode;
    opts.instance_deadline = spec.deadline_d;
    const auto model = core::characterize(loaded, opts);
    std::printf("\n%s characterization\n",
                mode == core::ReliabilityMode::Offline ? "offline" : "online");
    std::printf("  Fs samples         : %zu\n", model.fs().size());
    std::printf("  mean turnaround    : %0.0f s\n",
                model.mean_successful_turnaround());
    std::printf("  mean gamma         : %.3f\n",
                model.gamma_model().mean_gamma());
    std::printf("  gamma at t' = inf  : %.3f\n", model.gamma(1.0e12));
  }
  std::printf("\nestimated effective pool size: %zu\n",
              core::estimate_effective_size(loaded));
  return 0;
}
