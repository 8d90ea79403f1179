#include "expert/workload/presets.hpp"

#include "expert/obs/tracing.hpp"
#include "expert/stats/distributions.hpp"
#include "expert/util/assert.hpp"

namespace expert::workload {

namespace {

std::array<WorkloadSpec, kWorkloadCount> build_specs() {
  // Table III, with the WL5–WL7 (min, average, max) reading normalized to
  // (mean, min, max); see the header comment.
  return {{
      {"WL1", 820, 2500.0, 4000.0, 1597.0, 1019.0, 3558.0},
      {"WL2", 820, 1700.0, 4000.0, 1597.0, 1019.0, 3558.0},
      {"WL3", 3276, 5000.0, 8000.0, 1911.0, 1484.0, 6435.0},
      {"WL4", 3276, 3000.0, 5000.0, 2232.0, 1643.0, 4517.0},
      {"WL5", 615, 4000.0, 6000.0, 1571.0, 878.0, 4947.0},
      {"WL6", 615, 4000.0, 4000.0, 1512.0, 729.0, 3534.0},
      {"WL7", 615, 2500.0, 4000.0, 1542.0, 987.0, 3250.0},
  }};
}

}  // namespace

const std::array<WorkloadSpec, kWorkloadCount>& all_workload_specs() {
  static const auto specs = build_specs();
  return specs;
}

const WorkloadSpec& workload_spec(WorkloadId id) {
  const auto idx = static_cast<std::size_t>(id);
  EXPERT_REQUIRE(idx < kWorkloadCount, "unknown workload id");
  return all_workload_specs()[idx];
}

Bot make_synthetic_bot(std::string name, std::size_t task_count,
                       double mean_cpu, double min_cpu, double max_cpu,
                       std::uint64_t seed) {
  EXPERT_SPAN("workload.make_bot");
  EXPERT_REQUIRE(task_count > 0, "BoT must have at least one task");
  const auto dist =
      stats::TruncatedLognormal::from_stats(mean_cpu, min_cpu, max_cpu);
  util::Rng rng(seed);
  std::vector<Task> tasks;
  tasks.reserve(task_count);
  for (std::size_t i = 0; i < task_count; ++i) {
    tasks.push_back(Task{static_cast<TaskId>(i), dist.sample(rng)});
  }
  return Bot(std::move(name), std::move(tasks));
}

Bot make_bot(const WorkloadSpec& spec, std::uint64_t seed) {
  return make_synthetic_bot(spec.name, spec.task_count, spec.mean_cpu,
                            spec.min_cpu, spec.max_cpu, seed);
}

Bot make_bot(WorkloadId id, std::uint64_t seed) {
  return make_bot(workload_spec(id), seed);
}

}  // namespace expert::workload
