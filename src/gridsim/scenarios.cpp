#include "expert/gridsim/scenarios.hpp"

#include "expert/gridsim/presets.hpp"
#include "expert/util/assert.hpp"

namespace expert::gridsim {

namespace {

using UK = TableVExperiment::UnreliableKind;
using RK = TableVExperiment::ReliableKind;
using workload::WorkloadId;

std::vector<TableVExperiment> build_table_v() {
  // Rows of Table V ordered by decreasing average reliability. Rows 3 and
  // 5 ran the combined-pool CN-inf strategy (the 20 Tech/EC2 machines
  // supplement the WM pool); all other reliable pools are 20 machines.
  return {
      {1, WorkloadId::WL1, 0u, 202, UK::WM, RK::Tech, 0.995},
      {2, WorkloadId::WL1, 2u, 199, UK::WM, RK::Tech, 0.983},
      {3, WorkloadId::WL6, std::nullopt, 200, UK::WM, RK::TechCombined,
       0.981},
      {4, WorkloadId::WL3, 0u, 206, UK::WM, RK::Tech, 0.974},
      {5, WorkloadId::WL6, std::nullopt, 200, UK::WM, RK::EC2Combined, 0.970},
      {6, WorkloadId::WL5, std::nullopt, 201, UK::WM, RK::None, 0.942},
      {7, WorkloadId::WL1, 0u, 208, UK::WM, RK::Tech, 0.864},
      {8, WorkloadId::WL2, 1u, 208, UK::WM, RK::Tech, 0.857},
      {9, WorkloadId::WL1, 0u, 251, UK::OSGWM, RK::Tech, 0.853},
      {10, WorkloadId::WL7, 0u, 208, UK::WM, RK::EC2, 0.844},
      {11, WorkloadId::WL1, 0u, 200, UK::OSG, RK::Tech, 0.827},
      {12, WorkloadId::WL1, 0u, 200, UK::WM, RK::Tech, 0.788},
      {13, WorkloadId::WL4, 0u, 204, UK::WM, RK::Tech, 0.746},
  };
}

}  // namespace

const std::vector<TableVExperiment>& table_v_experiments() {
  static const auto experiments = build_table_v();
  return experiments;
}

ExecutorConfig make_experiment_environment(const TableVExperiment& exp,
                                           std::uint64_t seed) {
  const auto& wl = workload::workload_spec(exp.workload);
  PoolConfig unreliable;
  switch (exp.unreliable) {
    case UK::WM:
      unreliable = make_wm(exp.unreliable_size, exp.gamma, wl.mean_cpu);
      break;
    case UK::OSG:
      unreliable = make_osg(exp.unreliable_size, exp.gamma, wl.mean_cpu);
      break;
    case UK::OSGWM:
      unreliable = make_osg_wm(exp.unreliable_size, exp.gamma, wl.mean_cpu);
      break;
  }
  std::optional<PoolConfig> reliable;
  switch (exp.reliable) {
    case RK::None:
      break;
    case RK::Tech:
    case RK::TechCombined:
      reliable = make_tech(20);
      break;
    case RK::EC2:
    case RK::EC2Combined:
      reliable = make_ec2(20);
      break;
  }
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(unreliable, reliable);
  cfg.throughput_deadline = wl.deadline_d;
  cfg.seed = seed;
  return cfg;
}

strategies::StrategyConfig make_experiment_strategy(
    const TableVExperiment& exp) {
  const auto& wl = workload::workload_spec(exp.workload);
  strategies::NTDMr p;
  p.n = exp.n;
  p.timeout_t = wl.timeout_t;
  p.deadline_d = wl.deadline_d;
  p.mr = exp.reliable == RK::None
             ? 0.0
             : 20.0 / static_cast<double>(exp.unreliable_size);
  auto cfg = strategies::make_ntdmr_strategy(p);
  if (exp.combined()) {
    cfg.throughput = strategies::ThroughputPolicy::Combined;
    cfg.tail_mode = strategies::TailMode::Continue;
    cfg.name = "CN-inf";
  }
  return cfg;
}

}  // namespace expert::gridsim
