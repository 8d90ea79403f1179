#include "expert/eval/key.hpp"

#include "expert/util/hash.hpp"

namespace expert::eval {

namespace {

// Domain-separation salts for the three digests. sim feeds RNG streams,
// hi/lo form the 128-bit cache identity; distinct salts keep the three
// hash functions structurally independent even over identical inputs.
constexpr std::uint64_t kSimSalt = 0x51A7E57255EEDULL;
constexpr std::uint64_t kHiSalt = 0xCAC4EB175ULL;
constexpr std::uint64_t kLoSalt = 0xCAC4EB170ULL;

/// Mix the *stream inputs*: every EstimatorConfig field that changes a
/// single run's trajectory, the model content and the BoT size.
/// Deliberately excluded: the NTDMr (every candidate of a sweep shares one
/// stream, so repetition r draws the same throughput phase under every
/// strategy — common random numbers), `config.repetitions` (the key carries
/// the effective count separately, and the stream must not move when a
/// caller asks for more repetitions) and the objectives (pure
/// post-processing).
void mix_stream_inputs(util::HashState& h, const core::EstimatorConfig& config,
                       std::uint64_t model_digest, std::size_t task_count) {
  h.mix(static_cast<std::uint64_t>(config.unreliable_size))
      .mix(config.tr)
      .mix(config.cur_cents_per_s)
      .mix(config.cr_cents_per_s)
      .mix(config.charging_period_ur_s)
      .mix(config.charging_period_r_s)
      .mix(config.throughput_deadline)
      .mix(config.seed)
      .mix(static_cast<std::uint64_t>(config.tail_tasks_override))
      .mix(config.max_sim_time);
  // The environment digest is mixed only when set (0 = the classic pair).
  if (config.environment_digest != 0) {
    h.mix(std::uint64_t{0xE41FD16E57ULL}).mix(config.environment_digest);
  }
  h.mix(model_digest);
  h.mix(static_cast<std::uint64_t>(task_count));
}

}  // namespace

EvalKey make_eval_key(const core::EstimatorConfig& config,
                      std::uint64_t model_digest,
                      const strategies::NTDMr& params, std::size_t task_count,
                      std::size_t repetitions,
                      core::TimeObjective time_objective,
                      core::CostObjective cost_objective) {
  EvalKey key;

  util::HashState sim(kSimSalt);
  mix_stream_inputs(sim, config, model_digest, task_count);
  key.sim = sim.digest();

  // The cache identity covers everything that determines the aggregated
  // result: the stream inputs plus the strategy, repetition count and
  // objectives.
  // Two differently-salted halves give a 128-bit digest, making an
  // accidental collision (which would serve wrong metrics) negligible.
  util::HashState hi(kHiSalt);
  util::HashState lo(kLoSalt);
  for (util::HashState* h : {&hi, &lo}) {
    h->mix(key.sim)
        .mix(params.n.has_value())
        .mix(static_cast<std::uint64_t>(params.n.value_or(0)))
        .mix(params.timeout_t)
        .mix(params.deadline_d)
        .mix(params.mr)
        .mix(static_cast<std::uint64_t>(repetitions))
        .mix(static_cast<std::uint64_t>(time_objective))
        .mix(static_cast<std::uint64_t>(cost_objective));
  }
  key.hi = hi.digest();
  key.lo = lo.digest();
  key.model = model_digest;
  return key;
}

}  // namespace expert::eval
