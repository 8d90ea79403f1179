#include "expert/resilience/serial.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "expert/util/assert.hpp"

namespace expert::resilience::serial {

namespace {
using core::Campaign;
using core::DegradationReason;
}  // namespace

std::string fmt_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

std::string fmt_u64(std::uint64_t value) {
  return std::to_string(static_cast<unsigned long long>(value));
}

std::string fmt_hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '%': out += "%25"; break;
      case ' ': out += "%20"; break;
      case ',': out += "%2C"; break;
      case '\n': out += "%0A"; break;
      default: out += c;
    }
  }
  return out;
}

double parse_double(const std::string& text) {
  EXPERT_REQUIRE(!text.empty(), "serial: empty number");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  EXPERT_REQUIRE(end == text.c_str() + text.size(),
                 "serial: bad number '" + text + "'");
  return value;
}

std::uint64_t parse_u64(const std::string& text, int base) {
  // from_chars takes digits only: no sign, no whitespace, no 0x prefix.
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  EXPERT_REQUIRE(ec == std::errc() && ptr == end,
                 "serial: bad integer '" + text + "'");
  return value;
}

std::string unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%') {
      EXPERT_REQUIRE(i + 2 < text.size(), "serial: truncated escape");
      const std::string hex = text.substr(i + 1, 2);
      out += static_cast<char>(parse_u64(hex, 16));
      i += 2;
    } else {
      out += text[i];
    }
  }
  return out;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

DegradationReason degradation_from_string(const std::string& name) {
  constexpr DegradationReason kAll[] = {
      DegradationReason::NoHistory,
      DegradationReason::NoThroughputPhase,
      DegradationReason::NoUnreliableInstances,
      DegradationReason::NoObservedSuccesses,
      DegradationReason::InsufficientSamples,
      DegradationReason::CharacterizationError,
      DegradationReason::RecommendationInfeasible,
      DegradationReason::BackendFailure,
      DegradationReason::HorizonTruncated,
      DegradationReason::ModelDrift,
  };
  for (const DegradationReason r : kAll) {
    if (name == core::to_string(r)) return r;
  }
  EXPERT_REQUIRE(false, "serial: unknown degradation '" + name + "'");
  return DegradationReason::NoHistory;  // unreachable
}

Campaign::BotOutcome outcome_from_string(const std::string& name) {
  constexpr Campaign::BotOutcome kAll[] = {
      Campaign::BotOutcome::Completed,
      Campaign::BotOutcome::CompletedAfterRetry,
      Campaign::BotOutcome::Quarantined,
  };
  for (const Campaign::BotOutcome o : kAll) {
    if (name == core::to_string(o)) return o;
  }
  EXPERT_REQUIRE(false, "serial: unknown outcome '" + name + "'");
  return Campaign::BotOutcome::Completed;  // unreachable
}

namespace {

std::string n_to_text(const std::optional<unsigned>& n) {
  return n.has_value() ? fmt_u64(*n) : "inf";
}

/// A field the encoder wrote from a `T` no larger than `max`: an integer
/// type's maximum, or an enum's last enumerator.
template <typename T>
T parse_bounded(const std::string& text, T max) {
  const std::uint64_t value = parse_u64(text);
  EXPERT_REQUIRE(value <= static_cast<std::uint64_t>(max),
                 "serial: field out of range '" + text + "'");
  return static_cast<T>(value);
}

std::optional<unsigned> n_from_text(const std::string& text) {
  if (text == "inf") return std::nullopt;
  return parse_bounded(text, std::numeric_limits<unsigned>::max());
}

}  // namespace

std::string serialize_strategy(const strategies::StrategyConfig& s) {
  std::ostringstream os;
  os << escape(s.name) << ',' << static_cast<int>(s.throughput) << ','
     << static_cast<int>(s.tail_mode) << ',' << n_to_text(s.ntdmr.n) << ','
     << fmt_double(s.ntdmr.timeout_t) << ',' << fmt_double(s.ntdmr.deadline_d)
     << ',' << fmt_double(s.ntdmr.mr) << ',' << fmt_double(s.budget_cents);
  return os.str();
}

strategies::StrategyConfig parse_strategy(const std::string& text) {
  const auto parts = split(text, ',');
  EXPERT_REQUIRE(parts.size() == 8, "serial: bad strategy field");
  strategies::StrategyConfig s;
  s.name = unescape(parts[0]);
  s.throughput =
      parse_bounded(parts[1], strategies::ThroughputPolicy::Combined);
  s.tail_mode = parse_bounded(parts[2], strategies::TailMode::BudgetTriggered);
  s.ntdmr.n = n_from_text(parts[3]);
  s.ntdmr.timeout_t = parse_double(parts[4]);
  s.ntdmr.deadline_d = parse_double(parts[5]);
  s.ntdmr.mr = parse_double(parts[6]);
  s.budget_cents = parse_double(parts[7]);
  return s;
}

std::string serialize_point(const core::StrategyPoint& p) {
  const core::RunMetrics& m = p.metrics;
  std::ostringstream os;
  os << n_to_text(p.params.n) << ',' << fmt_double(p.params.timeout_t) << ','
     << fmt_double(p.params.deadline_d) << ',' << fmt_double(p.params.mr)
     << ',' << fmt_double(p.makespan) << ',' << fmt_double(p.cost) << ','
     << (m.finished ? 1 : 0) << ',' << fmt_double(m.makespan) << ','
     << fmt_double(m.t_tail) << ',' << fmt_double(m.tail_makespan) << ','
     << fmt_double(m.total_cost_cents) << ','
     << fmt_double(m.cost_per_task_cents) << ','
     << fmt_double(m.tail_cost_per_tail_task_cents) << ','
     << fmt_double(m.tail_tasks) << ','
     << fmt_double(m.reliable_instances_sent) << ','
     << fmt_double(m.unreliable_instances_sent) << ','
     << fmt_double(m.duplicate_results) << ',' << fmt_double(m.used_mr) << ','
     << fmt_double(m.max_reliable_queue) << ','
     << fmt_double(m.max_reliable_queue_fraction);
  return os.str();
}

core::StrategyPoint parse_point(const std::string& text) {
  const auto parts = split(text, ',');
  EXPERT_REQUIRE(parts.size() == 20, "serial: bad predicted field");
  core::StrategyPoint p;
  p.params.n = n_from_text(parts[0]);
  p.params.timeout_t = parse_double(parts[1]);
  p.params.deadline_d = parse_double(parts[2]);
  p.params.mr = parse_double(parts[3]);
  p.makespan = parse_double(parts[4]);
  p.cost = parse_double(parts[5]);
  core::RunMetrics& m = p.metrics;
  m.finished = parse_u64(parts[6]) != 0;
  m.makespan = parse_double(parts[7]);
  m.t_tail = parse_double(parts[8]);
  m.tail_makespan = parse_double(parts[9]);
  m.total_cost_cents = parse_double(parts[10]);
  m.cost_per_task_cents = parse_double(parts[11]);
  m.tail_cost_per_tail_task_cents = parse_double(parts[12]);
  m.tail_tasks = parse_double(parts[13]);
  m.reliable_instances_sent = parse_double(parts[14]);
  m.unreliable_instances_sent = parse_double(parts[15]);
  m.duplicate_results = parse_double(parts[16]);
  m.used_mr = parse_double(parts[17]);
  m.max_reliable_queue = parse_double(parts[18]);
  m.max_reliable_queue_fraction = parse_double(parts[19]);
  return p;
}

std::string serialize_quality(const core::CharacterizationQuality& q) {
  std::ostringstream os;
  os << fmt_u64(q.unreliable_instances) << ',' << fmt_u64(q.observed_successes)
     << ',' << fmt_double(q.censored_fraction) << ','
     << fmt_u64(q.epoch1_instances) << ',' << fmt_u64(q.epoch2_instances)
     << ',' << (q.sufficient ? 1 : 0);
  return os.str();
}

core::CharacterizationQuality parse_quality(const std::string& text) {
  const auto parts = split(text, ',');
  EXPERT_REQUIRE(parts.size() == 6, "serial: bad quality field");
  core::CharacterizationQuality q;
  q.unreliable_instances = static_cast<std::size_t>(parse_u64(parts[0]));
  q.observed_successes = static_cast<std::size_t>(parse_u64(parts[1]));
  q.censored_fraction = parse_double(parts[2]);
  q.epoch1_instances = static_cast<std::size_t>(parse_u64(parts[3]));
  q.epoch2_instances = static_cast<std::size_t>(parse_u64(parts[4]));
  q.sufficient = parse_u64(parts[5]) != 0;
  return q;
}

std::string serialize_trace(const trace::ExecutionTrace& t) {
  std::ostringstream os;
  os << fmt_u64(t.task_count()) << ',' << fmt_double(t.t_tail()) << ','
     << fmt_double(t.makespan()) << ',' << (t.truncated() ? 1 : 0) << ','
     << fmt_u64(t.records().size());
  for (const auto& r : t.records()) {
    os << ';' << fmt_u64(r.task) << ':' << static_cast<int>(r.pool) << ':'
       << fmt_double(r.send_time) << ':' << fmt_double(r.turnaround) << ':'
       << static_cast<int>(r.outcome) << ':' << fmt_double(r.cost_cents)
       << ':' << (r.tail_phase ? 1 : 0);
  }
  return os.str();
}

trace::ExecutionTrace parse_trace(const std::string& text) {
  const auto chunks = split(text, ';');
  EXPERT_REQUIRE(!chunks.empty(), "serial: bad history field");
  const auto head = split(chunks[0], ',');
  EXPERT_REQUIRE(head.size() == 5, "serial: bad history header");
  const auto task_count = static_cast<std::size_t>(parse_u64(head[0]));
  const double t_tail = parse_double(head[1]);
  const double completion = parse_double(head[2]);
  const bool truncated = parse_u64(head[3]) != 0;
  const auto n_records = static_cast<std::size_t>(parse_u64(head[4]));
  EXPERT_REQUIRE(chunks.size() == n_records + 1,
                 "serial: history record count mismatch");
  std::vector<trace::InstanceRecord> records;
  records.reserve(n_records);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    const auto f = split(chunks[i], ':');
    EXPERT_REQUIRE(f.size() == 7, "serial: bad history record");
    trace::InstanceRecord r;
    r.task = static_cast<workload::TaskId>(parse_u64(f[0]));
    r.pool = parse_bounded(f[1], trace::PoolKind::Reliable);
    r.send_time = parse_double(f[2]);
    r.turnaround = parse_double(f[3]);
    r.outcome = parse_bounded(f[4], trace::InstanceOutcome::OutOfBid);
    r.cost_cents = parse_double(f[5]);
    r.tail_phase = parse_u64(f[6]) != 0;
    records.push_back(r);
  }
  return trace::ExecutionTrace(task_count, std::move(records), t_tail,
                               completion, truncated);
}

}  // namespace expert::resilience::serial
