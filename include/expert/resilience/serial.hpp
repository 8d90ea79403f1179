#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "expert/core/campaign.hpp"

namespace expert::resilience::serial {

/// Text codec shared by the campaign journal and the procexec wire
/// protocol: every domain type serializes to the same byte-exact form in
/// both, which is what lets the differential in-process-vs-subprocess test
/// compare *journal files* for byte identity instead of fuzzy field
/// comparisons.
///
/// Doubles travel as C hexfloats ("%a"): exact round-trip, locale-free,
/// and strtod parses the "inf" that failed instances' turnarounds carry.
std::string fmt_double(double value);
std::string fmt_u64(std::uint64_t value);
std::string fmt_hex16(std::uint64_t value);

double parse_double(const std::string& text);
/// Parses digits in the given base; throws util::ContractViolation on a
/// sign, whitespace, a 0x prefix, trailing garbage, overflow, or an empty
/// field.
std::uint64_t parse_u64(const std::string& text, int base = 10);

/// Percent-escape the separators the journal/wire grammar reserves
/// (space, comma, newline, and '%' itself).
std::string escape(const std::string& text);
std::string unescape(const std::string& text);

std::vector<std::string> split(const std::string& text, char sep);

// ---- domain types ---------------------------------------------------------

std::string serialize_strategy(const strategies::StrategyConfig& s);
strategies::StrategyConfig parse_strategy(const std::string& text);

std::string serialize_point(const core::StrategyPoint& p);
core::StrategyPoint parse_point(const std::string& text);

std::string serialize_quality(const core::CharacterizationQuality& q);
core::CharacterizationQuality parse_quality(const std::string& text);

std::string serialize_trace(const trace::ExecutionTrace& t);
trace::ExecutionTrace parse_trace(const std::string& text);

core::DegradationReason degradation_from_string(const std::string& name);
core::Campaign::BotOutcome outcome_from_string(const std::string& name);

}  // namespace expert::resilience::serial
