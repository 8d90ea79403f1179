// resilience::serial codec tests: the integer field parser takes digits
// only, escapes round-trip through unescape, and the domain parsers refuse
// enumerators and N values the encoder can never produce. These parsers
// read journal lines and XPF1 requests, so anything they accept becomes
// program state.

#include "expert/resilience/serial.hpp"

#include <gtest/gtest.h>

#include <string>

#include "expert/util/assert.hpp"

namespace expert::resilience::serial {
namespace {

using strategies::StrategyConfig;
using strategies::TailMode;
using strategies::ThroughputPolicy;
using util::ContractViolation;

TEST(SerialParseU64, AcceptsDigitsInBothBases) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("7"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_EQ(parse_u64("ff", 16), 255u);
  EXPECT_EQ(parse_u64("FF", 16), 255u);
  EXPECT_EQ(parse_u64("ffffffffffffffff", 16), 18446744073709551615ULL);
  EXPECT_EQ(parse_u64(fmt_hex16(0x0123456789abcdefULL), 16),
            0x0123456789abcdefULL);
}

TEST(SerialParseU64, RejectsSignsWhitespaceEmptyAndOverflow) {
  for (const char* text :
       {"-1", "-0", "+7", " 7", "7 ", "\t7", "\n7", "", "18446744073709551616",
        "99999999999999999999", "7x", "0x1f", "1f"}) {
    EXPECT_THROW(parse_u64(text), ContractViolation) << "'" << text << "'";
  }
  for (const char* text :
       {"-1", "+f", " f", "f ", "", "0x1f", "10000000000000000", "fg"}) {
    EXPECT_THROW(parse_u64(text, 16), ContractViolation)
        << "'" << text << "' (base 16)";
  }
}

TEST(SerialEscape, RoundTripsReservedSeparators) {
  const std::string raw = "a b,c\nd%e";
  const std::string escaped = escape(raw);
  EXPECT_EQ(escaped, "a%20b%2Cc%0Ad%25e");
  EXPECT_EQ(unescape(escaped), raw);
  // Any byte value escapes, in either hex case.
  EXPECT_EQ(unescape("%7e%7E"), "~~");
}

TEST(SerialEscape, RejectsMalformedEscapes) {
  for (const char* text :
       {"%", "%2", "a%2", "%zz", "%-1", "%+7", "% 7", "%7 "}) {
    EXPECT_THROW(unescape(text), ContractViolation) << "'" << text << "'";
  }
}

StrategyConfig strategy_with(ThroughputPolicy throughput, TailMode tail) {
  StrategyConfig s;
  s.name = "custom, named";
  s.throughput = throughput;
  s.tail_mode = tail;
  s.ntdmr.n = 4294967295u;
  s.ntdmr.timeout_t = 1277.6;
  s.ntdmr.deadline_d = 5110.4;
  s.ntdmr.mr = 0.1;
  s.budget_cents = 750.0;
  return s;
}

TEST(SerialStrategy, EveryEnumeratorRoundTrips) {
  for (const auto throughput :
       {ThroughputPolicy::UnreliableOnly, ThroughputPolicy::ReliableOnly,
        ThroughputPolicy::Combined}) {
    for (const auto tail : {TailMode::NTDMrTail, TailMode::ReplicateAllReliable,
                            TailMode::Continue, TailMode::BudgetTriggered}) {
      const auto s = strategy_with(throughput, tail);
      const std::string text = serialize_strategy(s);
      const auto back = parse_strategy(text);
      EXPECT_EQ(back.name, s.name);
      EXPECT_EQ(back.throughput, throughput);
      EXPECT_EQ(back.tail_mode, tail);
      EXPECT_EQ(back.ntdmr.n, s.ntdmr.n);
      EXPECT_EQ(serialize_strategy(back), text);
    }
  }
}

TEST(SerialStrategy, RejectsOutOfRangeEnumeratorsAndN) {
  // Each field alone past its range; the first line packs all three.
  for (const char* text : {"x,7,9,4294967297,1,2,0.1,0",
                           "x,3,0,2,1,2,0.1,0",
                           "x,0,4,2,1,2,0.1,0",
                           "x,0,0,4294967296,1,2,0.1,0",
                           "x,-1,0,2,1,2,0.1,0",
                           "x,0,0,-1,1,2,0.1,0"}) {
    EXPECT_THROW(parse_strategy(text), ContractViolation) << text;
  }
  EXPECT_EQ(parse_strategy("x,2,3,4294967295,1,2,0.1,0").ntdmr.n,
            4294967295u);
}

TEST(SerialTrace, RejectsOutOfRangePoolAndOutcome) {
  const std::string head = "1,0x0p+0,0x1p+0,0,1;";
  EXPECT_EQ(parse_trace(head + "0:1:0x0p+0:0x1p+0:5:0x0p+0:0")
                .records()
                .front()
                .outcome,
            trace::InstanceOutcome::OutOfBid);
  EXPECT_THROW(parse_trace(head + "0:2:0x0p+0:0x1p+0:0:0x0p+0:0"),
               ContractViolation);
  EXPECT_THROW(parse_trace(head + "0:0:0x0p+0:0x1p+0:6:0x0p+0:0"),
               ContractViolation);
}

}  // namespace
}  // namespace expert::resilience::serial
