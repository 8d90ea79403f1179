// Tests for tools/expert_lint: lexer behavior, rule detection with exact
// rule IDs and line numbers on fixture files, scope classification, and
// suppression handling.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis.hpp"
#include "lexer.hpp"
#include "lint.hpp"
#include "report.hpp"

namespace {

using expert::lint::Finding;
using expert::lint::lint_paths;
using expert::lint::lint_source;
using expert::lint::lint_tree;

const std::string kFixtures = EXPERT_LINT_FIXTURES;

std::vector<std::pair<std::string, int>> rule_lines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

// ---- lexer ----

TEST(Lexer, SeparatesCommentsFromCode) {
  const auto lx = expert::lint::lex(
      "int a = 1; // trailing\n/* block\nspanning */ int b;\n");
  ASSERT_EQ(lx.comments.size(), 2u);
  EXPECT_EQ(lx.comments[0].line, 1);
  EXPECT_EQ(lx.comments[0].text, " trailing");
  EXPECT_EQ(lx.comments[1].line, 2);
  // Code inside comments must not produce tokens.
  for (const auto& tok : lx.tokens) {
    EXPECT_NE(tok.text, "trailing");
    EXPECT_NE(tok.text, "block");
  }
}

TEST(Lexer, StringsAndCharsAreOpaque) {
  const auto lx = expert::lint::lex(
      "const char* s = \"rand() // not a comment\"; char c = '\\'';\n");
  std::size_t strings = 0;
  for (const auto& tok : lx.tokens) {
    if (tok.kind == expert::lint::TokenKind::String) ++strings;
    EXPECT_NE(tok.text, "rand");
  }
  EXPECT_EQ(strings, 1u);
  EXPECT_TRUE(lx.comments.empty());
}

TEST(Lexer, IncludePathsBecomeSingleTokens) {
  const auto lx = expert::lint::lex("#include <chrono>\n#include \"a/b.hpp\"\n");
  std::vector<std::string> paths;
  for (const auto& tok : lx.tokens) {
    if (tok.kind == expert::lint::TokenKind::IncludePath)
      paths.push_back(tok.text);
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"<chrono>", "\"a/b.hpp\""}));
}

TEST(Lexer, LineNumbersSurviveBlockComments) {
  const auto lx = expert::lint::lex("/* 1\n2\n3 */\nint x;\n");
  ASSERT_FALSE(lx.tokens.empty());
  EXPECT_EQ(lx.tokens[0].line, 4);
}

TEST(Lexer, FloatLiteralClassification) {
  EXPECT_TRUE(expert::lint::is_float_literal("1.0"));
  EXPECT_TRUE(expert::lint::is_float_literal("1e5"));
  EXPECT_TRUE(expert::lint::is_float_literal(".5f"));
  EXPECT_TRUE(expert::lint::is_float_literal("0x1p3"));
  EXPECT_FALSE(expert::lint::is_float_literal("42"));
  EXPECT_FALSE(expert::lint::is_float_literal("0xe5"));
  EXPECT_FALSE(expert::lint::is_float_literal("0b101"));
  EXPECT_FALSE(expert::lint::is_float_literal("1'000'000ULL"));
}

// ---- fixture files: exact rule IDs and line numbers ----

TEST(LintFixtures, BadDeterminism) {
  const auto findings =
      lint_paths({kFixtures + "/src/core/bad_determinism.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"ND002", 3},  {"INC002", 4}, {"INC002", 5}, {"ITER001", 6},
      {"INC003", 7}, {"ND003", 12}, {"ND003", 13}, {"ND003", 14},
      {"ND003", 17}, {"ND001", 21}, {"ND001", 22}, {"ND001", 23},
  };
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, BadFloatAndSeeds) {
  const auto findings = lint_paths({kFixtures + "/src/gridsim/bad_float.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"FLT002", 9},  {"FLT002", 9},  {"FLT002", 9},  {"FLT001", 14},
      {"FLT001", 15}, {"RNG001", 20}, {"RNG002", 21},
  };
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, BadHeader) {
  const auto findings =
      lint_paths({kFixtures + "/include/expert/sim/bad_header.hpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"INC001", 3}, {"ITER001", 3}, {"ITER001", 8}};
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, BadIo) {
  const auto findings = lint_paths({kFixtures + "/src/core/bad_io.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"IO001", 5}, {"IO001", 16}};
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, BadProcess) {
  const auto findings = lint_paths({kFixtures + "/src/core/bad_process.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"PROC001", 5}, {"PROC001", 7}, {"PROC001", 9}, {"PROC001", 10}};
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, BadSuppressions) {
  const auto findings =
      lint_paths({kFixtures + "/src/core/bad_suppressions.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"SUP001", 5}, {"FLT001", 7}, {"SUP002", 10}, {"FLT001", 12}};
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, SeededLockOrderCycle) {
  // The cycle only exists across both TUs; each half alone is clean.
  const auto fwd = lint_paths({kFixtures + "/src/eval/deadlock_fwd.cpp"});
  EXPECT_TRUE(fwd.empty());

  const auto findings =
      lint_paths({kFixtures + "/src/eval/deadlock_fwd.cpp",
                  kFixtures + "/src/eval/deadlock_rev.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {{"LOCK001", 17}};
  EXPECT_EQ(got, want);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find(
                "lock-order cycle between {LockPair::a, LockPair::b}"),
            std::string::npos);
  // The finding names both witness sites so either TU can be fixed.
  EXPECT_NE(findings[0].message.find("deadlock_rev.cpp:17"),
            std::string::npos);
}

TEST(LintFixtures, SeededAnnotationGaps) {
  const auto findings =
      lint_paths({kFixtures + "/src/procexec/bad_annotations.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"ANN001", 9}, {"ANN001", 14}};
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, EnvSubsystemIsAnnotationAudited) {
  // gridsim/env carries its own ANN001 scope; gridsim proper does not.
  const auto findings =
      lint_paths({kFixtures + "/src/gridsim/env/bad_env_mutex.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {{"ANN001", 13}};
  EXPECT_EQ(got, want);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("gridsim/env"), std::string::npos);
  EXPECT_TRUE(
      lint_paths({kFixtures + "/src/gridsim/clean_mutex.cpp"}).empty());
}

TEST(LintFixtures, SeededEintrDiscipline) {
  const auto findings =
      lint_paths({kFixtures + "/src/resilience/bad_eintr.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {
      {"SYS001", 8}, {"SYS001", 10}, {"SYS001", 12}};
  EXPECT_EQ(got, want);
  // The close() finding routes to util::close_fd, not retry_eintr.
  EXPECT_NE(findings[2].message.find("util::close_fd"), std::string::npos);
}

TEST(LintFixtures, SeededSignalSafety) {
  const auto findings =
      lint_paths({kFixtures + "/src/procexec/bad_signal.cpp"});
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> want = {{"SIG001", 13}};
  EXPECT_EQ(got, want);
}

TEST(LintFixtures, CleanCounterpartsHaveNoFindings) {
  EXPECT_TRUE(lint_paths({kFixtures + "/src/core/clean_core.cpp"}).empty());
  EXPECT_TRUE(lint_paths({kFixtures + "/src/obs/clean_clock.cpp"}).empty());
}

TEST(LintFixtures, DirectoryWalkFindsEverySeededFile) {
  const auto findings = lint_paths({kFixtures});
  std::vector<std::string> files;
  for (const Finding& f : findings) files.push_back(f.file);
  const auto has_file = [&](const char* needle) {
    return std::any_of(files.begin(), files.end(), [&](const std::string& f) {
      return f.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(has_file("bad_determinism.cpp"));
  EXPECT_TRUE(has_file("bad_float.cpp"));
  EXPECT_TRUE(has_file("bad_header.hpp"));
  EXPECT_TRUE(has_file("bad_io.cpp"));
  EXPECT_TRUE(has_file("bad_process.cpp"));
  EXPECT_TRUE(has_file("bad_suppressions.cpp"));
  EXPECT_TRUE(has_file("deadlock_fwd.cpp"));
  EXPECT_TRUE(has_file("bad_annotations.cpp"));
  EXPECT_TRUE(has_file("bad_eintr.cpp"));
  EXPECT_TRUE(has_file("bad_signal.cpp"));
  EXPECT_TRUE(has_file("bad_env_mutex.cpp"));
  EXPECT_FALSE(has_file("clean_core.cpp"));
  EXPECT_FALSE(has_file("clean_clock.cpp"));
  EXPECT_FALSE(has_file("clean_mutex.cpp"));
}

// ---- parallel walk determinism ----

std::vector<std::string> formatted(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(expert::lint::format(f));
  return out;
}

TEST(LintTree, ThreadCountNeverChangesOutput) {
  // The property the parallel walk promises: 1 worker and N workers
  // produce byte-identical reports, down to cross-TU finding order.
  const auto sequential =
      lint_tree({kFixtures}, expert::lint::TreeOptions{1});
  ASSERT_FALSE(sequential.empty());
  for (const int threads : {2, 3, 8}) {
    const auto parallel =
        lint_tree({kFixtures}, expert::lint::TreeOptions{threads});
    EXPECT_EQ(formatted(sequential), formatted(parallel))
        << "thread count " << threads << " changed the findings";
    EXPECT_EQ(expert::lint::render_json_report(sequential),
              expert::lint::render_json_report(parallel))
        << "thread count " << threads << " changed the JSON bytes";
  }
}

// ---- scope classification ----

TEST(LintScope, RulesOnlyApplyToLibraryPaths) {
  const std::string source = "float f = 1.0f;\nauto x = rand();\n";
  EXPECT_FALSE(lint_source("src/core/a.cpp", source).empty());
  // tests/bench/examples/tools are out of scope for library rules.
  EXPECT_TRUE(lint_source("tests/core/a_test.cpp", source).empty());
  EXPECT_TRUE(lint_source("bench/fig1.cpp", source).empty());
}

TEST(LintScope, ObsModuleMayUseClocks) {
  const std::string source = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_source("src/obs/tracing.cpp", source).empty());
  const std::string header = "#pragma once\n" + source;
  EXPECT_TRUE(lint_source("include/expert/obs/tracing.hpp", header).empty());
  EXPECT_FALSE(lint_source("src/sim/engine.cpp", source).empty());
}

TEST(LintScope, OfstreamAllowedOnlyUnderUtil) {
  const std::string source = "std::ofstream out(\"final.json\");\n";
  EXPECT_TRUE(lint_source("src/util/atomic_write.cpp", source).empty());
  EXPECT_FALSE(lint_source("src/obs/report.cpp", source).empty());
  EXPECT_FALSE(lint_source("src/core/frontier_io.cpp", source).empty());
  // Out of library scope entirely: not flagged.
  EXPECT_TRUE(lint_source("tools/expert_cli.cpp", source).empty());
}

TEST(LintScope, ProcexecMayUseProcessSyscalls) {
  const std::string source = "int r = fork();\n::kill(1, 9);\n";
  EXPECT_FALSE(lint_source("src/core/campaign.cpp", source).empty());
  EXPECT_FALSE(lint_source("src/resilience/journal.cpp", source).empty());
  // The supervised pool is the one sanctioned home for these syscalls.
  EXPECT_TRUE(lint_source("src/procexec/supervisor.cpp", source).empty());
  EXPECT_TRUE(
      lint_source("include/expert/procexec/supervisor.hpp",
                  "#pragma once\n" + source)
          .empty());
}

TEST(LintScope, UnorderedContainersAllowedOutsideReplayModules) {
  const std::string source = "std::unordered_map<int, int> m;\n";
  EXPECT_TRUE(lint_source("src/util/pool.cpp", source).empty());
  EXPECT_FALSE(lint_source("src/core/frontier.cpp", source).empty());
  EXPECT_FALSE(lint_source("src/strategies/parser.cpp", source).empty());
  // The environment subsystem inherits gridsim's replay sensitivity.
  EXPECT_FALSE(lint_source("src/gridsim/env/dynamics.cpp", source).empty());
  // obs promises deterministic snapshot ordering, so its label/series
  // maps are replay-sensitive too.
  EXPECT_FALSE(lint_source("src/obs/metrics.cpp", source).empty());
  EXPECT_FALSE(
      lint_source("include/expert/obs/metrics.hpp",
                  "#pragma once\n" + source)
          .empty());
}

TEST(LintScope, StatsIsAnnotationAuditedAndOrderedOnly) {
  // stats owns the process-wide calibration memo's mutex.
  const auto scope = expert::lint::classify("src/stats/distributions.cpp");
  EXPECT_EQ(scope.ann_module, "stats");
  EXPECT_TRUE(scope.ordered_only);
  EXPECT_FALSE(
      lint_source("src/stats/distributions.cpp",
                  "std::unordered_map<double, double> memo;\n")
          .empty());
  const std::string unannotated =
      "class Memo {\n"
      "  util::Mutex mutex_;\n"
      "  int entries_ = 0;\n"
      "};\n";
  const auto findings =
      lint_source("src/stats/distributions.cpp", unannotated);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ANN001");
}

// ---- suppression semantics ----

TEST(LintSuppression, SameLineAndNextCodeLine) {
  const std::string same_line =
      "double f(double x) {\n"
      "  return x == 1.0 ? 0.0 : x;  // EXPERT_LINT_ALLOW(FLT001): exact "
      "sentinel is the contract\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/a.cpp", same_line).empty());

  const std::string block_above =
      "double f(double x) {\n"
      "  // EXPERT_LINT_ALLOW(FLT001): exact sentinel is the contract,\n"
      "  // explained over two comment lines.\n"
      "  return x == 1.0 ? 0.0 : x;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/a.cpp", block_above).empty());
}

TEST(LintSuppression, DoesNotLeakToOtherRulesOrLines) {
  // The suppression names FLT001, so the FLT002 on the same line stays.
  const std::string other_rule =
      "float f(double x) {  // EXPERT_LINT_ALLOW(FLT001): wrong rule named\n"
      "  return 0;\n"
      "}\n";
  const auto findings = lint_source("src/core/a.cpp", other_rule);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "FLT002");

  // A suppression two code lines above the violation does not apply.
  const std::string too_far =
      "// EXPERT_LINT_ALLOW(FLT001): applies to the next code line only\n"
      "double g(double x);\n"
      "double h(double x) { return x == 1.0 ? 0.0 : x; }\n";
  const auto far_findings = lint_source("src/core/a.cpp", too_far);
  ASSERT_EQ(far_findings.size(), 1u);
  EXPECT_EQ(far_findings[0].rule, "FLT001");
  EXPECT_EQ(far_findings[0].line, 3);
}

TEST(LintSuppression, JustificationMustBeProse) {
  const std::string short_just =
      "double f(double x) {\n"
      "  // EXPERT_LINT_ALLOW(FLT001): ok\n"
      "  return x == 1.0 ? 0.0 : x;\n"
      "}\n";
  const auto findings = lint_source("src/core/a.cpp", short_just);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "SUP001");
  EXPECT_EQ(findings[1].rule, "FLT001");
}

// ---- misc engine behavior ----

TEST(Lint, CatalogueCoversEveryReportedRule) {
  const auto findings = lint_paths({kFixtures});
  for (const Finding& f : findings) {
    const auto& rules = expert::lint::rule_catalogue();
    const bool known =
        std::any_of(rules.begin(), rules.end(),
                    [&](const auto& r) { return r.id == f.rule; });
    EXPECT_TRUE(known) << "finding with unlisted rule " << f.rule;
  }
}

TEST(Lint, FormatIsFileLineRuleMessage) {
  const Finding f{"FLT001", "src/core/a.cpp", 7, "msg"};
  EXPECT_EQ(expert::lint::format(f), "src/core/a.cpp:7: FLT001: msg");
}

TEST(Lint, MissingPathReportsIoFinding) {
  const auto findings = lint_paths({kFixtures + "/does_not_exist.cpp"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "IO000");
}

}  // namespace
