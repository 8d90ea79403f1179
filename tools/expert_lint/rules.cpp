#include "analysis.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <unordered_set>

#include "lexer.hpp"

namespace expert::lint {

namespace {

// ---- rule catalogue ----

const std::vector<RuleInfo> kRules = {
    {"ND001",
     "banned RNG source (rand/srand/std::random_device) in library code"},
    {"ND002", "#include <random> in library code (std distributions are "
              "implementation-defined; use util::Rng)"},
    {"ND003", "wall/monotonic clock in deterministic library code "
              "(allowed only under obs/)"},
    {"RNG001", "raw integer seed literal passed to Rng (derive via "
               "util::derive_seed or Rng::fork)"},
    {"RNG002", "default-constructed Rng temporary (every stream must be "
               "forked from a seeded parent)"},
    {"ITER001", "unordered container in replay-sensitive module "
                "(iteration order is unspecified; use std::map/set)"},
    {"FLT001", "==/!= against a floating-point literal (compare with an "
               "explicit tolerance)"},
    {"FLT002", "float in library code (money/time arithmetic drifts; "
               "use double)"},
    {"INC001", "header does not start with #pragma once"},
    {"INC002", "#include <chrono>/<ctime> outside obs/ (clock access is "
               "an obs concern)"},
    {"INC003", "#include path contains '..'"},
    {"SUP001", "EXPERT_LINT_ALLOW without a written justification"},
    {"SUP002", "EXPERT_LINT_ALLOW naming an unknown rule id"},
    {"IO001", "direct std::ofstream write in library code outside util/ "
              "(a crash mid-write leaves a torn file; route output "
              "through util::atomic_write)"},
    {"PROC001", "raw process syscall (fork/exec*/waitpid/kill) outside "
                "procexec/ (worker lifecycles must go through the "
                "supervised pool so every child is reaped)"},
    {"LOCK001", "lock-acquisition-order cycle across the tree (two mutexes "
                "acquired in opposite orders can deadlock)"},
    {"ANN001", "mutex without clang thread-safety annotation coverage in a "
               "concurrency-audited module (eval/obs/util/resilience/"
               "procexec/service)"},
    {"SYS001", "interruptible syscall outside util::retry_eintr (a stray "
               "EINTR turns into a spurious failure; close must use "
               "util::close_fd)"},
    {"SIG001", "non-async-signal-safe call inside an EXPERT_SIGNAL_SAFE "
               "function (between fork and exec only the POSIX "
               "signal-safe set is legal)"},
    {"IO000", "file could not be read"},
};

bool known_rule(std::string_view id) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

/// Keywords that may directly precede a free-function call. Used to decide
/// whether `time(` is a call (flagged) or a declarator like
/// `double time(0.0)` (skipped).
const std::unordered_set<std::string> kCallContextKeywords = {
    "return", "co_return", "co_yield", "if", "while", "do", "else",
    "case",   "throw",
};

const std::unordered_set<std::string> kBannedClockIdents = {
    "system_clock", "steady_clock", "high_resolution_clock",
};

const std::unordered_set<std::string> kBannedClockCalls = {
    "time",      "clock",  "gettimeofday", "localtime",
    "localtime_r", "gmtime", "gmtime_r",   "timespec_get",
};

const std::unordered_set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() { return kRules; }

std::string format(const Finding& finding) {
  std::ostringstream os;
  os << finding.file << ':' << finding.line << ": " << finding.rule << ": "
     << finding.message;
  return os.str();
}

Scope classify(std::string_view path) {
  Scope scope;
  scope.header = path.size() >= 4 && path.substr(path.size() - 4) == ".hpp";

  std::vector<std::string_view> segments;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/' || path[i] == '\\') {
      if (i > start) segments.push_back(path.substr(start, i - start));
      start = i + 1;
    }
  }
  // Last include/src marker wins, so fixture trees nested under tests/
  // classify by their mirrored layout.
  std::size_t marker = segments.size();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i] == "include" || segments[i] == "src") marker = i;
  }
  if (marker == segments.size()) return scope;
  scope.library = true;
  for (std::size_t i = marker + 1; i < segments.size(); ++i) {
    const std::string_view seg = segments[i];
    if (seg == "obs") scope.obs = true;
    if (seg == "util") scope.util = true;
    if (seg == "procexec") scope.procexec = true;
    // obs is ordered-only too: metric snapshots promise deterministic
    // series ordering, so its label/series maps must iterate stably. So is
    // service: its manifest, journals, and DRR schedule promise
    // byte-identical replay, which an unordered tenant registry would leak
    // into. So is stats: its calibration memo must evict in a fixed order.
    if (seg == "sim" || seg == "core" || seg == "gridsim" ||
        seg == "strategies" || seg == "eval" || seg == "obs" ||
        seg == "service" || seg == "stats") {
      scope.ordered_only = true;
    }
    // The concurrency-audited set: modules that run (or synchronize)
    // threads and therefore fall under ANN001 annotation coverage. The
    // service is single-threaded by design, so any mutex that ever
    // appears there must be annotated (and justified) from day one. stats
    // guards its process-wide calibration memo with a mutex.
    if (seg == "eval" || seg == "obs" || seg == "util" ||
        seg == "resilience" || seg == "procexec" || seg == "service" ||
        seg == "stats") {
      scope.ann_module = std::string(seg);
    }
    // The environment subsystem is audited as its own module: its digest
    // and dynamics code feeds eval keys and executor replay, so any mutex
    // that ever appears there must carry annotations from day one.
    if (seg == "gridsim" && i + 1 < segments.size() &&
        segments[i + 1] == "env") {
      scope.ann_module = "gridsim/env";
    }
  }
  return scope;
}

FileAnalysis analyze_file(std::string_view path, std::string_view source) {
  FileAnalysis fa;
  fa.path = std::string(path);
  fa.scope = classify(path);

  const LexResult lx = lex(source);
  const std::vector<Token>& toks = lx.tokens;
  fa.index = build_file_index(path, lx);

  std::vector<Finding>& raw = fa.token_findings;
  auto report = [&](std::string_view rule, int line, std::string message) {
    raw.push_back(
        Finding{std::string(rule), fa.path, line, std::move(message)});
  };

  const auto text = [&](std::size_t i) -> const std::string& {
    return toks[i].text;
  };
  // True when toks[i] reads as a free-function call target: not a member
  // access, not qualified by a namespace other than std, not a declarator
  // preceded by a type name.
  const auto free_call_context = [&](std::size_t i) {
    if (i == 0) return true;
    const std::string& prev = text(i - 1);
    if (prev == "." || prev == "->") return false;
    if (prev == "::") {
      return i >= 2 && text(i - 2) == "std";
    }
    if (toks[i - 1].kind == TokenKind::Identifier) {
      return kCallContextKeywords.count(prev) > 0;
    }
    return true;
  };

  const Scope& scope = fa.scope;
  if (scope.library) {
    // INC001: headers must open with #pragma once.
    if (scope.header &&
        !(toks.size() >= 3 && text(0) == "#" && text(1) == "pragma" &&
          text(2) == "once")) {
      report("INC001", toks.empty() ? 1 : toks[0].line,
             "header must start with #pragma once");
    }

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];

      if (tok.kind == TokenKind::IncludePath) {
        if (tok.text == "<random>") {
          report("ND002", tok.line,
                 "std <random> is banned in library code: distribution "
                 "output is implementation-defined, which breaks replay "
                 "across standard libraries; use util::Rng");
        }
        if (!scope.obs && (tok.text == "<chrono>" || tok.text == "<ctime>")) {
          report("INC002", tok.line,
                 "clock headers are banned outside obs/: simulated time "
                 "must come from the engine, never the host");
        }
        if (scope.ordered_only &&
            (tok.text == "<unordered_map>" || tok.text == "<unordered_set>")) {
          report("ITER001", tok.line,
                 "unordered-container header in a replay-sensitive module; "
                 "iteration order is unspecified and leaks into results");
        }
        if (tok.text.find("..") != std::string::npos) {
          report("INC003", tok.line,
                 "include paths must be rooted (no '..'), so include "
                 "order and build layout cannot change meaning");
        }
        continue;
      }

      if (tok.kind != TokenKind::Identifier) continue;
      const std::string& id = tok.text;
      const bool next_is_call =
          i + 1 < toks.size() && text(i + 1) == "(";

      // ND001: banned RNG sources.
      if (id == "random_device") {
        report("ND001", tok.line,
               "std::random_device is nondeterministic; all randomness "
               "must flow from the run's (seed, stream)");
      }
      if ((id == "rand" || id == "srand") && next_is_call &&
          free_call_context(i)) {
        report("ND001", tok.line,
               "C rand()/srand() is banned: global hidden state breaks "
               "deterministic replay; use util::Rng");
      }

      // ND003: clocks outside obs/.
      if (!scope.obs) {
        if (kBannedClockIdents.count(id) > 0) {
          report("ND003", tok.line,
                 "std::chrono clocks are banned outside obs/: library "
                 "results must be a pure function of (inputs, seed)");
        }
        if (kBannedClockCalls.count(id) > 0 && next_is_call &&
            free_call_context(i)) {
          report("ND003", tok.line,
                 "wall-clock call '" + id +
                     "' is banned outside obs/: library results must be "
                     "a pure function of (inputs, seed)");
        }
      }

      // RNG001/RNG002: seed discipline, for both the temporary form
      // `Rng(42)` and the declarator form `Rng name(42)`.
      if (id == "Rng") {
        std::size_t open = i + 1;
        if (open < toks.size() &&
            toks[open].kind == TokenKind::Identifier) {
          ++open;
        }
        if (open < toks.size() &&
            (text(open) == "(" || text(open) == "{")) {
          if (open + 1 < toks.size() &&
              toks[open + 1].kind == TokenKind::Number &&
              !is_float_literal(text(open + 1))) {
            report("RNG001", tok.line,
                   "raw seed literal: library streams must be derived via "
                   "util::derive_seed(parent, stream) or Rng::fork with a "
                   "domain separator (literal seeds belong in tests/CLI)");
          }
          const std::string close = (text(open) == "(") ? ")" : "}";
          if (open + 1 < toks.size() && text(open + 1) == close &&
              text(open) == "(") {
            report("RNG002", tok.line,
                   "default-constructed Rng uses the fixed default seed; "
                   "fork a stream from the run's seeded parent instead");
          }
        }
      }

      // ITER001: unordered containers in replay-sensitive modules.
      if (scope.ordered_only && kUnorderedContainers.count(id) > 0) {
        report("ITER001", tok.line,
               "std::" + id +
                   " is banned in sim/core/gridsim/strategies/eval/obs/"
                   "service/stats: iteration order is unspecified and leaks into "
                   "results and metric snapshots; use the ordered "
                   "counterpart");
      }

      // IO001: direct ofstream writes outside util/. util::atomic_write is
      // the one sanctioned path to a final output file — everything else
      // risks leaving a torn file behind a crash.
      if (!scope.util && id == "ofstream") {
        report("IO001", tok.line,
               "std::ofstream writes a final output path in place; a "
               "crash mid-write leaves a torn file — render to a string "
               "and land it with util::atomic_write");
      }

      // FLT002: float in library code.
      if (id == "float") {
        report("FLT002", tok.line,
               "float is banned in library code: money/time accumulation "
               "in single precision drifts; use double");
      }
    }

    // FLT001: ==/!= against a floating literal.
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::Punct ||
          (toks[i].text != "==" && toks[i].text != "!=")) {
        continue;
      }
      const bool lhs_float = i > 0 && toks[i - 1].kind == TokenKind::Number &&
                             is_float_literal(text(i - 1));
      const bool rhs_float = i + 1 < toks.size() &&
                             toks[i + 1].kind == TokenKind::Number &&
                             is_float_literal(text(i + 1));
      if (lhs_float || rhs_float) {
        report("FLT001", toks[i].line,
               "exact comparison against a floating-point literal; "
               "compare with an explicit tolerance (or suppress with a "
               "justification if bitwise equality is the contract)");
      }
    }
  }

  // ---- suppressions ----
  // `// EXPERT_LINT_ALLOW(RULE): justification` silences RULE on its own
  // line, or — when the comment stands alone — on the first following line
  // that has code (so a justification may continue across comment lines).
  // The justification is mandatory prose. Malformed suppressions are
  // reported directly (SUP001/SUP002 cannot themselves be suppressed).
  std::set<int> token_lines;
  for (const Token& tok : toks) token_lines.insert(tok.line);
  for (const Comment& comment : lx.comments) {
    std::size_t pos = 0;
    static constexpr std::string_view kAllow = "EXPERT_LINT_ALLOW(";
    while ((pos = comment.text.find(kAllow, pos)) != std::string::npos) {
      const std::size_t id_begin = pos + kAllow.size();
      const std::size_t id_end = comment.text.find(')', id_begin);
      if (id_end == std::string::npos) break;
      const std::string id =
          trim(comment.text.substr(id_begin, id_end - id_begin));
      std::size_t just_begin = id_end + 1;
      if (just_begin < comment.text.size() &&
          comment.text[just_begin] == ':') {
        ++just_begin;
      }
      std::size_t just_end = comment.text.find(kAllow, just_begin);
      if (just_end == std::string::npos) just_end = comment.text.size();
      const std::string justification =
          trim(comment.text.substr(just_begin, just_end - just_begin));

      if (!known_rule(id)) {
        raw.push_back(Finding{
            "SUP002", fa.path, comment.line,
            "suppression names unknown rule '" + id + "'"});
      } else if (justification.size() < 8) {
        raw.push_back(Finding{
            "SUP001", fa.path, comment.line,
            "suppression of " + id +
                " needs a written justification after the colon"});
      } else if (token_lines.count(comment.line) > 0) {
        fa.allowed[id].insert(comment.line);  // trailing comment on code line
      } else {
        const auto next_code = token_lines.upper_bound(comment.line);
        if (next_code != token_lines.end()) {
          fa.allowed[id].insert(*next_code);
        }
      }
      pos = just_end;
    }
  }

  return fa;
}

std::vector<Finding> filter_suppressed(
    std::vector<Finding> findings,
    const std::map<std::string, const FileAnalysis*>& by_path) {
  std::vector<Finding> out;
  out.reserve(findings.size());
  for (Finding& finding : findings) {
    // Suppression-syntax findings bypass suppression, as does IO000 (the
    // file was never parsed, so it has no ALLOW lines to honor).
    const bool exempt = finding.rule == "SUP001" ||
                        finding.rule == "SUP002" || finding.rule == "IO000";
    if (!exempt) {
      const auto file_it = by_path.find(finding.file);
      if (file_it != by_path.end()) {
        const auto& allowed = file_it->second->allowed;
        const auto rule_it = allowed.find(finding.rule);
        if (rule_it != allowed.end() &&
            rule_it->second.count(finding.line) > 0) {
          continue;
        }
      }
    }
    out.push_back(std::move(finding));
  }
  return out;
}

}  // namespace expert::lint
