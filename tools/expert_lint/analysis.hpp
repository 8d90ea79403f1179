#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace expert::lint {

/// Internal seams between the token-rule pass (rules.cpp) and the cross-TU
/// index pass (tree.cpp). Not installed; tests include it directly.

/// Path scope that drives which rules apply. Classification keys on path
/// segments so absolute prefixes (and test fixtures that mirror the tree
/// layout) behave identically.
struct Scope {
  bool library = false;       ///< under an include/ or src/ segment
  bool obs = false;           ///< obs module (clock access allowed)
  bool util = false;          ///< util module (atomic_write lives here)
  bool procexec = false;      ///< procexec module (process syscalls allowed)
  bool ordered_only = false;  ///< sim/core/gridsim/strategies/eval/obs/
                              ///< service/stats
  bool header = false;        ///< .hpp file
  /// Concurrency-audited modules (ANN001 coverage): eval/obs/util/
  /// resilience/procexec/service/stats, plus gridsim/env. Empty outside
  /// them.
  std::string ann_module;
};

Scope classify(std::string_view path);

/// Everything pass 1 learns about one file: token-rule findings (before
/// suppression filtering), the declaration index, and the suppression map
/// extracted from comments — enough for pass 2 to run without re-reading
/// the source.
struct FileAnalysis {
  std::string path;
  Scope scope;
  FileIndex index;
  std::vector<Finding> token_findings;
  /// rule id -> source lines where an EXPERT_LINT_ALLOW suppresses it.
  std::map<std::string, std::set<int>> allowed;
};

FileAnalysis analyze_file(std::string_view path, std::string_view source);

/// Pass-2 rules that only need this file's slice of the index (PROC001,
/// SYS001, ANN001, SIG001). `tree` supplies cross-TU lookups (e.g. whether
/// a call qualifier names a known class). `file` is the slice already
/// merged into `tree`; `scope` is its path classification.
void run_index_rules(const FileIndex& file, const Scope& scope,
                     const TreeIndex& tree, std::vector<Finding>& out);

/// LOCK001: build the lock-order graph over every function in the tree and
/// report each strongly connected component as a potential deadlock.
void run_lock_order_rule(const TreeIndex& tree, std::vector<Finding>& out);

/// Resolve a lock expression's trailing member name to a canonical
/// cross-TU mutex identity (exposed for unit tests).
std::string canonical_mutex_name(const TreeIndex& tree,
                                 const FunctionDecl& fn,
                                 const std::string& raw);

/// Drop findings covered by their file's EXPERT_LINT_ALLOW lines.
std::vector<Finding> filter_suppressed(
    std::vector<Finding> findings,
    const std::map<std::string, const FileAnalysis*>& by_path);

}  // namespace expert::lint
