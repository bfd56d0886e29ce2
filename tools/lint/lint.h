#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace qopt::lint {

/// Rule identifiers. Suppress a finding in source with a NOLINT comment
/// naming one or more rule ids, e.g. `(qqo-determinism): <justification>`
/// after the NOLINT keyword on the offending line (or the NEXTLINE variant
/// on the line before). A suppression without a justification, naming an
/// unknown rule, or naming kNolintRule itself is a finding (kNolintRule).
inline constexpr char kDeterminismRule[] = "qqo-determinism";
inline constexpr char kOrderedOutputRule[] = "qqo-ordered-output";
inline constexpr char kDeadlineCoverageRule[] = "qqo-deadline-coverage";
inline constexpr char kObsCoverageRule[] = "qqo-obs-coverage";
inline constexpr char kHotLoopAllocRule[] = "qqo-hot-loop-alloc";
inline constexpr char kHeaderHygieneRule[] = "qqo-header-hygiene";
inline constexpr char kDeadlinePlumbingRule[] = "qqo-deadline-plumbing";
inline constexpr char kLockDisciplineRule[] = "qqo-lock-discipline";
inline constexpr char kPoolReentrancyRule[] = "qqo-pool-reentrancy";
inline constexpr char kNolintRule[] = "qqo-nolint";

/// All checkable rules, in report order (kNolintRule is always active —
/// it polices the suppression mechanism itself and cannot be suppressed).
std::vector<std::string> AllRules();

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

/// Per-directory policy, read from the nearest `.qqo-lint-policy` file in
/// the linted file's directory or any parent. Line-oriented; '#' starts a
/// comment. Recognized keys:
///   result-path        — this directory's files produce results or
///                        serialize output: qqo-ordered-output applies
///   no-result-path     — overrides a parent's result-path
struct Policy {
  bool result_path = false;
};

struct Options {
  /// Rules to run (rule ids without suppression pseudo-rule). Empty = all.
  std::vector<std::string> rules;
  /// Path substrings to skip when expanding directories.
  std::vector<std::string> excludes;
  /// Name of the per-directory policy file.
  std::string policy_filename = ".qqo-lint-policy";
  bool IsRuleEnabled(const std::string& rule) const;
};

/// Cross-TU program index (declaration index + approximate call graph)
/// behind qqo-deadline-plumbing / qqo-lock-discipline / qqo-pool-reentrancy.
/// Defined in lint/callgraph.h.
class ProgramIndex;

/// Lints one file's contents. `path` is used for reporting, for the
/// determinism-rule exemption of src/common/random.*, and for deciding
/// whether the header-hygiene rule applies (.h files only). When `program`
/// is non-null it must be Finalize()d; its per-file findings for `path`
/// join the token-rule findings before rule gating and NOLINT suppression.
/// `companion_header` is the content of the .cc file's same-stem header
/// (a.h for a.cc), or empty: qqo-ordered-output also sees the container
/// names it declares, so a range-for over a class member is caught in the
/// .cc that walks it.
std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const Policy& policy, const Options& options,
                                 const ProgramIndex* program = nullptr,
                                 const std::string& companion_header = {});

/// Expands files/directories (recursing into *.h/*.hpp/*.cc/*.cpp),
/// indexes every file (pass 1), reads per-directory policies, and lints
/// each file (pass 2). Returns false if a path could not be read (usage
/// error); findings are appended either way.
bool LintPaths(const std::vector<std::string>& paths, const Options& options,
               std::vector<Finding>* findings, std::string* error);

/// The qqo_lint CLI: returns 0 when clean, 1 when there are findings,
/// 2 on usage errors. Writes findings to `out`, diagnostics to `err`.
int RunLintMain(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

}  // namespace qopt::lint
