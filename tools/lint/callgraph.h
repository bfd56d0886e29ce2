#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/lint.h"

namespace qopt::lint {

/// Cross-translation-unit program index behind the qqo-deadline-plumbing,
/// qqo-lock-discipline, and qqo-pool-reentrancy rules (see DESIGN.md
/// "Static analysis & code contracts"). Built in the same two passes as the
/// status-discard symbol harvest: pass 1 feeds every file through AddFile,
/// Finalize resolves the global views, and pass 2 (LintContent) pulls the
/// precomputed per-file findings so NOLINT suppression applies normally.
///
/// The model is deliberately approximate — token patterns, not semantics:
///   - calls resolve by unqualified name to every harvested signature with
///     that name (no overload resolution, no templates, no virtual dispatch);
///   - mutexes are identified by their receiver chain text within one file
///     ("state_mutex_", "state.done_mutex"); there is no aliasing across
///     objects or translation units;
///   - code inside a lambda body is deferred: it is not "under" the locks of
///     the function that builds the lambda, and calls made from a lambda do
///     not count toward the builder's own transitive blocking summary.

/// One parameter of a harvested function signature. `type_idents` holds
/// every identifier token of the parameter piece in order ("const",
/// "Deadline", "d"); punctuation is dropped and default arguments are
/// stripped. The last identifier doubles as `name` — for an unnamed
/// parameter that leaves the type's own name there, which is exactly what
/// the budget-overload scan needs.
struct ParamInfo {
  std::vector<std::string> type_idents;
  std::string name;
};

/// A function signature harvested from a declaration or a definition.
struct SignatureInfo {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<ParamInfo> params;
  bool is_definition = false;
};

/// A call site inside a function definition body: callee name plus every
/// identifier appearing in the argument list (member chains flattened, so
/// `Solve(qubo, options.anneal)` captures {qubo, options, anneal}).
struct CallInfo {
  std::string callee;
  int line = 0;
  std::vector<std::string> arg_idents;
  /// True when the call sits inside a lambda body within this definition:
  /// it runs later (possibly on the pool), not on the caller's stack.
  bool deferred = false;
};

/// A function definition with the body-derived facts the cross-TU rules
/// consume.
struct DefinitionInfo {
  SignatureInfo signature;
  std::vector<CallInfo> calls;
  /// Mutex chains acquired by guards in the body itself (lambda bodies
  /// excluded — a lock taken by a submitted task is not taken here).
  std::set<std::string> acquires;
  /// True when the body itself blocks: ParallelFor*/WaitFor, a
  /// condition-variable wait, or a future .get().
  bool blocks_directly = false;

  /// A budget-charging statement: `target` starts carrying the budget when
  /// the right-hand side visibly involves one — a budget-named identifier
  /// (deadline/token/budget/cancel) or a budget-typed parameter. Harvested
  /// from assignments and initializations, so struct-member forwarding
  /// (`anneal.deadline = Compose(...)`) marks `anneal` as a carrier.
  /// Derived values (`int p = options.qaoa_reps;`) do NOT charge: only
  /// member writes (`member == true`) may chain through already-charged
  /// locals, otherwise everything computed from an options struct would
  /// count as forwarding the budget.
  struct Charge {
    std::string target;
    std::vector<std::string> rhs_idents;
    bool member = false;  ///< LHS was a member write (x.field = ...).
  };
  std::vector<Charge> charges;
};

class ProgramIndex {
 public:
  /// Pass 1: lex and parse one file into the index. `path` must be unique
  /// across calls (it keys the per-file views).
  void AddFile(const std::string& path, const std::string& content);

  /// Resolves the global views — budget-bearing struct fixed point,
  /// transitive acquires*/blocks* summaries over the call graph, the
  /// mutex-order graph and its cycles — and precomputes the per-file
  /// findings for the three cross-TU rules. Call once, after every AddFile.
  void Finalize();

  /// Raw cross-TU findings for `path`: rule-tagged but unfiltered.
  /// LintContent applies rule gating and NOLINT suppression on top.
  const std::vector<Finding>& FindingsFor(const std::string& path) const;

  /// True for Deadline/CancelToken/SolveBudget and for any harvested struct
  /// that (transitively) holds a member of a budget type.
  bool IsBudgetType(const std::string& type_ident) const;

  /// True when any harvested signature of `function_name` has a parameter
  /// of a budget type — the callee side of qqo-deadline-plumbing.
  bool HasBudgetOverload(const std::string& function_name) const;

  /// Every harvested signature with this unqualified name, ordered by
  /// (file, line). Pointers remain valid while the index lives.
  std::vector<const SignatureInfo*> SignaturesOf(const std::string& name) const;

  /// The function definitions harvested from `path`, in source order.
  const std::vector<DefinitionInfo>& DefinitionsIn(
      const std::string& path) const;

 private:
  /// A nested lock acquisition: `inner` taken while `outer` is held, both
  /// named by their file-local chains.
  struct NestedLock {
    std::string outer;
    std::string inner;
    int line = 0;
  };

  /// A call made while at least one lock is held (anywhere in the file,
  /// function bodies and test bodies alike).
  struct CallUnderLock {
    std::string callee;
    int line = 0;
    std::vector<std::string> held;  ///< chains, innermost-last
  };

  struct FilePack {
    std::vector<DefinitionInfo> defs;
    std::vector<SignatureInfo> decls;  ///< non-definition declarations
    /// struct/class name -> identifier tokens of its data-member types.
    std::map<std::string, std::set<std::string>> struct_members;
    std::vector<NestedLock> nested_locks;
    std::vector<CallUnderLock> calls_under_lock;
    /// Findings computable from this file alone (pool reentrancy,
    /// recursive locking, direct blocking under a lock).
    std::vector<Finding> local;
  };

  void CheckDeadlinePlumbing();
  void CheckLockDiscipline();

  std::map<std::string, FilePack> files_;
  std::set<std::string> budget_types_;
  std::set<std::string> budget_overloads_;
  std::map<std::string, std::vector<const SignatureInfo*>> by_name_;
  std::map<std::string, std::vector<Finding>> findings_;
  bool finalized_ = false;
};

}  // namespace qopt::lint
