#include "lint/callgraph.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <functional>
#include <tuple>
#include <utility>

namespace qopt::lint {

namespace {

bool ContainsNoCase(const std::string& haystack, const std::string& needle) {
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(),
                        needle.end(), [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                        });
  return it != haystack.end();
}

/// Identifiers that can never be function names or callees.
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "if",       "else",     "for",      "while",     "do",
      "switch",   "case",     "default",  "return",    "break",
      "continue", "goto",     "new",      "delete",    "sizeof",
      "alignof",  "alignas",  "decltype", "noexcept",  "typedef",
      "using",    "namespace","template", "typename",  "const",
      "constexpr","static",   "inline",   "extern",    "explicit",
      "virtual",  "override", "final",    "public",    "private",
      "protected","friend",   "class",    "struct",    "enum",
      "union",    "try",      "catch",    "throw",     "operator",
      "this",     "nullptr",  "true",     "false",     "auto",
      "void",     "bool",     "char",     "short",     "int",
      "long",     "float",    "double",   "signed",    "unsigned",
      "mutable",  "volatile", "requires", "concept",   "co_await",
      "co_return","co_yield", "thread_local", "static_assert",
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "not", "and", "or", "asm"};
  return kKeywords;
}

/// ALL_CAPS identifiers are macro invocations (TEST, QOPT_CHECK, ...); the
/// index skips them as names — the calls nested in their arguments are
/// still harvested.
bool MacroLike(const std::string& name) {
  if (name.size() < 2) return false;
  bool has_alpha = false;
  for (char c : name) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

/// An identifier that self-evidently carries budget state: forwarding
/// `options.deadline` or `race_token` satisfies qqo-deadline-plumbing even
/// when the charging analysis never saw the value being built.
bool BudgetNamed(const std::string& ident) {
  return ContainsNoCase(ident, "deadline") || ContainsNoCase(ident, "budget") ||
         ContainsNoCase(ident, "token") || ContainsNoCase(ident, "cancel");
}

/// A token-level identifier preceding a candidate function name that is
/// compatible with a declaration ("Status", "&", "::", ...).
bool BannedPrevIdent(const std::string& text) {
  static const std::set<std::string> kBanned = {
      "return", "else",   "do",       "case",     "new",      "delete",
      "throw",  "goto",   "sizeof",   "alignof",  "typedef",  "using",
      "co_await", "co_return", "co_yield", "not", "and", "or"};
  return kBanned.count(text) > 0 || MacroLike(text);
}

const std::set<std::string>& GuardTypes() {
  static const std::set<std::string> kGuards = {"lock_guard", "unique_lock",
                                                "scoped_lock", "shared_lock"};
  return kGuards;
}

/// Calls that block the current thread on the pool or on other work.
const std::set<std::string>& PoolBlockingCalls() {
  static const std::set<std::string> kBlocking = {
      "ParallelFor", "ParallelForRange", "WaitFor"};
  return kBlocking;
}

const std::set<std::string>& CvWaitNames() {
  static const std::set<std::string> kWaits = {"wait", "wait_for",
                                               "wait_until"};
  return kWaits;
}

/// Calls that hand a lambda to the ThreadPool for execution.
const std::set<std::string>& PoolEntryCalls() {
  static const std::set<std::string> kEntries = {"Submit", "ParallelFor",
                                                 "ParallelForRange"};
  return kEntries;
}

std::string BaseName(const std::string& path) {
  return std::filesystem::path(path).filename().generic_string();
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += "', '";
    out += name;
  }
  return "'" + out + "'";
}

// Everything AddFile extracts from one translation unit; ProgramIndex
// copies it into its private per-file pack.
struct ParsedNested {
  std::string outer;
  std::string inner;
  int line = 0;
};
struct ParsedCallUnderLock {
  std::string callee;
  int line = 0;
  std::vector<std::string> held;
};
struct ParsedFile {
  std::vector<DefinitionInfo> defs;
  std::vector<SignatureInfo> decls;
  std::map<std::string, std::set<std::string>> struct_members;
  std::vector<ParsedNested> nested;
  std::vector<ParsedCallUnderLock> calls_under_lock;
  std::vector<Finding> local;
};

/// Single-file extraction pass. Token-structural only: no symbol
/// resolution happens here (that is Finalize's job).
class FileParser {
 public:
  FileParser(std::string path, const std::string& content)
      : path_(std::move(path)), lex_(Lex(content)), toks_(lex_.tokens) {
    BuildStructure();
  }

  ParsedFile Run() {
    HarvestStructs();
    HarvestFunctions();
    HarvestLocks();
    HarvestDefBodies();
    CheckPoolReentrancy();
    return std::move(out_);
  }

 private:
  bool IsPunct(std::size_t i, const char* text) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kPunct &&
           toks_[i].text == text;
  }
  bool IsIdent(std::size_t i) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kIdent;
  }
  bool MemberAccess(std::size_t i) const {
    return i > 0 && toks_[i - 1].kind == TokKind::kPunct &&
           (toks_[i - 1].text == "." || toks_[i - 1].text == "->");
  }

  /// Brace matching, innermost enclosing "{" per token, and lambda-body
  /// brace detection (a "[" capture list that is not a subscript or an
  /// attribute, followed by an optional parameter list and specifiers,
  /// then "{").
  void BuildStructure() {
    const std::size_t n = toks_.size();
    brace_match_.assign(n, n);
    enclosing_open_.assign(n, n);
    lambda_body_.assign(n, false);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < n; ++i) {
      enclosing_open_[i] = stack.empty() ? n : stack.back();
      if (toks_[i].kind != TokKind::kPunct) continue;
      if (toks_[i].text == "{") {
        stack.push_back(i);
      } else if (toks_[i].text == "}" && !stack.empty()) {
        brace_match_[stack.back()] = i;
        stack.pop_back();
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!IsPunct(i, "[")) continue;
      if (i > 0 && (toks_[i - 1].kind == TokKind::kIdent ||
                    toks_[i - 1].text == "]" || toks_[i - 1].text == ")")) {
        continue;  // subscript
      }
      if (IsPunct(i + 1, "[")) continue;  // [[attribute]]
      int depth = 0;
      std::size_t j = i;
      for (; j < n; ++j) {
        if (toks_[j].kind != TokKind::kPunct) continue;
        if (toks_[j].text == "[") ++depth;
        if (toks_[j].text == "]" && --depth == 0) break;
      }
      if (j >= n) continue;
      std::size_t k = j + 1;
      if (IsPunct(k, "(")) k = SkipParens(toks_, k);
      while (k < n && (toks_[k].kind == TokKind::kIdent ||
                       toks_[k].text == "->" || toks_[k].text == "::" ||
                       toks_[k].text == "&" || toks_[k].text == "*")) {
        if (toks_[k].text == "noexcept" && IsPunct(k + 1, "(")) {
          k = SkipParens(toks_, k + 1);
        } else {
          ++k;
        }
      }
      if (k < n && IsPunct(k, "{")) lambda_body_[k] = true;
    }
  }

  /// Walks [begin, end) skipping lambda bodies that START inside the range
  /// — their code runs later, not here. Calls fn(i) for executed tokens.
  void ForEachExecuted(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& fn) const {
    for (std::size_t i = begin; i < end; ++i) {
      if (lambda_body_[i] && i > begin) {
        i = brace_match_[i] == toks_.size() ? end : brace_match_[i];
        continue;
      }
      fn(i);
    }
  }

  // --- struct member harvest (budget-bearing fixed point input) ---
  void HarvestStructs() {
    const std::size_t n = toks_.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (!IsIdent(i) ||
          (toks_[i].text != "struct" && toks_[i].text != "class")) {
        continue;
      }
      if (i > 0 && toks_[i - 1].kind == TokKind::kIdent &&
          toks_[i - 1].text == "enum") {
        continue;  // enum class: enumerators, not members
      }
      if (!IsIdent(i + 1)) continue;
      const std::string name = toks_[i + 1].text;
      std::size_t j = i + 2;
      while (j < n && !IsPunct(j, "{") && !IsPunct(j, ";")) {
        j = IsPunct(j, "(") ? SkipParens(toks_, j) : j + 1;
      }
      if (!IsPunct(j, "{")) continue;  // forward declaration
      const std::size_t close = brace_match_[j];
      std::set<std::string>& members = out_.struct_members[name];
      std::vector<std::string> idents;
      bool has_paren = false;
      bool stopped = false;
      auto reset = [&] {
        idents.clear();
        has_paren = false;
        stopped = false;
      };
      for (std::size_t k = j + 1; k < close;) {
        const Tok& t = toks_[k];
        if (t.kind == TokKind::kPunct && t.text == "(") {
          if (!stopped) has_paren = true;
          k = SkipParens(toks_, k);
          continue;
        }
        if (t.kind == TokKind::kPunct && t.text == "{") {
          const bool was_fn = has_paren;
          k = SkipBraces(toks_, k);
          if (was_fn) {
            reset();  // in-class method body; no trailing ";" required
          } else {
            stopped = true;  // brace init or nested type body
          }
          continue;
        }
        if (t.kind == TokKind::kPunct && (t.text == ";" || t.text == ":")) {
          if (t.text == ";" && !has_paren && idents.size() >= 2) {
            // data member: every identifier before the member name is part
            // of its type spelling
            for (std::size_t m = 0; m + 1 < idents.size(); ++m) {
              members.insert(idents[m]);
            }
          }
          reset();
          ++k;
          continue;
        }
        if (!stopped && t.kind == TokKind::kIdent) idents.push_back(t.text);
        if (!stopped && t.kind == TokKind::kPunct && t.text == "=") {
          stopped = true;
        }
        ++k;
      }
    }
  }

  // --- function declaration / definition harvest ---

  /// Top-level comma-separated ranges of a parenthesized group;
  /// `open` indexes "(" and `close` its ")".
  std::vector<std::pair<std::size_t, std::size_t>> SplitPieces(
      std::size_t open, std::size_t close) const {
    std::vector<std::pair<std::size_t, std::size_t>> pieces;
    std::size_t start = open + 1;
    for (std::size_t j = open + 1; j < close;) {
      if (IsPunct(j, "(")) {
        j = SkipParens(toks_, j);
      } else if (IsPunct(j, "<") || IsPunct(j, "<<")) {
        j = SkipAngles(toks_, j);
      } else if (IsPunct(j, "{")) {
        j = SkipBraces(toks_, j);
      } else if (IsPunct(j, ",")) {
        pieces.emplace_back(start, j);
        start = ++j;
      } else {
        ++j;
      }
    }
    if (start < close) pieces.emplace_back(start, close);
    return pieces;
  }

  ParamInfo ParseParam(std::size_t begin, std::size_t end) const {
    ParamInfo param;
    for (std::size_t j = begin; j < end; ++j) {
      if (IsPunct(j, "=")) break;  // default argument
      if (IsIdent(j)) param.type_idents.push_back(toks_[j].text);
    }
    if (!param.type_idents.empty()) param.name = param.type_idents.back();
    return param;
  }

  /// Declaration-shaped parameter list: every piece (default stripped)
  /// reads as "type name" — at least two tokens, no member access, no
  /// literals, no nested call parens. Rejects constructor-style locals
  /// (`Statevector state(n);`) masquerading as declarations.
  bool PiecesLookDeclared(
      const std::vector<std::pair<std::size_t, std::size_t>>& pieces) const {
    for (const auto& [begin, end] : pieces) {
      std::size_t count = 0;
      for (std::size_t j = begin; j < end; ++j) {
        if (IsPunct(j, "=")) break;
        const Tok& t = toks_[j];
        if (t.kind == TokKind::kNumber || t.kind == TokKind::kString ||
            t.kind == TokKind::kChar) {
          return false;
        }
        if (t.kind == TokKind::kPunct &&
            (t.text == "." || t.text == "->" || t.text == "(")) {
          return false;
        }
        ++count;
      }
      if (count < 2) return false;
    }
    return true;
  }

  /// Skips const/noexcept/ref-qualifiers/trailing-return after the ")" of
  /// a candidate signature. Returns the index of the token that decides
  /// its fate ("{" definition, ":" ctor-init, ";" declaration).
  std::size_t SkipSignatureSuffix(std::size_t after) const {
    const std::size_t n = toks_.size();
    while (after < n) {
      const Tok& t = toks_[after];
      if (t.kind == TokKind::kIdent &&
          (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
           t.text == "final" || t.text == "mutable")) {
        if (t.text == "noexcept" && IsPunct(after + 1, "(")) {
          after = SkipParens(toks_, after + 1);
        } else {
          ++after;
        }
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "&") {
        ++after;
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "->") {
        ++after;  // trailing return type: skip its name tokens
        while (after < n &&
               (toks_[after].kind == TokKind::kIdent ||
                toks_[after].text == "::" || toks_[after].text == "&" ||
                toks_[after].text == "*")) {
          ++after;
        }
        if (after < n && (IsPunct(after, "<") || IsPunct(after, "<<"))) {
          after = SkipAngles(toks_, after);
        }
        continue;
      }
      break;
    }
    return after;
  }

  /// Walks a constructor member-init list starting just past the ":".
  /// Returns the index of the body "{", or toks_.size() when the shape
  /// does not match.
  std::size_t SkipCtorInitList(std::size_t j) const {
    const std::size_t n = toks_.size();
    while (j < n) {
      if (!IsIdent(j)) return n;
      ++j;
      while (IsPunct(j, "::") && IsIdent(j + 1)) j += 2;  // qualified base
      if (IsPunct(j, "<")) j = SkipAngles(toks_, j);      // templated base
      if (IsPunct(j, "(")) {
        j = SkipParens(toks_, j);
      } else if (IsPunct(j, "{")) {
        j = SkipBraces(toks_, j);
      } else {
        return n;
      }
      if (IsPunct(j, ",")) {
        ++j;
        continue;
      }
      return IsPunct(j, "{") ? j : n;
    }
    return n;
  }

  void HarvestFunctions() {
    const std::size_t n = toks_.size();
    struct Candidate {
      SignatureInfo sig;
      std::size_t name_idx = 0;
      std::size_t body_open = 0;  // toks_.size() for declarations
    };
    std::vector<Candidate> cands;
    for (std::size_t i = 0; i < n; ++i) {
      if (!IsIdent(i)) continue;
      const std::string& name = toks_[i].text;
      if (Keywords().count(name) > 0 || MacroLike(name)) continue;
      if (!IsPunct(i + 1, "(")) continue;
      const std::size_t past_params = SkipParens(toks_, i + 1);
      if (past_params >= n || !IsPunct(past_params - 1, ")")) continue;
      // Classify the token before the name.
      bool prev_common = i == 0;
      bool prev_def_only = false;
      if (i > 0) {
        const Tok& prev = toks_[i - 1];
        if (prev.kind == TokKind::kIdent) {
          prev_common = !BannedPrevIdent(prev.text);
        } else if (prev.text == "&" || prev.text == "*" ||
                   prev.text == "::" || prev.text == ">" ||
                   prev.text == ">>" || prev.text == "~" ||
                   prev.text == ":") {
          prev_common = true;
        } else if (prev.text == "{" || prev.text == "}" || prev.text == ";") {
          prev_def_only = true;  // in-class ctor after a member/body
        }
      }
      if (!prev_common && !prev_def_only) continue;
      std::size_t after = SkipSignatureSuffix(past_params);
      std::size_t body = n;
      if (after < n && IsPunct(after, "{")) {
        body = after;
      } else if (after < n && IsPunct(after, ":")) {
        body = SkipCtorInitList(after + 1);
      }
      const auto pieces = SplitPieces(i + 1, past_params - 1);
      if (body < n) {
        Candidate cand;
        cand.sig.name = name;
        cand.sig.file = path_;
        cand.sig.line = toks_[i].line;
        cand.sig.is_definition = true;
        for (const auto& [b, e] : pieces) {
          cand.sig.params.push_back(ParseParam(b, e));
        }
        cand.name_idx = i;
        cand.body_open = body;
        cands.push_back(std::move(cand));
        continue;
      }
      if (!prev_common) continue;  // declarations need a type-ish prev
      if (after >= n || !IsPunct(after, ";")) continue;
      if (!PiecesLookDeclared(pieces)) continue;
      Candidate cand;
      cand.sig.name = name;
      cand.sig.file = path_;
      cand.sig.line = toks_[i].line;
      for (const auto& [b, e] : pieces) {
        cand.sig.params.push_back(ParseParam(b, e));
      }
      cand.name_idx = i;
      cand.body_open = n;
      cands.push_back(std::move(cand));
    }
    // Drop candidates nested inside another candidate's body: those are
    // locals and lambdas-with-names, not program-level functions.
    for (const Candidate& cand : cands) {
      bool nested = false;
      for (const Candidate& outer : cands) {
        if (outer.body_open >= n || &outer == &cand) continue;
        if (cand.name_idx > outer.body_open &&
            cand.name_idx < brace_match_[outer.body_open]) {
          nested = true;
          break;
        }
      }
      if (nested) continue;
      if (cand.body_open < n) {
        DefinitionInfo def;
        def.signature = cand.sig;
        def_bodies_.emplace_back(cand.body_open, brace_match_[cand.body_open]);
        out_.defs.push_back(std::move(def));
      } else {
        out_.decls.push_back(cand.sig);
      }
    }
  }

  // --- locks, blocking events, calls under lock ---

  struct Region {
    std::size_t decl = 0;
    std::size_t end = 0;
    std::string chain;
    std::string guard;
    int line = 0;
  };

  bool IsBlockingEvent(std::size_t i, bool* is_cv_wait) const {
    *is_cv_wait = false;
    if (!IsIdent(i) || !IsPunct(i + 1, "(")) return false;
    const std::string& name = toks_[i].text;
    if (PoolBlockingCalls().count(name) > 0) return true;
    if (MemberAccess(i) && CvWaitNames().count(name) > 0) {
      *is_cv_wait = true;
      return true;
    }
    if (MemberAccess(i) && name == "get" && i >= 2 && IsIdent(i - 2) &&
        ContainsNoCase(toks_[i - 2].text, "future")) {
      return true;
    }
    return false;
  }

  void HarvestLocks() {
    const std::size_t n = toks_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!IsIdent(i) || GuardTypes().count(toks_[i].text) == 0) continue;
      std::size_t j = i + 1;
      if (IsPunct(j, "<")) j = SkipAngles(toks_, j);
      if (!IsIdent(j) || !IsPunct(j + 1, "(")) continue;
      const std::string guard = toks_[j].text;
      const std::size_t open = j + 1;
      const std::size_t past = SkipParens(toks_, open);
      std::size_t end = enclosing_open_[i] == n
                            ? n
                            : brace_match_[enclosing_open_[i]];
      // `guard.unlock()` releases early: the region ends there.
      for (std::size_t k = past; k < end; ++k) {
        if (IsIdent(k) && toks_[k].text == guard && MemberAccess(k) == false &&
            IsPunct(k + 1, ".") && k + 2 < n &&
            toks_[k + 2].text == "unlock") {
          end = k;
          break;
        }
      }
      for (const auto& [pb, pe] : SplitPieces(open, past - 1)) {
        std::string chain;
        bool deferred_tag = false;
        for (std::size_t k = pb; k < pe; ++k) {
          if (!IsIdent(k)) continue;
          const std::string& part = toks_[k].text;
          if (part == "defer_lock" || part == "adopt_lock" ||
              part == "try_to_lock") {
            deferred_tag = true;
            break;
          }
          if (part == "std") continue;
          if (!chain.empty()) chain += ".";
          chain += part;
        }
        if (deferred_tag || chain.empty()) continue;
        regions_.push_back({i, end, chain, guard, toks_[i].line});
      }
    }
    // held_by: which regions are live at each executed token.
    held_by_.assign(n, {});
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      ForEachExecuted(regions_[r].decl + 1, regions_[r].end,
                      [&](std::size_t idx) { held_by_[idx].push_back(r); });
    }
    auto held_chains = [&](std::size_t idx) {
      std::vector<std::string> chains;
      for (std::size_t r : held_by_[idx]) chains.push_back(regions_[r].chain);
      return chains;
    };
    // Nested acquisitions -> ordering edges; same chain -> self-deadlock.
    for (std::size_t r2 = 0; r2 < regions_.size(); ++r2) {
      const Region& inner = regions_[r2];
      for (std::size_t r1 : held_by_[inner.decl]) {
        const Region& outer = regions_[r1];
        if (outer.decl == inner.decl) continue;  // one scoped_lock(a, b)
        if (outer.chain == inner.chain) {
          out_.local.push_back(
              {kLockDisciplineRule, path_, inner.line,
               "mutex '" + inner.chain +
                   "' is locked while already held (guard '" + outer.guard +
                   "' at line " + std::to_string(outer.line) +
                   "): std::mutex self-deadlocks on recursive acquisition"});
        } else {
          out_.nested.push_back({outer.chain, inner.chain, inner.line});
        }
      }
    }
    // Blocking events and plain calls made while a lock is held.
    for (std::size_t i = 0; i < n; ++i) {
      if (held_by_[i].empty()) continue;
      bool is_cv_wait = false;
      if (IsBlockingEvent(i, &is_cv_wait)) {
        if (is_cv_wait) {
          // wait(lock) atomically releases its own guard; that is the one
          // sanctioned blocking-under-lock shape — as long as no OTHER
          // lock is still held.
          std::string first_arg;
          for (std::size_t k = i + 2; k < SkipParens(toks_, i + 1); ++k) {
            if (IsIdent(k)) {
              first_arg = toks_[k].text;
              break;
            }
          }
          bool all_released = !first_arg.empty();
          for (std::size_t r : held_by_[i]) {
            if (regions_[r].guard != first_arg) all_released = false;
          }
          if (all_released) continue;
        }
        out_.local.push_back(
            {kLockDisciplineRule, path_, toks_[i].line,
             "blocking call '" + toks_[i].text + "' while holding lock(s) " +
                 JoinNames(held_chains(i)) +
                 ": a thread parked here keeps the mutex and can deadlock "
                 "the lock's other users (move the blocking call outside "
                 "the critical section)"});
        continue;
      }
      if (IsIdent(i) && IsPunct(i + 1, "(") &&
          Keywords().count(toks_[i].text) == 0 && !MacroLike(toks_[i].text) &&
          GuardTypes().count(toks_[i].text) == 0) {
        out_.calls_under_lock.push_back(
            {toks_[i].text, toks_[i].line, held_chains(i)});
      }
    }
  }

  // --- per-definition facts: calls, charges, acquires, direct blocking ---
  void HarvestDefBodies() {
    for (std::size_t d = 0; d < out_.defs.size(); ++d) {
      DefinitionInfo& def = out_.defs[d];
      const auto [body, body_end] = def_bodies_[d];
      std::vector<std::size_t> lambda_ends;
      for (std::size_t i = body + 1; i < body_end; ++i) {
        while (!lambda_ends.empty() && i >= lambda_ends.back()) {
          lambda_ends.pop_back();
        }
        if (lambda_body_[i]) lambda_ends.push_back(brace_match_[i]);
        // Call sites (argument identifiers flattened).
        if (IsIdent(i) && IsPunct(i + 1, "(") &&
            Keywords().count(toks_[i].text) == 0 &&
            !MacroLike(toks_[i].text)) {
          CallInfo call;
          call.callee = toks_[i].text;
          call.line = toks_[i].line;
          call.deferred = !lambda_ends.empty();
          const std::size_t past = SkipParens(toks_, i + 1);
          for (std::size_t k = i + 2; k + 1 < past; ++k) {
            if (IsIdent(k)) call.arg_idents.push_back(toks_[k].text);
          }
          def.calls.push_back(std::move(call));
        }
        // Constructor-style charge: `CancelToken race_token(parent...)`.
        if (IsIdent(i) && IsIdent(i + 1) && IsPunct(i + 2, "(") &&
            Keywords().count(toks_[i].text) == 0 &&
            Keywords().count(toks_[i + 1].text) == 0 &&
            !MacroLike(toks_[i].text) &&
            (IsPunct(i - 1, ";") || IsPunct(i - 1, "{") ||
             IsPunct(i - 1, "}"))) {
          DefinitionInfo::Charge charge;
          charge.target = toks_[i + 1].text;
          const std::size_t past = SkipParens(toks_, i + 2);
          for (std::size_t k = i + 3; k + 1 < past; ++k) {
            if (IsIdent(k)) charge.rhs_idents.push_back(toks_[k].text);
          }
          if (!charge.rhs_idents.empty()) {
            def.charges.push_back(std::move(charge));
          }
        }
        // Assignment / initialization charge.
        if (IsPunct(i, "=") && !IsPunct(i + 1, "=") && i > body + 1) {
          const Tok& before = toks_[i - 1];
          const bool compound =
              before.kind == TokKind::kPunct &&
              (before.text == "=" || before.text == "!" ||
               before.text == "<" || before.text == ">" ||
               before.text == "+" || before.text == "-" ||
               before.text == "*" || before.text == "/" ||
               before.text == "%" || before.text == "&" ||
               before.text == "|" || before.text == "^");
          if (compound) continue;
          // LHS: walk back to the statement boundary.
          std::size_t lhs_begin = i;
          while (lhs_begin > body + 1) {
            const Tok& t = toks_[lhs_begin - 1];
            if (t.kind == TokKind::kPunct &&
                (t.text == ";" || t.text == "{" || t.text == "}" ||
                 t.text == "(" || t.text == ",")) {
              break;
            }
            --lhs_begin;
          }
          DefinitionInfo::Charge charge;
          bool lhs_member = false;
          std::string first_ident;
          std::string last_ident;
          for (std::size_t k = lhs_begin; k < i; ++k) {
            if (toks_[k].kind == TokKind::kPunct &&
                (toks_[k].text == "." || toks_[k].text == "->")) {
              lhs_member = true;
            }
            if (IsIdent(k)) {
              if (first_ident.empty()) first_ident = toks_[k].text;
              last_ident = toks_[k].text;
            }
          }
          // `anneal.deadline = ...` charges the container; `Deadline d = ...`
          // charges the declared name.
          charge.target = lhs_member ? first_ident : last_ident;
          charge.member = lhs_member;
          if (charge.target.empty()) continue;
          // A lambda on the right-hand side is code, not a budget value:
          // `auto f = [tok](...) {...};` must not make `f` a carrier via
          // the captures (calling f() forwards nothing).
          if (IsPunct(i + 1, "[")) continue;
          int depth = 0;
          for (std::size_t k = i + 1; k < body_end; ++k) {
            if (toks_[k].kind == TokKind::kPunct) {
              if (toks_[k].text == "(") ++depth;
              if (toks_[k].text == ")") --depth;
              if (toks_[k].text == "{") {
                // Brace group (lambda body, braced init of a subobject):
                // statement-local code, not part of this value expression.
                k = SkipBraces(toks_, k) - 1;
                continue;
              }
              if (toks_[k].text == ";" && depth <= 0) break;
            }
            if (IsIdent(k)) charge.rhs_idents.push_back(toks_[k].text);
          }
          if (!charge.rhs_idents.empty()) {
            def.charges.push_back(std::move(charge));
          }
        }
      }
      // Executed-only facts: locks taken and blocking done by this body
      // itself (not by lambdas it hands to the pool).
      for (const Region& region : regions_) {
        if (region.decl > body && region.decl < body_end) {
          bool deferred = false;
          for (std::size_t i = body + 1; i < region.decl; ++i) {
            if (lambda_body_[i] && brace_match_[i] > region.decl) {
              deferred = true;
              break;
            }
          }
          if (!deferred) def.acquires.insert(region.chain);
        }
      }
      ForEachExecuted(body + 1, body_end, [&](std::size_t i) {
        bool is_cv_wait = false;
        if (IsBlockingEvent(i, &is_cv_wait)) def.blocks_directly = true;
      });
    }
  }

  // --- qqo-pool-reentrancy: blocking pool use inside pool lambdas ---
  void CheckPoolReentrancy() {
    const std::size_t n = toks_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!IsIdent(i) || PoolEntryCalls().count(toks_[i].text) == 0 ||
          !IsPunct(i + 1, "(")) {
        continue;
      }
      const std::size_t past = SkipParens(toks_, i + 1);
      for (std::size_t k = i + 2; k + 1 < past; ++k) {
        if (!lambda_body_[k]) continue;
        const std::size_t body_end = brace_match_[k];
        ForEachExecuted(k + 1, body_end, [&](std::size_t t) {
          if (!IsIdent(t) || !IsPunct(t + 1, "(")) return;
          const std::string& name = toks_[t].text;
          if (PoolBlockingCalls().count(name) > 0) {
            out_.local.push_back(
                {kPoolReentrancyRule, path_, toks_[t].line,
                 "'" + name + "' inside a lambda running on the ThreadPool: "
                 "nested parallel sections make a worker wait for workers "
                 "(starvation deadlock) — keep one parallel level or run "
                 "the inner section inline"});
            return;
          }
          if (MemberAccess(t) && CvWaitNames().count(name) > 0) {
            out_.local.push_back(
                {kPoolReentrancyRule, path_, toks_[t].line,
                 "condition-variable wait inside a lambda running on the "
                 "ThreadPool parks a worker thread; signal completion "
                 "without blocking the pool"});
            return;
          }
          if (name == "Submit") {
            const std::size_t after = SkipParens(toks_, t + 1);
            if (IsPunct(after, ".") && after + 1 < n &&
                toks_[after + 1].text == "get") {
              out_.local.push_back(
                  {kPoolReentrancyRule, path_, toks_[t].line,
                   "blocking pool submission Submit(...).get() inside a "
                   "lambda already running on the ThreadPool: the waiting "
                   "worker occupies the slot its task needs"});
            }
            return;
          }
          if (MemberAccess(t) && name == "get" && t >= 2 && IsIdent(t - 2) &&
              ContainsNoCase(toks_[t - 2].text, "future")) {
            out_.local.push_back(
                {kPoolReentrancyRule, path_, toks_[t].line,
                 "future .get() inside a lambda running on the ThreadPool "
                 "blocks a worker on other pool work"});
          }
        });
        k = body_end;
      }
    }
  }

  const std::string path_;
  const LexResult lex_;
  const std::vector<Tok>& toks_;
  std::vector<std::size_t> brace_match_;
  std::vector<std::size_t> enclosing_open_;
  std::vector<bool> lambda_body_;
  std::vector<std::pair<std::size_t, std::size_t>> def_bodies_;
  std::vector<Region> regions_;
  std::vector<std::vector<std::size_t>> held_by_;
  ParsedFile out_;
};

}  // namespace

void ProgramIndex::AddFile(const std::string& path,
                           const std::string& content) {
  ParsedFile parsed = FileParser(path, content).Run();
  FilePack& pack = files_[path];
  pack.defs = std::move(parsed.defs);
  pack.decls = std::move(parsed.decls);
  pack.struct_members = std::move(parsed.struct_members);
  for (ParsedNested& nested : parsed.nested) {
    pack.nested_locks.push_back({nested.outer, nested.inner, nested.line});
  }
  for (ParsedCallUnderLock& cul : parsed.calls_under_lock) {
    pack.calls_under_lock.push_back(
        {std::move(cul.callee), cul.line, std::move(cul.held)});
  }
  pack.local = std::move(parsed.local);
}

void ProgramIndex::Finalize() {
  finalized_ = true;
  // Budget-bearing struct fixed point: a struct whose members (transitively)
  // include a Deadline/CancelToken/SolveBudget carries budget state, so a
  // parameter of that type makes its function budget-receiving.
  budget_types_ = {"Deadline", "CancelToken", "SolveBudget"};
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [path, pack] : files_) {
      for (const auto& [name, members] : pack.struct_members) {
        if (budget_types_.count(name) > 0) continue;
        for (const std::string& member_type : members) {
          if (budget_types_.count(member_type) > 0) {
            budget_types_.insert(name);
            changed = true;
            break;
          }
        }
      }
    }
  }
  // Name-indexed signatures and the budget-overload set.
  for (const auto& [path, pack] : files_) {
    for (const SignatureInfo& sig : pack.decls) {
      by_name_[sig.name].push_back(&sig);
    }
    for (const DefinitionInfo& def : pack.defs) {
      by_name_[def.signature.name].push_back(&def.signature);
    }
  }
  for (auto& [name, sigs] : by_name_) {
    std::sort(sigs.begin(), sigs.end(),
              [](const SignatureInfo* a, const SignatureInfo* b) {
                return std::tie(a->file, a->line) < std::tie(b->file, b->line);
              });
    for (const SignatureInfo* sig : sigs) {
      for (const ParamInfo& param : sig->params) {
        for (const std::string& type : param.type_idents) {
          if (budget_types_.count(type) > 0) {
            budget_overloads_.insert(name);
            break;
          }
        }
      }
    }
  }
  CheckDeadlinePlumbing();
  CheckLockDiscipline();
  for (auto& [path, pack] : files_) {
    std::vector<Finding>& sink = findings_[path];
    sink.insert(sink.end(), pack.local.begin(), pack.local.end());
  }
}

const std::vector<Finding>& ProgramIndex::FindingsFor(
    const std::string& path) const {
  static const std::vector<Finding> kEmpty;
  const auto it = findings_.find(path);
  return it == findings_.end() ? kEmpty : it->second;
}

bool ProgramIndex::IsBudgetType(const std::string& type_ident) const {
  return budget_types_.count(type_ident) > 0;
}

bool ProgramIndex::HasBudgetOverload(const std::string& function_name) const {
  return budget_overloads_.count(function_name) > 0;
}

std::vector<const SignatureInfo*> ProgramIndex::SignaturesOf(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? std::vector<const SignatureInfo*>{}
                              : it->second;
}

const std::vector<DefinitionInfo>& ProgramIndex::DefinitionsIn(
    const std::string& path) const {
  static const std::vector<DefinitionInfo> kEmpty;
  const auto it = files_.find(path);
  return it == files_.end() ? kEmpty : it->second.defs;
}

void ProgramIndex::CheckDeadlinePlumbing() {
  for (auto& [path, pack] : files_) {
    for (const DefinitionInfo& def : pack.defs) {
      // Carriers: parameters of budget (or budget-bearing) type, grown by
      // the charging statements to cover struct-member forwarding.
      std::set<std::string> carriers;
      std::string budget_param;
      std::set<std::string> param_names;
      for (const ParamInfo& param : def.signature.params) {
        if (!param.name.empty()) param_names.insert(param.name);
        for (const std::string& type : param.type_idents) {
          if (budget_types_.count(type) > 0) {
            carriers.insert(param.name);
            if (budget_param.empty()) budget_param = param.name;
            break;
          }
        }
      }
      if (carriers.empty()) continue;
      const std::set<std::string> param_carriers = carriers;
      auto carries = [&](const std::string& ident) {
        return carriers.count(ident) > 0 || BudgetNamed(ident);
      };
      // Carrier growth. A plain assignment charges only from the budget
      // params or a budget-named identifier — NOT from derived carriers,
      // or every scalar pulled out of an options struct would launder the
      // budget. Member writes (`anneal.deadline = stage;`) do chain, so a
      // staged deadline composed into a local still marks its container.
      for (int round = 0; round < 4; ++round) {
        bool changed = false;
        for (const DefinitionInfo::Charge& charge : def.charges) {
          if (carriers.count(charge.target) > 0) continue;
          for (const std::string& rhs : charge.rhs_idents) {
            const bool charges = BudgetNamed(rhs) ||
                                 param_carriers.count(rhs) > 0 ||
                                 (charge.member && carriers.count(rhs) > 0);
            if (charges) {
              carriers.insert(charge.target);
              changed = true;
              break;
            }
          }
        }
        if (!changed) break;
      }
      for (const CallInfo& call : def.calls) {
        if (budget_types_.count(call.callee) > 0) continue;  // constructors
        if (param_names.count(call.callee) > 0) continue;  // callable params
        if (call.callee == def.signature.name) continue;   // recursion
        if (budget_overloads_.count(call.callee) == 0) continue;
        bool forwarded = false;
        for (const std::string& arg : call.arg_idents) {
          if (carries(arg)) {
            forwarded = true;
            break;
          }
        }
        if (forwarded) continue;
        findings_[path].push_back(
            {kDeadlinePlumbingRule, path, call.line,
             "'" + def.signature.name + "' receives a budget ('" +
                 budget_param + "') but calls '" + call.callee +
                 "' without forwarding a deadline/token/budget — '" +
                 call.callee +
                 "' has an overload that accepts one, so the budget is "
                 "silently dropped here"});
      }
    }
  }
}

void ProgramIndex::CheckLockDiscipline() {
  // Transitive summaries over the (name-resolved, non-deferred) call graph:
  // blocks*[def] — the body can park the calling thread; acquires*[def] —
  // mutexes (file-scoped) the call may take.
  std::map<const DefinitionInfo*, bool> blocks;
  std::map<const DefinitionInfo*, std::set<std::pair<std::string, std::string>>>
      acquires;
  std::map<std::string, std::vector<const DefinitionInfo*>> defs_by_name;
  for (const auto& [path, pack] : files_) {
    for (const DefinitionInfo& def : pack.defs) {
      blocks[&def] = def.blocks_directly;
      auto& acq = acquires[&def];
      for (const std::string& chain : def.acquires) {
        acq.emplace(path, chain);
      }
      defs_by_name[def.signature.name].push_back(&def);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [def, blocked] : blocks) {
      for (const CallInfo& call : def->calls) {
        if (call.deferred) continue;
        const auto it = defs_by_name.find(call.callee);
        if (it == defs_by_name.end()) continue;
        for (const DefinitionInfo* callee : it->second) {
          if (callee == def) continue;
          if (blocks[callee] && !blocked) {
            blocked = true;
            changed = true;
          }
          for (const auto& node : acquires[callee]) {
            if (acquires[def].insert(node).second) changed = true;
          }
        }
      }
    }
  }
  std::map<std::string, bool> name_blocks;
  std::map<std::string, std::set<std::pair<std::string, std::string>>>
      name_acquires;
  for (const auto& [name, defs] : defs_by_name) {
    for (const DefinitionInfo* def : defs) {
      if (blocks[def]) name_blocks[name] = true;
      name_acquires[name].insert(acquires[def].begin(), acquires[def].end());
    }
  }
  // Lock-order graph: nodes are (file, chain); edges from lexically nested
  // guards and from calls made under a lock into lock-taking functions.
  using Node = std::pair<std::string, std::string>;
  struct EdgeSite {
    std::string file;
    int line = 0;
  };
  std::map<std::pair<Node, Node>, EdgeSite> edges;
  for (const auto& [path, pack] : files_) {
    for (const NestedLock& nested : pack.nested_locks) {
      edges.emplace(
          std::make_pair(Node{path, nested.outer}, Node{path, nested.inner}),
          EdgeSite{path, nested.line});
    }
    for (const CallUnderLock& cul : pack.calls_under_lock) {
      const auto blocked_it = name_blocks.find(cul.callee);
      if (blocked_it != name_blocks.end() && blocked_it->second) {
        findings_[path].push_back(
            {kLockDisciplineRule, path, cul.line,
             "'" + cul.callee + "' is called while holding lock(s) " +
                 JoinNames(cul.held) + "; it (transitively) blocks on the "
                 "thread pool or a condition variable — release the lock "
                 "before calling, or NOLINT with the invariant that makes "
                 "this safe"});
      }
      const auto acq_it = name_acquires.find(cul.callee);
      if (acq_it == name_acquires.end()) continue;
      for (const Node& target : acq_it->second) {
        for (const std::string& held : cul.held) {
          const Node source{path, held};
          if (source == target) {
            findings_[path].push_back(
                {kLockDisciplineRule, path, cul.line,
                 "'" + cul.callee + "' re-acquires mutex '" + held +
                     "' that is already held at this call site "
                     "(self-deadlock through the call graph)"});
            continue;
          }
          edges.emplace(std::make_pair(source, target),
                        EdgeSite{path, cul.line});
        }
      }
    }
  }
  // Cycle rejection: strongly connected components of the edge graph.
  // Deterministic: nodes and edges live in std::map order.
  std::map<Node, std::vector<Node>> adjacency;
  for (const auto& [edge, site] : edges) {
    adjacency[edge.first].push_back(edge.second);
    adjacency[edge.second];
  }
  std::map<Node, int> component;
  {
    // Iterative Tarjan SCC.
    std::map<Node, int> index;
    std::map<Node, int> low;
    std::map<Node, bool> on_stack;
    std::vector<Node> stack;
    int next_index = 0;
    int next_component = 0;
    for (const auto& [root, unused] : adjacency) {
      if (index.count(root) > 0) continue;
      std::vector<std::pair<Node, std::size_t>> work;
      work.emplace_back(root, 0);
      index[root] = low[root] = next_index++;
      stack.push_back(root);
      on_stack[root] = true;
      while (!work.empty()) {
        auto& [node, child] = work.back();
        const std::vector<Node>& next = adjacency[node];
        if (child < next.size()) {
          const Node& target = next[child++];
          if (index.count(target) == 0) {
            index[target] = low[target] = next_index++;
            stack.push_back(target);
            on_stack[target] = true;
            work.emplace_back(target, 0);
          } else if (on_stack[target]) {
            low[node] = std::min(low[node], index[target]);
          }
          continue;
        }
        if (low[node] == index[node]) {
          while (true) {
            const Node top = stack.back();
            stack.pop_back();
            on_stack[top] = false;
            component[top] = next_component;
            if (top == node) break;
          }
          ++next_component;
        }
        const Node done = node;
        work.pop_back();
        if (!work.empty()) {
          low[work.back().first] =
              std::min(low[work.back().first], low[done]);
        }
      }
    }
  }
  std::map<int, int> component_size;
  for (const auto& [node, comp] : component) ++component_size[comp];
  for (const auto& [edge, site] : edges) {
    const auto a = component.find(edge.first);
    const auto b = component.find(edge.second);
    if (a == component.end() || b == component.end()) continue;
    if (a->second != b->second || component_size[a->second] < 2) continue;
    const std::string& site_file = site.file;
    auto display = [&site_file](const Node& node) {
      return node.first == site_file ? node.second
                                     : node.second + " (" +
                                           BaseName(node.first) + ")";
    };
    std::string cycle_members;
    for (const auto& [node, comp] : component) {
      if (comp != a->second) continue;
      if (!cycle_members.empty()) cycle_members += ", ";
      cycle_members += display(node);
    }
    findings_[site.file].push_back(
        {kLockDisciplineRule, site.file, site.line,
         "lock-order cycle: '" + display(edge.first) + "' is held when '" +
             display(edge.second) + "' is taken here, but elsewhere the "
             "order reverses (cycle members: " + cycle_members +
             "); acquire these mutexes in one global order"});
  }
}

}  // namespace qopt::lint
