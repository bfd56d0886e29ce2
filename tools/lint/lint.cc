#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "lint/callgraph.h"
#include "lint/lexer.h"

namespace qopt::lint {

namespace fs = std::filesystem;

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool ContainsNoCase(const std::string& haystack, const std::string& needle) {
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(),
                        needle.end(), [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                        });
  return it != haystack.end();
}

bool IsHeaderPath(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

// ---------------------------------------------------------------------------
// Suppression comments
// ---------------------------------------------------------------------------

struct Suppressions {
  /// line -> qqo rules suppressed on that line.
  std::map<int, std::set<std::string>> by_line;
  /// NOLINT comments naming a qqo rule but lacking a ": reason" tail.
  std::vector<Finding> unjustified;
};

/// Parses NOLINT / NOLINTNEXTLINE markers out of the comment stream.
/// Grammar per marker: NOLINT[NEXTLINE](rule[, rule...])[: justification].
/// Only qqo-* rules participate; a bare NOLINT (no parens) is left to
/// clang-tidy and suppresses nothing here.
Suppressions CollectSuppressions(const std::string& path,
                                 const std::vector<Comment>& comments) {
  Suppressions result;
  for (const Comment& comment : comments) {
    const std::string& text = comment.text;
    std::size_t pos = text.find("NOLINT");
    if (pos == std::string::npos) continue;
    std::size_t cursor = pos + 6;  // past "NOLINT"
    int target_line = comment.line;
    if (text.compare(cursor, 8, "NEXTLINE") == 0) {
      cursor += 8;
      target_line = comment.line + 1;
    }
    if (cursor >= text.size() || text[cursor] != '(') continue;
    const std::size_t close = text.find(')', cursor);
    if (close == std::string::npos) continue;
    std::string rule_list = text.substr(cursor + 1, close - cursor - 1);
    std::vector<std::string> named_rules;
    std::istringstream rules(rule_list);
    std::string rule;
    const std::vector<std::string> known = AllRules();
    while (std::getline(rules, rule, ',')) {
      const std::size_t first = rule.find_first_not_of(" \t");
      if (first == std::string::npos) continue;
      rule = rule.substr(first, rule.find_last_not_of(" \t") - first + 1);
      if (rule.rfind("qqo-", 0) != 0) continue;
      named_rules.push_back(rule);
      if (rule == kNolintRule) {
        result.unjustified.push_back(
            {kNolintRule, path, comment.line,
             "NOLINT(qqo-nolint) is ineffective: qqo-nolint polices the "
             "suppression mechanism and cannot itself be suppressed"});
        continue;
      }
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        result.unjustified.push_back(
            {kNolintRule, path, comment.line,
             "NOLINT names unknown rule '" + rule +
                 "'; it suppresses nothing (see qqo_lint --help for the "
                 "rule list)"});
        continue;
      }
      result.by_line[target_line].insert(rule);
    }
    if (named_rules.empty()) continue;
    // Justification: a ':' after the ')' followed by at least one word.
    std::size_t after = close + 1;
    while (after < text.size() &&
           std::isspace(static_cast<unsigned char>(text[after]))) {
      ++after;
    }
    bool justified = false;
    if (after < text.size() && text[after] == ':') {
      for (std::size_t i = after + 1; i < text.size(); ++i) {
        if (std::isalnum(static_cast<unsigned char>(text[i]))) {
          justified = true;
          break;
        }
      }
    }
    if (!justified) {
      std::string listed;
      for (const std::string& named : named_rules) {
        if (!listed.empty()) listed += ", ";
        listed += named;
      }
      result.unjustified.push_back(
          {kNolintRule, path, comment.line,
           "NOLINT(" + listed + ") needs a justification: "
           "// NOLINT(qqo-rule[, qqo-rule...]): reason"});
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Rule: qqo-determinism
// ---------------------------------------------------------------------------

const std::set<std::string>& StdRandomEngines() {
  static const std::set<std::string> kEngines = {
      "mt19937",        "mt19937_64",   "minstd_rand",
      "minstd_rand0",   "ranlux24",     "ranlux48",
      "ranlux24_base",  "ranlux48_base", "knuth_b",
      "default_random_engine"};
  return kEngines;
}

void CheckDeterminism(const std::string& path, const LexResult& lex,
                      std::vector<Finding>* findings) {
  // The one place allowed to touch raw entropy primitives is the project
  // RNG itself.
  if (EndsWith(path, "common/random.h") || EndsWith(path, "common/random.cc")) {
    return;
  }
  const std::vector<Tok>& toks = lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    const bool member_access =
        i > 0 && toks[i - 1].kind == TokKind::kPunct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    const bool called = i + 1 < toks.size() && toks[i + 1].text == "(";
    auto flag = [&](const std::string& message) {
      findings->push_back({kDeterminismRule, path, toks[i].line, message});
    };
    if (name == "random_device") {
      flag("std::random_device draws hardware entropy; seed a qopt::Rng "
           "(src/common/random.h) instead");
    } else if ((name == "rand" || name == "srand") && called &&
               !member_access) {
      flag(name + "() is a global, hidden-state RNG; use qopt::Rng");
    } else if (name == "time" && called && !member_access &&
               (i == 0 || toks[i - 1].kind != TokKind::kIdent)) {
      flag("time() reads the wall clock; results must not depend on it "
           "(use a fixed seed, or qopt::Deadline for budgets)");
    } else if (name == "system_clock") {
      flag("system_clock is adjustable wall-clock time; use "
           "std::chrono::steady_clock (see qopt::Deadline)");
    } else if (StdRandomEngines().count(name) > 0) {
      flag("ad-hoc std::" + name +
           " engine; route all randomness through qopt::Rng so sweeps "
           "stay reproducible from a single seed");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: qqo-ordered-output
// ---------------------------------------------------------------------------

const std::set<std::string>& UnorderedContainers() {
  static const std::set<std::string> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kContainers;
}

/// Names declared in this file with a container type from `containers`
/// (locals, members, parameters, and functions returning one).
std::set<std::string> CollectContainerNames(
    const std::vector<Tok>& toks, const std::set<std::string>& containers) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        containers.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    j = SkipAngles(toks, j);
    // Skip cv/ref/pointer decoration between the type and the name.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

/// Names declared with an unordered container type in the file or its
/// companion header (`header`, possibly empty), minus any name that either
/// of them also declares with an ordered container: at token level the two
/// declarations are indistinguishable at the use site, so an ambiguous
/// name is excluded rather than guessed at.
std::set<std::string> CollectUnorderedNames(const std::vector<Tok>& toks,
                                            const std::vector<Tok>& header) {
  static const std::set<std::string> kOrdered = {"map", "set", "multimap",
                                                 "multiset"};
  std::set<std::string> names;
  std::set<std::string> ordered;
  for (const std::vector<Tok>* source : {&toks, &header}) {
    names.merge(CollectContainerNames(*source, UnorderedContainers()));
    ordered.merge(CollectContainerNames(*source, kOrdered));
  }
  for (const std::string& name : ordered) names.erase(name);
  return names;
}

void CheckOrderedOutput(const std::string& path, const LexResult& lex,
                        const LexResult& header,
                        std::vector<Finding>* findings) {
  const std::vector<Tok>& toks = lex.tokens;
  const std::set<std::string> unordered =
      CollectUnorderedNames(toks, header.tokens);
  if (unordered.empty()) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for over an unordered container: for ( ... : name ... )
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "for" &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::size_t end = SkipParens(toks, i + 1);
      int depth = 0;
      bool past_colon = false;
      for (std::size_t j = i + 1; j < end; ++j) {
        if (toks[j].kind == TokKind::kPunct) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
          if (toks[j].text == ":" && depth == 1) past_colon = true;
        }
        if (past_colon && toks[j].kind == TokKind::kIdent &&
            unordered.count(toks[j].text) > 0) {
          findings->push_back(
              {kOrderedOutputRule, path, toks[j].line,
               "range-for over unordered container '" + toks[j].text +
                   "' in a result path; iteration order is unspecified — "
                   "copy to a sorted vector (or use std::map) first"});
          break;
        }
      }
    }
    // Iterator iteration: name.begin() / name.cbegin() anywhere in a
    // result-path file.
    if (toks[i].kind == TokKind::kIdent &&
        (toks[i].text == "begin" || toks[i].text == "cbegin") &&
        i >= 2 && i + 1 < toks.size() && toks[i + 1].text == "(" &&
        toks[i - 1].kind == TokKind::kPunct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        toks[i - 2].kind == TokKind::kIdent &&
        unordered.count(toks[i - 2].text) > 0) {
      findings->push_back(
          {kOrderedOutputRule, path, toks[i].line,
           "iterator walk over unordered container '" + toks[i - 2].text +
               "' in a result path; iteration order is unspecified"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: qqo-deadline-coverage
// ---------------------------------------------------------------------------

struct LoopMarker {
  int line = 0;
  std::string site;
};

std::vector<LoopMarker> CollectLoopMarkers(
    const std::vector<Comment>& comments) {
  std::vector<LoopMarker> markers;
  for (const Comment& comment : comments) {
    const std::size_t pos = comment.text.find("QQO_LOOP(");
    if (pos == std::string::npos) continue;
    const std::size_t close = comment.text.find(')', pos);
    if (close == std::string::npos) continue;
    markers.push_back(
        {comment.line, comment.text.substr(pos + 9, close - pos - 9)});
  }
  return markers;
}

/// Locates the body token range of the loop annotated by `marker` (the
/// next for/while/do at or within 3 lines below the comment). Returns
/// false when no loop statement follows — the deadline-coverage rule owns
/// reporting that as a dangling marker.
bool FindMarkedLoopBody(const std::vector<Tok>& toks, const LoopMarker& marker,
                        std::size_t* body_out, std::size_t* body_end_out) {
  std::size_t loop = toks.size();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].line < marker.line) continue;
    if (toks[i].line > marker.line + 3) break;
    if (toks[i].kind == TokKind::kIdent &&
        (toks[i].text == "for" || toks[i].text == "while" ||
         toks[i].text == "do")) {
      loop = i;
      break;
    }
  }
  if (loop == toks.size()) return false;
  // Locate the body: do -> immediately after; for/while -> after the
  // closing ")" of the header.
  std::size_t body = loop + 1;
  if (toks[loop].text != "do" && body < toks.size() &&
      toks[body].text == "(") {
    body = SkipParens(toks, body);
  }
  std::size_t body_end;
  if (body < toks.size() && toks[body].text == "{") {
    body_end = SkipBraces(toks, body);
  } else {
    body_end = body;
    while (body_end < toks.size() && toks[body_end].text != ";") ++body_end;
  }
  *body_out = body;
  *body_end_out = body_end;
  return true;
}

void CheckDeadlineCoverage(const std::string& path, const LexResult& lex,
                           std::vector<Finding>* findings) {
  const std::vector<Tok>& toks = lex.tokens;
  for (const LoopMarker& marker : CollectLoopMarkers(lex.comments)) {
    std::size_t body = 0;
    std::size_t body_end = 0;
    if (!FindMarkedLoopBody(toks, marker, &body, &body_end)) {
      findings->push_back(
          {kDeadlineCoverageRule, path, marker.line,
           "dangling QQO_LOOP(" + marker.site +
               ") marker: no for/while/do follows within 3 lines"});
      continue;
    }
    // Coverage comes from a wall-clock deadline ("deadline" identifiers)
    // or from cooperative cancellation ("cancel"/"cancelled" identifiers):
    // fan-out drain loops such as the portfolio racer's wait loop are
    // bounded by a linked CancelToken rather than by polling the clock,
    // and that satisfies the same wind-down contract (Deadline::Check
    // reports the token before expiry anyway).
    bool consults_deadline = false;
    for (std::size_t i = body; i < body_end; ++i) {
      if (toks[i].kind == TokKind::kIdent &&
          (ContainsNoCase(toks[i].text, "deadline") ||
           ContainsNoCase(toks[i].text, "cancel"))) {
        consults_deadline = true;
        break;
      }
    }
    if (!consults_deadline) {
      findings->push_back(
          {kDeadlineCoverageRule, path, marker.line,
           "QQO_LOOP(" + marker.site +
               ") body never consults the deadline or a cancellation "
               "token; call deadline.Check() (or token.cancelled(), or a "
               "CheckDeadline helper) every iteration so the solver can "
               "wind down cooperatively"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: qqo-obs-coverage
// ---------------------------------------------------------------------------

const std::set<std::string>& ObsMacros() {
  static const std::set<std::string> kMacros = {
      "QQO_COUNT", "QQO_OBSERVE", "QQO_GAUGE_MAX", "QQO_TRACE_SPAN"};
  return kMacros;
}

/// Every QQO_LOOP-annotated hot loop must also be observable: its body (or
/// something it calls textually inside the body) has to touch one of the
/// src/obs macros so the loop shows up in --metrics / --trace-out output.
/// Dangling markers are reported by the deadline-coverage rule, not here.
void CheckObsCoverage(const std::string& path, const LexResult& lex,
                      std::vector<Finding>* findings) {
  const std::vector<Tok>& toks = lex.tokens;
  for (const LoopMarker& marker : CollectLoopMarkers(lex.comments)) {
    std::size_t body = 0;
    std::size_t body_end = 0;
    if (!FindMarkedLoopBody(toks, marker, &body, &body_end)) continue;
    bool instrumented = false;
    for (std::size_t i = body; i < body_end; ++i) {
      if (toks[i].kind == TokKind::kIdent &&
          ObsMacros().count(toks[i].text) > 0) {
        instrumented = true;
        break;
      }
    }
    if (!instrumented) {
      findings->push_back(
          {kObsCoverageRule, path, marker.line,
           "QQO_LOOP(" + marker.site +
               ") body has no observability instrumentation; add a "
               "QQO_COUNT / QQO_OBSERVE / QQO_GAUGE_MAX metric or a "
               "QQO_TRACE_SPAN so the loop is visible in --metrics and "
               "--trace-out output"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: qqo-hot-loop-alloc
// ---------------------------------------------------------------------------

/// Names that the file visibly preallocates: any identifier that appears
/// as the receiver of a .reserve(...) or .resize(...) call anywhere in the
/// file. push_back/emplace_back into these is amortization-safe and not
/// flagged (same whole-file conservatism as the container-name collection
/// in the ordered-output rule).
std::set<std::string> CollectPreallocatedNames(const std::vector<Tok>& toks) {
  std::set<std::string> names;
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "reserve" && toks[i].text != "resize" &&
         toks[i].text != "assign")) {
      continue;
    }
    if (toks[i + 1].text != "(") continue;
    if (toks[i - 1].kind != TokKind::kPunct ||
        (toks[i - 1].text != "." && toks[i - 1].text != "->")) {
      continue;
    }
    if (toks[i - 2].kind == TokKind::kIdent) names.insert(toks[i - 2].text);
  }
  return names;
}

/// QQO_LOOP-annotated hot loops must not allocate per iteration: no `new`,
/// no std::string construction or to_string, no make_unique/make_shared,
/// and no push_back/emplace_back into a container the file never
/// reserve()/resize()s. Preallocate outside the loop (arena / Reset()
/// reuse pattern) or hoist the allocation, and NOLINT with a reason for
/// the genuinely-amortized exceptions.
void CheckHotLoopAlloc(const std::string& path, const LexResult& lex,
                       std::vector<Finding>* findings) {
  const std::vector<Tok>& toks = lex.tokens;
  const std::vector<LoopMarker> markers = CollectLoopMarkers(lex.comments);
  if (markers.empty()) return;
  const std::set<std::string> preallocated = CollectPreallocatedNames(toks);
  for (const LoopMarker& marker : markers) {
    std::size_t body = 0;
    std::size_t body_end = 0;
    if (!FindMarkedLoopBody(toks, marker, &body, &body_end)) continue;
    for (std::size_t i = body; i < body_end; ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const std::string& name = toks[i].text;
      const bool called = i + 1 < body_end && toks[i + 1].text == "(";
      auto flag = [&](const std::string& message) {
        findings->push_back({kHotLoopAllocRule, path, toks[i].line,
                             "QQO_LOOP(" + marker.site + "): " + message});
      };
      if (name == "new") {
        flag("'new' inside a hot loop allocates every iteration; hoist "
             "the allocation or use a reused arena");
      } else if ((name == "push_back" || name == "emplace_back") && called &&
                 i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
                 (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
                 toks[i - 2].kind == TokKind::kIdent &&
                 preallocated.count(toks[i - 2].text) == 0) {
        flag("" + name + " into '" + toks[i - 2].text +
             "' which is never reserve()/resize()d; growth reallocates "
             "mid-sweep — preallocate outside the loop");
      } else if (name == "string" && i + 1 < body_end &&
                 (toks[i + 1].kind == TokKind::kIdent ||
                  toks[i + 1].text == "(" || toks[i + 1].text == "{")) {
        flag("std::string construction inside a hot loop heap-allocates; "
             "build strings outside the loop");
      } else if (name == "to_string" && called) {
        flag("to_string allocates a fresh string every iteration; format "
             "outside the loop");
      } else if ((name == "make_unique" || name == "make_shared") &&
                 (called || (i + 1 < body_end && toks[i + 1].text == "<"))) {
        flag(name + " inside a hot loop allocates every iteration; hoist "
                    "the allocation");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: qqo-header-hygiene
// ---------------------------------------------------------------------------

void CheckHeaderHygiene(const std::string& path, const LexResult& lex,
                        std::vector<Finding>* findings) {
  if (!IsHeaderPath(path)) return;
  if (lex.directives.empty() || lex.directives[0].text != "#pragma once") {
    bool has_pragma_somewhere = false;
    for (const Directive& d : lex.directives) {
      if (d.text == "#pragma once") {
        has_pragma_somewhere = true;
        break;
      }
    }
    findings->push_back(
        {kHeaderHygieneRule, path,
         lex.directives.empty() ? 1 : lex.directives[0].line,
         has_pragma_somewhere
             ? "#pragma once must be the first preprocessor directive"
             : "header must start with #pragma once (include guards are "
               "retired in this codebase)"});
  }
  const ScopeMap scopes(lex.tokens);
  for (std::size_t i = 0; i + 1 < lex.tokens.size(); ++i) {
    if (lex.tokens[i].kind == TokKind::kIdent &&
        lex.tokens[i].text == "using" &&
        lex.tokens[i + 1].kind == TokKind::kIdent &&
        lex.tokens[i + 1].text == "namespace" && !scopes.InsideBlock(i)) {
      findings->push_back(
          {kHeaderHygieneRule, path, lex.tokens[i].line,
           "'using namespace' at namespace scope in a header leaks into "
           "every includer; qualify names instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// Policy files
// ---------------------------------------------------------------------------

Policy ParsePolicyFile(const fs::path& file, const Policy& inherited) {
  Policy policy = inherited;
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    line = line.substr(first, line.find_last_not_of(" \t\r") - first + 1);
    if (line == "result-path") policy.result_path = true;
    if (line == "no-result-path") policy.result_path = false;
  }
  return policy;
}

/// Nearest-policy-wins lookup with a per-directory cache. Policies nest:
/// the chain of policy files from the root down to the file's directory is
/// applied in order, so a subdirectory can override its parent.
class PolicyResolver {
 public:
  explicit PolicyResolver(std::string policy_filename)
      : policy_filename_(std::move(policy_filename)) {}

  Policy ForFile(const fs::path& file) {
    std::error_code ec;
    fs::path dir = fs::absolute(file, ec).parent_path();
    return ForDirectory(dir);
  }

 private:
  Policy ForDirectory(const fs::path& dir) {
    auto it = cache_.find(dir.string());
    if (it != cache_.end()) return it->second;
    Policy inherited;
    if (dir.has_parent_path() && dir.parent_path() != dir) {
      inherited = ForDirectory(dir.parent_path());
    }
    Policy policy = inherited;
    std::error_code ec;
    const fs::path policy_file = dir / policy_filename_;
    if (fs::exists(policy_file, ec)) {
      policy = ParsePolicyFile(policy_file, inherited);
    }
    cache_.emplace(dir.string(), policy);
    return policy;
  }

  std::string policy_filename_;
  std::map<std::string, Policy> cache_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool ReadFile(const fs::path& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *content = buffer.str();
  return true;
}

bool IsLintableFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// GitHub workflow-command data escaping: %, CR and LF are percent-encoded
/// so multi-line messages survive the annotation protocol.
std::string EscapeGithub(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\n': out += "%0A"; break;
      case '\r': out += "%0D"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> AllRules() {
  return {kDeterminismRule,      kOrderedOutputRule,  kDeadlineCoverageRule,
          kObsCoverageRule,      kHotLoopAllocRule,   kHeaderHygieneRule,
          kDeadlinePlumbingRule, kLockDisciplineRule, kPoolReentrancyRule};
}

bool Options::IsRuleEnabled(const std::string& rule) const {
  if (rules.empty()) return true;
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const Policy& policy, const Options& options,
                                 const ProgramIndex* program,
                                 const std::string& companion_header) {
  const LexResult lex = Lex(content);
  const Suppressions suppressions = CollectSuppressions(path, lex.comments);

  std::vector<Finding> raw;
  if (program != nullptr) {
    for (const Finding& finding : program->FindingsFor(path)) {
      if (options.IsRuleEnabled(finding.rule)) raw.push_back(finding);
    }
  }
  if (options.IsRuleEnabled(kDeterminismRule)) {
    CheckDeterminism(path, lex, &raw);
  }
  if (options.IsRuleEnabled(kOrderedOutputRule) && policy.result_path) {
    CheckOrderedOutput(path, lex, Lex(companion_header), &raw);
  }
  if (options.IsRuleEnabled(kDeadlineCoverageRule)) {
    CheckDeadlineCoverage(path, lex, &raw);
  }
  if (options.IsRuleEnabled(kObsCoverageRule)) {
    CheckObsCoverage(path, lex, &raw);
  }
  if (options.IsRuleEnabled(kHotLoopAllocRule)) {
    CheckHotLoopAlloc(path, lex, &raw);
  }
  if (options.IsRuleEnabled(kHeaderHygieneRule)) {
    CheckHeaderHygiene(path, lex, &raw);
  }

  std::vector<Finding> findings;
  for (Finding& finding : raw) {
    const auto it = suppressions.by_line.find(finding.line);
    if (it != suppressions.by_line.end() &&
        it->second.count(finding.rule) > 0) {
      continue;
    }
    findings.push_back(std::move(finding));
  }
  // The suppression policeman cannot itself be suppressed.
  findings.insert(findings.end(), suppressions.unjustified.begin(),
                  suppressions.unjustified.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

bool LintPaths(const std::vector<std::string>& paths, const Options& options,
               std::vector<Finding>* findings, std::string* error) {
  std::vector<fs::path> files;
  for (const std::string& raw : paths) {
    const fs::path path(raw);
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && IsLintableFile(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      if (error != nullptr) *error = "cannot read path: " + raw;
      return false;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  auto excluded = [&](const fs::path& file) {
    const std::string generic = file.generic_string();
    for (const std::string& substr : options.excludes) {
      if (generic.find(substr) != std::string::npos) return true;
    }
    return false;
  };

  // Pass 1: read every file into the cross-TU program index
  // (declarations, call graph, lock sites).
  ProgramIndex program;
  std::vector<std::pair<fs::path, std::string>> contents;
  for (const fs::path& file : files) {
    if (excluded(file)) continue;
    std::string content;
    if (!ReadFile(file, &content)) {
      if (error != nullptr) *error = "cannot read file: " + file.string();
      return false;
    }
    program.AddFile(file.generic_string(), content);
    contents.emplace_back(file, std::move(content));
  }
  program.Finalize();

  // Pass 2: lint, handing each file the header of the same stem when one
  // was read in pass 1 (it declares the class members a .cc walks; a
  // header is handed itself, which adds no name).
  std::map<fs::path, const std::string*> headers;
  for (const auto& [file, content] : contents) {
    if (IsHeaderPath(file.string())) {
      headers.emplace(fs::path(file).replace_extension(), &content);
    }
  }
  static const std::string kNoHeader;
  PolicyResolver policies(options.policy_filename);
  for (const auto& [file, content] : contents) {
    const Policy policy = policies.ForFile(file);
    const auto header = headers.find(fs::path(file).replace_extension());
    std::vector<Finding> file_findings = LintContent(
        file.generic_string(), content, policy, options, &program,
        header == headers.end() ? kNoHeader : *header->second);
    findings->insert(findings->end(),
                     std::make_move_iterator(file_findings.begin()),
                     std::make_move_iterator(file_findings.end()));
  }
  return true;
}

int RunLintMain(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  Options options;
  std::vector<std::string> paths;
  std::string format = "text";
  for (const std::string& arg : args) {
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") {
      out << "usage: qqo_lint [options] <file-or-directory>...\n"
             "  --rule=NAME       run only this rule (repeatable)\n"
             "  --exclude=SUBSTR  skip paths containing SUBSTR (repeatable)\n"
             "  --policy=NAME     per-directory policy filename "
             "(default .qqo-lint-policy)\n"
             "  --format=FMT      text (default), json, or github "
             "(workflow annotations)\n"
             "exit codes: 0 clean, 1 findings, 2 usage error\n";
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = value_of("--format=");
      if (format != "text" && format != "json" && format != "github") {
        err << "qqo_lint: unknown format '" << format
            << "' (expected text, json, or github)\n";
        return 2;
      }
    } else if (arg.rfind("--rule=", 0) == 0) {
      const std::string rule = value_of("--rule=");
      const std::vector<std::string> known = AllRules();
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        err << "qqo_lint: unknown rule '" << rule << "'\n";
        return 2;
      }
      options.rules.push_back(rule);
    } else if (arg.rfind("--exclude=", 0) == 0) {
      options.excludes.push_back(value_of("--exclude="));
    } else if (arg.rfind("--policy=", 0) == 0) {
      options.policy_filename = value_of("--policy=");
    } else if (arg.rfind("-", 0) == 0) {
      err << "qqo_lint: unknown option '" << arg << "' (try --help)\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    err << "qqo_lint: no input paths (try --help)\n";
    return 2;
  }
  std::vector<Finding> findings;
  std::string error;
  if (!LintPaths(paths, options, &findings, &error)) {
    err << "qqo_lint: " << error << "\n";
    return 2;
  }
  if (format == "json") {
    out << "{\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) out << ",";
      out << "{\"file\":\"" << EscapeJson(f.file) << "\",\"line\":" << f.line
          << ",\"rule\":\"" << EscapeJson(f.rule) << "\",\"message\":\""
          << EscapeJson(f.message) << "\"}";
    }
    out << "],\"count\":" << findings.size() << "}\n";
  } else if (format == "github") {
    for (const Finding& f : findings) {
      out << "::error file=" << f.file << ",line=" << f.line
          << ",title=qqo_lint [" << f.rule << "]::" << EscapeGithub(f.message)
          << "\n";
    }
    out << "qqo_lint: " << findings.size() << " finding(s)\n";
  } else {
    for (const Finding& finding : findings) {
      out << finding.file << ":" << finding.line << ": [" << finding.rule
          << "] " << finding.message << "\n";
    }
    out << "qqo_lint: " << findings.size() << " finding(s)\n";
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace qopt::lint
