// Tests for qqo_lint (tools/lint): every rule fires on its bad fixture
// and stays quiet on its good twin, suppression and policy files behave,
// and the CLI entry point honors its exit-code contract (0 clean /
// 1 findings / 2 usage).
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lexer.h"
#include "lint/lint.h"

namespace qopt::lint {
namespace {

const char* const kLintDataDir = QQO_TEST_DATA_DIR "/lint";

std::string FixturePath(const std::string& name) {
  return std::string(kLintDataDir) + "/" + name;
}

/// Lints one fixture through the real multi-file driver so policy lookup
/// and the cross-file index run exactly as in production.
std::vector<Finding> LintFixture(const std::string& name) {
  Options options;
  std::vector<Finding> findings;
  std::string error;
  EXPECT_TRUE(LintPaths({FixturePath(name)}, options, &findings, &error))
      << error;
  return findings;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, StripsCommentsStringsAndPreprocessor) {
  const LexResult lex = Lex(
      "#include <random>  // rand() in a directive comment\n"
      "const char* s = \"std::random_device\";  /* rand() */\n"
      "int x = 1;\n");
  for (const Tok& tok : lex.tokens) {
    EXPECT_NE(tok.text, "random_device");
    EXPECT_NE(tok.text, "rand");
  }
  ASSERT_EQ(lex.directives.size(), 1u);
  EXPECT_EQ(lex.directives[0].text, "#include <random>");
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_EQ(lex.comments[1].line, 2);
}

TEST(LexerTest, JoinsDirectiveContinuations) {
  const LexResult lex = Lex("#define TWO \\\n  2\nint y = TWO;\n");
  ASSERT_EQ(lex.directives.size(), 1u);
  EXPECT_EQ(lex.directives[0].text, "#define TWO 2");
  EXPECT_EQ(lex.directives[0].line, 1);
}

TEST(LexerTest, RawStringsCollapse) {
  const LexResult lex = Lex("auto s = R\"(rand() time(0))\";\n");
  for (const Tok& tok : lex.tokens) {
    EXPECT_NE(tok.text, "rand");
    EXPECT_NE(tok.text, "time");
  }
}

TEST(LexerTest, TracksLineNumbers) {
  const LexResult lex = Lex("int a;\nint b;\n\nint c;\n");
  ASSERT_EQ(lex.tokens.size(), 9u);
  EXPECT_EQ(lex.tokens[0].line, 1);
  EXPECT_EQ(lex.tokens[3].line, 2);
  EXPECT_EQ(lex.tokens[6].line, 4);
}

// ---------------------------------------------------------------------------
// Rule fixtures: each rule fires on bad, stays quiet on good
// ---------------------------------------------------------------------------

TEST(DeterminismRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings = LintFixture("determinism_bad.cc");
  // random_device, mt19937, srand, rand, time, system_clock.
  EXPECT_GE(CountRule(findings, kDeterminismRule), 6);
}

TEST(DeterminismRuleTest, QuietOnGoodFixture) {
  const std::vector<Finding> findings = LintFixture("determinism_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(DeterminismRuleTest, ExemptsProjectRngSources) {
  Options options;
  Policy policy;
  const std::string content = "#pragma once\nstruct random_device {};\n";
  EXPECT_TRUE(
      LintContent("src/common/random.h", content, policy, options).empty());
  EXPECT_EQ(LintContent("src/anneal/foo.cc", content, policy, options).size(),
            1u);
}

TEST(OrderedOutputRuleTest, FiresOnBadFixtureViaPolicy) {
  const std::vector<Finding> findings =
      LintFixture("ordered/ordered_output_bad.cc");
  EXPECT_GE(CountRule(findings, kOrderedOutputRule), 2);  // range-for + begin
}

TEST(OrderedOutputRuleTest, QuietOnGoodFixture) {
  const std::vector<Finding> findings =
      LintFixture("ordered/ordered_output_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(OrderedOutputRuleTest, SeesMembersDeclaredInTheSameStemHeader) {
  // box.h declares the unordered member, box.cc range-fors over it: the
  // .cc is linted with its header's container names.
  Options options;
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintPaths({FixturePath("ordered/box.h"),
                         FixturePath("ordered/box.cc")},
                        options, &findings, &error))
      << error;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kOrderedOutputRule);
  EXPECT_NE(findings[0].file.find("ordered/box.cc"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'cells_'"), std::string::npos);
}

TEST(OrderedOutputRuleTest, HeaderOrderedDeclarationKeepsNameAmbiguous) {
  // A name declared with an ordered container in either file is excluded,
  // as within one file.
  Options options;
  Policy policy;
  policy.result_path = true;
  const std::string walk =
      "int f() { int t = 0; for (auto& [k, v] : cells_) t += v; return t; }\n";
  EXPECT_EQ(LintContent("a.cc", walk, policy, options, nullptr,
                        "#pragma once\nstd::unordered_map<int, int> cells_;\n")
                .size(),
            1u);
  EXPECT_TRUE(LintContent("a.cc",
                          "std::map<int, int> cells_;\n" + walk, policy,
                          options, nullptr,
                          "#pragma once\nstd::unordered_map<int, int> "
                          "cells_;\n")
                  .empty());
}

TEST(OrderedOutputRuleTest, QuietWithoutResultPathPolicy) {
  const std::vector<Finding> findings =
      LintFixture("ordered_off/ordered_output_unmarked.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(DeadlineCoverageRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings = LintFixture("deadline_bad.cc");
  // Three uncovered loops (one of them touching a token without ever
  // asking it about cancellation) plus one dangling marker.
  EXPECT_EQ(CountRule(findings, kDeadlineCoverageRule), 4);
  int dangling = 0;
  for (const Finding& finding : findings) {
    if (finding.message.find("dangling") != std::string::npos) ++dangling;
  }
  EXPECT_EQ(dangling, 1);
}

TEST(DeadlineCoverageRuleTest, QuietOnGoodFixture) {
  const std::vector<Finding> findings = LintFixture("deadline_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(ObsCoverageRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings = LintFixture("obs_bad.cc");
  // Both loops poll the deadline but emit nothing: obs fires, deadline
  // stays quiet.
  EXPECT_EQ(CountRule(findings, kObsCoverageRule), 2);
  EXPECT_EQ(CountRule(findings, kDeadlineCoverageRule), 0);
}

TEST(ObsCoverageRuleTest, QuietOnGoodFixture) {
  const std::vector<Finding> findings = LintFixture("obs_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(ObsCoverageRuleTest, DanglingMarkerIsReportedByDeadlineRuleOnly) {
  Options options;
  options.rules = {kObsCoverageRule};
  const std::vector<Finding> findings = LintContent(
      "a.cc", "// QQO_LOOP(fixture.dangling)\nint NotALoop();\n", Policy{},
      options);
  EXPECT_EQ(findings.size(), 0u);
}

TEST(ServeLoopFixtureTest, BadServerLoopsFireTheExpectedRules) {
  // Server-loop shapes (accept / drain / singleflight wait): the bad twin
  // holds one uncoverable accept loop, one silent drain loop and one
  // per-line-allocating accept loop.
  const std::vector<Finding> findings = LintFixture("serve_loop_bad.cc");
  EXPECT_EQ(CountRule(findings, kDeadlineCoverageRule), 1);
  EXPECT_EQ(CountRule(findings, kObsCoverageRule), 1);
  // std::string construction + unreserved push_back.
  EXPECT_EQ(CountRule(findings, kHotLoopAllocRule), 2);
}

TEST(ServeLoopFixtureTest, QuietOnGoodServerLoops) {
  const std::vector<Finding> findings = LintFixture("serve_loop_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(HotLoopAllocRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings = LintFixture("hot_loop_alloc_bad.cc");
  // new, unreserved push_back, std::string construction, to_string,
  // make_unique — one finding each.
  EXPECT_EQ(CountRule(findings, kHotLoopAllocRule), 5);
}

TEST(HotLoopAllocRuleTest, QuietOnGoodFixture) {
  const std::vector<Finding> findings = LintFixture("hot_loop_alloc_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(HotLoopAllocRuleTest, ReserveAnywhereInFileAmortizesPushBack) {
  Options options;
  options.rules = {kHotLoopAllocRule};
  const std::vector<Finding> findings = LintContent(
      "a.cc",
      "void f(int n) {\n"
      "  out.reserve(n);\n"
      "  // QQO_LOOP(fixture.reserved)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    out.push_back(i);\n"
      "    other.push_back(i);\n"
      "  }\n"
      "}\n",
      Policy{}, options);
  // Only the never-reserved container is flagged.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'other'"), std::string::npos);
}

TEST(HeaderHygieneRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings = LintFixture("header_hygiene_bad.h");
  // Include guard instead of #pragma once + two using-directives.
  EXPECT_EQ(CountRule(findings, kHeaderHygieneRule), 3);
}

TEST(HeaderHygieneRuleTest, QuietOnGoodFixture) {
  const std::vector<Finding> findings = LintFixture("header_hygiene_good.h");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(HeaderHygieneRuleTest, IgnoresSourceFiles) {
  Options options;
  const std::vector<Finding> findings =
      LintContent("a.cc", "using namespace std;\n", Policy{}, options);
  EXPECT_EQ(findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-TU rules (tools/lint/callgraph): deadline plumbing, lock
// discipline, pool reentrancy. The index itself is unit-tested in
// callgraph_test.cc; these pin the end-to-end rule behavior.
// ---------------------------------------------------------------------------

TEST(DeadlinePlumbingRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings =
      LintFixture("deadline_plumbing_bad.cc");
  // One direct drop plus one inside a deferred (lambda) call.
  EXPECT_EQ(CountRule(findings, kDeadlinePlumbingRule), 2);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(DeadlinePlumbingRuleTest, QuietOnGoodFixture) {
  // Direct member forwarding, forwarding through a charged struct, no
  // budget parameter, and a callee without a budget overload.
  const std::vector<Finding> findings =
      LintFixture("deadline_plumbing_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(LockDisciplineRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings = LintFixture("lock_discipline_bad.cc");
  // Direct blocking under a lock, a two-mutex ordering cycle (one finding
  // per edge), recursive acquisition, a transitive block through Drain,
  // and a CV wait parked with a second lock held.
  EXPECT_EQ(CountRule(findings, kLockDisciplineRule), 6);
  EXPECT_EQ(findings.size(), 6u);
  int cycle = 0;
  for (const Finding& finding : findings) {
    if (finding.message.find("lock-order cycle") != std::string::npos) {
      ++cycle;
    }
  }
  EXPECT_EQ(cycle, 2);
}

TEST(LockDisciplineRuleTest, QuietOnGoodFixture) {
  // Consistent ordering, scoped_lock, sanctioned CV wait, early unlock,
  // and blocking moved outside the critical section.
  const std::vector<Finding> findings = LintFixture("lock_discipline_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(PoolReentrancyRuleTest, FiresOnBadFixture) {
  const std::vector<Finding> findings = LintFixture("pool_reentrancy_bad.cc");
  // Nested ParallelFor, a CV wait in a task, Submit(...).get() inside a
  // fan-out, and a future .get() in a task.
  EXPECT_EQ(CountRule(findings, kPoolReentrancyRule), 4);
  EXPECT_EQ(findings.size(), 4u);
}

TEST(PoolReentrancyRuleTest, QuietOnGoodFixture) {
  // Single-level fan-out, fire-and-forget tasks, blocking from the
  // caller's thread, and nesting routed through a named helper.
  const std::vector<Finding> findings = LintFixture("pool_reentrancy_good.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

// ---------------------------------------------------------------------------
// Suppression
// ---------------------------------------------------------------------------

TEST(SuppressionTest, JustifiedNolintSuppressesCleanly) {
  const std::vector<Finding> findings =
      LintFixture("suppression_justified.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
}

TEST(SuppressionTest, UnjustifiedNolintIsItselfAFinding) {
  const std::vector<Finding> findings =
      LintFixture("suppression_unjustified.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kNolintRule);
  // The determinism finding itself is suppressed; only the policeman fires.
  EXPECT_EQ(CountRule(findings, kDeterminismRule), 0);
}

TEST(SuppressionTest, WrongRuleNameDoesNotSuppress) {
  Options options;
  const std::vector<Finding> findings = LintContent(
      "a.cc",
      "#include <random>\n"
      "// NOLINT(qqo-header-hygiene): wrong rule for this line\n"
      "std::random_device d;  // NOLINT(qqo-ordered-output): also wrong\n",
      Policy{}, options);
  EXPECT_EQ(CountRule(findings, kDeterminismRule), 1);
}

TEST(SuppressionTest, OneCommentSuppressesMultipleRules) {
  // One justified suppression comment naming two rules silences both
  // findings on its target line.
  const std::vector<Finding> findings =
      LintFixture("suppression_multirule.cc");
  EXPECT_EQ(findings.size(), 0u) << findings[0].message;
  // Without the comment the target line fires both rules.
  std::ifstream in(FixturePath("suppression_multirule.cc"));
  std::string content;
  for (std::string line; std::getline(in, line);) {
    if (line.find("NOLINTNEXTLINE") == std::string::npos) {
      content += line + "\n";
    }
  }
  const std::vector<Finding> unsuppressed =
      LintContent("suppression_multirule.cc", content, Policy{}, Options{});
  ASSERT_EQ(unsuppressed.size(), 2u);
  EXPECT_EQ(CountRule(unsuppressed, kDeterminismRule), 1);
  EXPECT_EQ(CountRule(unsuppressed, kHotLoopAllocRule), 1);
  EXPECT_EQ(unsuppressed[0].line, unsuppressed[1].line);
}

TEST(SuppressionTest, UnknownRulesAndSelfSuppressionArePoliced) {
  const std::vector<Finding> findings =
      LintFixture("suppression_policing.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(CountRule(findings, kNolintRule), 2);
  EXPECT_NE(findings[0].message.find("unknown rule 'qqo-made-up-rule'"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("cannot itself be suppressed"),
            std::string::npos);
}

TEST(SuppressionTest, RuleFilterRunsOnlySelectedRules) {
  Options options;
  options.rules = {kHeaderHygieneRule};
  const std::vector<Finding> findings = LintContent(
      "a.h", "#pragma once\nstd::random_device d;\n", Policy{}, options);
  EXPECT_EQ(findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// CLI exit codes
// ---------------------------------------------------------------------------

int RunCli(const std::vector<std::string>& args, std::string* output) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunLintMain(args, out, err);
  if (output != nullptr) *output = out.str() + err.str();
  return code;
}

TEST(CliTest, CleanFileExitsZero) {
  std::string output;
  EXPECT_EQ(RunCli({FixturePath("determinism_good.cc")}, &output), 0);
  EXPECT_NE(output.find("0 finding(s)"), std::string::npos);
}

TEST(CliTest, FindingsExitOne) {
  std::string output;
  EXPECT_EQ(RunCli({FixturePath("determinism_bad.cc")}, &output), 1);
  EXPECT_NE(output.find("qqo-determinism"), std::string::npos);
}

TEST(CliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunCli({}, nullptr), 2);
  EXPECT_EQ(RunCli({"--bogus-flag", "x.cc"}, nullptr), 2);
  EXPECT_EQ(RunCli({"--rule=not-a-rule", "x.cc"}, nullptr), 2);
  EXPECT_EQ(RunCli({FixturePath("does_not_exist.cc")}, nullptr), 2);
}

TEST(CliTest, ExcludeSkipsMatchingPaths) {
  // The whole fixture corpus is full of violations; excluding it must
  // bring the directory scan back to clean.
  std::string output;
  EXPECT_EQ(RunCli({"--exclude=data/lint", kLintDataDir}, &output), 0);
}

TEST(CliTest, RuleFlagRestrictsDirectoryScan) {
  // Only the header-hygiene rule: the determinism fixtures stop firing,
  // but the include-guard fixture still does.
  std::string output;
  EXPECT_EQ(
      RunCli({"--rule=qqo-header-hygiene", FixturePath("determinism_bad.cc")},
             &output),
      0);
  EXPECT_EQ(
      RunCli(
          {"--rule=qqo-header-hygiene", FixturePath("header_hygiene_bad.h")},
          &output),
      1);
}

TEST(CliTest, JsonFormatEmitsStructuredFindings) {
  std::string output;
  EXPECT_EQ(RunCli({"--format=json", FixturePath("suppression_policing.cc")},
                   &output),
            1);
  EXPECT_NE(output.find("{\"findings\":["), std::string::npos);
  EXPECT_NE(output.find("\"rule\":\"qqo-nolint\""), std::string::npos);
  EXPECT_NE(output.find("\"count\":2}"), std::string::npos);
  // Paths and messages pass through the JSON escaper; no raw quotes leak.
  EXPECT_NE(output.find("\"line\":4"), std::string::npos);
}

TEST(CliTest, JsonFormatOnCleanInputHasZeroCount) {
  std::string output;
  EXPECT_EQ(RunCli({"--format=json", FixturePath("determinism_good.cc")},
                   &output),
            0);
  EXPECT_NE(output.find("{\"findings\":[],\"count\":0}"), std::string::npos);
}

TEST(CliTest, GithubFormatEmitsWorkflowAnnotations) {
  std::string output;
  EXPECT_EQ(
      RunCli({"--format=github", FixturePath("suppression_policing.cc")},
             &output),
      1);
  EXPECT_NE(output.find("::error file="), std::string::npos);
  EXPECT_NE(output.find(",title=qqo_lint [qqo-nolint]::"), std::string::npos);
  EXPECT_NE(output.find("2 finding(s)"), std::string::npos);
}

TEST(CliTest, UnknownFormatExitsTwo) {
  std::string output;
  EXPECT_EQ(RunCli({"--format=xml", FixturePath("determinism_good.cc")},
                   &output),
            2);
  EXPECT_NE(output.find("unknown format"), std::string::npos);
}

// The repo itself must stay lint-clean: the same invocation as the `lint`
// ctest target, run in-process.
TEST(SelfLintTest, RepoIsClean) {
  std::string output;
  const int code =
      RunCli({"--exclude=tests/data", QQO_SOURCE_DIR "/src",
              QQO_SOURCE_DIR "/tools", QQO_SOURCE_DIR "/tests"},
             &output);
  EXPECT_EQ(code, 0) << output;
}

}  // namespace
}  // namespace qopt::lint
