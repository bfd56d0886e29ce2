// Tests for the recoverable-error layer: Status / StatusOr semantics,
// the checked JSON accessors, and fault injection of the malformed
// workload corpus through the loaders and the real CLI code path.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "io/workload_io.h"
#include "qqo_cli.h"
#include "serve/serve_cli.h"

#ifndef QQO_TEST_DATA_DIR
#error "QQO_TEST_DATA_DIR must be defined by the build"
#endif

namespace qopt {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr semantics.

TEST(StatusTest, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_EQ(status, OkStatus());
}

TEST(StatusTest, ErrorFactoriesSetCodeAndMessage) {
  const Status status = InvalidArgumentError("bad knob");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad knob");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad knob");
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, AnnotatePrefixesContext) {
  const Status annotated =
      Annotate(NotFoundError("no such key"), "workload.json");
  EXPECT_EQ(annotated.code(), StatusCode::kNotFound);
  EXPECT_EQ(annotated.message(), "workload.json: no such key");
  EXPECT_TRUE(Annotate(OkStatus(), "ignored").ok());
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  const StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(-1), 42);
  EXPECT_TRUE(good.status().ok());

  const StatusOr<int> bad = OutOfRangeError("too big");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(StatusOrTest, WorksWithMoveOnlyFriendlyTypes) {
  StatusOr<std::vector<std::string>> words =
      std::vector<std::string>{"join", "order"};
  ASSERT_TRUE(words.ok());
  const std::vector<std::string> taken = std::move(words).value();
  EXPECT_EQ(taken.size(), 2u);
}

Status FailIfNegative(int x) {
  if (x < 0) return InvalidArgumentError("negative");
  return OkStatus();
}

Status CheckBoth(int a, int b) {
  QOPT_RETURN_IF_ERROR(FailIfNegative(a));
  QOPT_RETURN_IF_ERROR(FailIfNegative(b));
  return OkStatus();
}

StatusOr<int> HalveEven(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

StatusOr<int> QuarterViaMacro(int x) {
  QOPT_ASSIGN_OR_RETURN(const int half, HalveEven(x));
  QOPT_ASSIGN_OR_RETURN(const int quarter, HalveEven(half));
  return quarter;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckBoth(1, 2).ok());
  EXPECT_EQ(CheckBoth(-1, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckBoth(1, -2).code(), StatusCode::kInvalidArgument);
}

TEST(StatusMacrosTest, AssignOrReturnUnwrapsOrPropagates) {
  const StatusOr<int> ok = QuarterViaMacro(12);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 3);
  EXPECT_FALSE(QuarterViaMacro(13).ok());  // fails at the first halving
  EXPECT_FALSE(QuarterViaMacro(6).ok());   // fails at the second halving
}

// ---------------------------------------------------------------------------
// Checked JSON accessors.

TEST(JsonStatusTest, ParseOrStatusReportsPosition) {
  const StatusOr<JsonValue> parsed =
      JsonValue::ParseOrStatus("{\"a\": 1,\n  \"b\": }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonStatusTest, ParseOrStatusRejectsTrailingGarbage) {
  const StatusOr<JsonValue> parsed = JsonValue::ParseOrStatus("{} extra");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("trailing"), std::string::npos)
      << parsed.status().ToString();
}

TEST(JsonStatusTest, GetAccessorsCheckKinds) {
  const auto doc = JsonValue::ParseOrStatus(
      R"({"n": 2.5, "i": 7, "s": "text", "b": true})");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(*doc->Find("n")->GetNumber(), 2.5);
  EXPECT_EQ(*doc->Find("i")->GetInt(), 7);
  EXPECT_EQ(*doc->Find("s")->GetString(), "text");
  EXPECT_TRUE(*doc->Find("b")->GetBool());

  const StatusOr<double> not_a_number = doc->Find("s")->GetNumber();
  ASSERT_FALSE(not_a_number.ok());
  EXPECT_NE(not_a_number.status().message().find("string"),
            std::string::npos);
  EXPECT_FALSE(doc->Find("n")->GetString().ok());
  EXPECT_FALSE(doc->Find("i")->GetBool().ok());
}

TEST(JsonStatusTest, GetIntRejectsFractionalAndHugeValues) {
  const auto doc = JsonValue::ParseOrStatus(
      R"({"frac": 0.5, "huge": 1e20, "neg": -3})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Find("frac")->GetInt().ok());
  EXPECT_FALSE(doc->Find("huge")->GetInt().ok());
  EXPECT_EQ(*doc->Find("neg")->GetInt(), -3);
}

// ---------------------------------------------------------------------------
// Malformed-corpus fault injection.

std::vector<std::filesystem::path> CorpusFiles() {
  const std::filesystem::path dir =
      std::filesystem::path(QQO_TEST_DATA_DIR) / "malformed";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  return files;
}

TEST(MalformedCorpusTest, CorpusIsPresent) {
  // Guards against the data directory silently not being found, which
  // would make the fault-injection loops below vacuous.
  EXPECT_GE(CorpusFiles().size(), 20u);
}

TEST(MalformedCorpusTest, LoadersReturnErrorsNotAborts) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    const std::string name = path.filename().string();
    if (name.rfind("join_", 0) == 0) {
      const auto graph = LoadQueryGraph(path.string());
      EXPECT_FALSE(graph.ok());
      EXPECT_FALSE(graph.status().message().empty());
      // Errors carry the file path so the user can tell which input of a
      // batch was bad.
      EXPECT_NE(graph.status().message().find(name), std::string::npos)
          << graph.status().ToString();
    } else {
      const auto problem = LoadMqoProblem(path.string());
      EXPECT_FALSE(problem.ok());
      EXPECT_FALSE(problem.status().message().empty());
      EXPECT_NE(problem.status().message().find(name), std::string::npos)
          << problem.status().ToString();
    }
  }
}

TEST(MalformedCorpusTest, CliExitsNonZeroOnEveryCorpusFile) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.string());
    const std::string name = path.filename().string();
    const std::string subcommand =
        name.rfind("join_", 0) == 0 ? "join" : "mqo";
    const int exit_code =
        cli::RunQqoCli({"qqo", subcommand, path.string()});
    EXPECT_EQ(exit_code, cli::kExitError);
  }
}

// ---------------------------------------------------------------------------
// CLI flag fault injection. Flag validation happens before any file is
// read, so a nonexistent path is fine for the usage-error cases.

TEST(CliFlagTest, UnknownFlagIsRejected) {
  // The "--sed=5" typo must not silently run with the default seed.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--sed=5"}),
            cli::kExitUsage);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "join", "g.json", "--tresholds=1,2"}),
            cli::kExitUsage);
}

TEST(CliFlagTest, NonNumericIntegerFlagIsRejected) {
  // --queries=abc used to become 0 via std::atoi.
  EXPECT_EQ(cli::RunQqoCli(
                {"qqo", "generate", "mqo", "/tmp/out.json", "--queries=abc"}),
            cli::kExitUsage);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--seed=abc"}),
            cli::kExitUsage);
}

TEST(CliFlagTest, OverflowingIntegerFlagIsRejected) {
  // --seed=9999999999999 used to overflow std::atoi silently.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "generate", "mqo", "/tmp/out.json",
                            "--queries=9999999999999"}),
            cli::kExitUsage);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--seed=-1"}),
            cli::kExitUsage);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json",
                            "--seed=99999999999999999999999999"}),
            cli::kExitUsage);
}

TEST(CliFlagTest, NonNumericFlagErrorSaysSoNotOutOfRange) {
  // Regression for the from_chars errc ordering in ParseEnvInt: on
  // invalid input the parsed value is untouched, so the old range-first
  // check reported --retries=abc as "0 out of range" instead of naming
  // the real problem.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--retries=abc"}),
            cli::kExitUsage);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("expected an integer"), std::string::npos) << err;
  EXPECT_EQ(err.find("out of range"), std::string::npos) << err;
}

TEST(CliFlagTest, BareValueFlagIsUsageError) {
  // A bare --seed used to run as seed 1 and a bare --backend failed as
  // `unknown backend "1"`: a value flag without =VALUE is misuse.
  for (const char* bare : {"--seed", "--backend"}) {
    SCOPED_TRACE(bare);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", bare}),
              cli::kExitUsage);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("expected =VALUE"), std::string::npos) << err;
  }
}

TEST(CliFlagTest, SwitchGivenAValueIsUsageError) {
  // --no-fallback=0 used to turn the fallback *off*.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--no-fallback=0"}),
            cli::kExitUsage);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("takes no value"), std::string::npos) << err;
}

TEST(CliFlagTest, PositionalsStillParseAroundFlags) {
  // The subcommand and path positionals come before the shared flag
  // parser; a missing file after valid flags is a runtime error, not a
  // usage error.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "/no/such/file.json", "--seed=3",
                            "--no-fallback"}),
            cli::kExitError);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "estimate", "join", "/no/such/file.json",
                            "--precision=2"}),
            cli::kExitError);
}

TEST(CliFlagTest, InvalidQqoThreadsIsUsageErrorOnEverySubcommand) {
  // Regression: QQO_THREADS=abc used to atoi to 0 and silently fall back
  // to hardware concurrency; the CLI now refuses to run.
  for (const char* bad : {"abc", "0", "-3"}) {
    setenv("QQO_THREADS", bad, 1);
    EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json"}), cli::kExitUsage)
        << "QQO_THREADS=" << bad;
  }
  unsetenv("QQO_THREADS");
}

TEST(CliFlagTest, InvalidDispatchFlagIsUsageError) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--dispatch=bogus"}),
            cli::kExitUsage);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--dispatch"), std::string::npos) << err;
}

TEST(CliFlagTest, TraceOutRequiresAFilename) {
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--trace-out"}),
            cli::kExitUsage);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--trace-out="}),
            cli::kExitUsage);
}

TEST(CliFlagTest, DuplicateFlagIsRejected) {
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "--seed=1", "--seed=2"}),
            cli::kExitUsage);
}

TEST(CliFlagTest, StrayPositionalIsRejected) {
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "w.json", "extra.json"}),
            cli::kExitUsage);
}

TEST(CliFlagTest, FlagInPlaceOfPathIsUsageError) {
  // `qqo mqo --backend=sa` with the workload file forgotten used to treat
  // the flag as a path.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "--backend=sa"}),
            cli::kExitUsage);
}

TEST(CliFlagTest, UnknownCommandIsUsageError) {
  EXPECT_EQ(cli::RunQqoCli({"qqo", "optimise", "w.json"}), cli::kExitUsage);
  EXPECT_EQ(cli::RunQqoCli({"qqo"}), cli::kExitUsage);
}

TEST(CliFlagTest, MissingWorkloadFileIsRuntimeError) {
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", "/no/such/file.json"}),
            cli::kExitError);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "join", "/no/such/file.json"}),
            cli::kExitError);
}

TEST(CliFlagTest, UnwritableOutputPathIsRuntimeError) {
  EXPECT_EQ(cli::RunQqoCli({"qqo", "generate", "mqo",
                            "/no/such/dir/out.json", "--queries=2",
                            "--ppq=2"}),
            cli::kExitError);
}

class CliWorkloadTest : public ::testing::Test {
 protected:
  // A small valid workload generated through the real CLI, for fault
  // cases that must get past the load stage.
  void SetUp() override {
    mqo_path_ = ::testing::TempDir() + "/status_cli_mqo.json";
    join_path_ = ::testing::TempDir() + "/status_cli_join.json";
    ASSERT_EQ(cli::RunQqoCli({"qqo", "generate", "mqo", mqo_path_,
                              "--queries=2", "--ppq=2", "--seed=3"}),
              cli::kExitOk);
    ASSERT_EQ(cli::RunQqoCli({"qqo", "generate", "join", join_path_,
                              "--relations=3", "--seed=3"}),
              cli::kExitOk);
  }

  std::string mqo_path_;
  std::string join_path_;
};

TEST_F(CliWorkloadTest, UnknownBackendIsUsageError) {
  EXPECT_EQ(
      cli::RunQqoCli({"qqo", "mqo", mqo_path_, "--backend=dwave9000"}),
      cli::kExitUsage);
}

TEST_F(CliWorkloadTest, MalformedThresholdsAreUsageErrors) {
  // std::atof would have read all of these as 0 and the encoder CHECK
  // would have aborted the process.
  for (const char* bad : {"--thresholds=abc", "--thresholds=1,,2",
                          "--thresholds=1,2x", "--thresholds=nan"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(cli::RunQqoCli({"qqo", "join", join_path_, bad}),
              cli::kExitUsage);
  }
}

TEST_F(CliWorkloadTest, NonAscendingThresholdsAreRejectedNotAborted) {
  // Used to die on an encoder CHECK.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "join", join_path_, "--thresholds=5,2"}),
            cli::kExitError);
}

TEST_F(CliWorkloadTest, ExcessivePrecisionIsUsageError) {
  // --precision=400 used to underflow 0.1^p inside the encoder and abort.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "join", join_path_, "--precision=400"}),
            cli::kExitUsage);
}

TEST_F(CliWorkloadTest, SolveRunsCleanlyOnValidInput) {
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", mqo_path_, "--backend=exact"}),
            cli::kExitOk);
  // The 3-relation join QUBO already has ~34 variables, beyond the exact
  // oracle's enumeration budget — simulated annealing handles it.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "join", join_path_, "--backend=sa"}),
            cli::kExitOk);
}

TEST_F(CliWorkloadTest, RacedSolveRunsCleanlyAndReportsLanes) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", mqo_path_, "--backend=sa",
                            "--dispatch=race"}),
            cli::kExitOk);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("race lanes:"), std::string::npos) << out;
}

/// `qqo mqo <mqo_path> --backend=sa --seed=7`: exit code and stdout.
std::pair<int, std::string> RunCliSolve(const std::string& mqo_path) {
  ::testing::internal::CaptureStdout();
  const int code = cli::RunQqoCli(
      {"qqo", "mqo", mqo_path, "--backend=sa", "--seed=7"});
  return {code, ::testing::internal::GetCapturedStdout()};
}

/// `qqo_serve` with `requests` on stdin: exit code and stdout.
std::pair<int, std::string> RunServeOnStdin(const std::string& requests) {
  const std::string path = ::testing::TempDir() + "/status_serve_in.jsonl";
  EXPECT_TRUE(WriteStringToFile(path, requests));
  const int saved_stdin = ::dup(STDIN_FILENO);
  const int in = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(in, 0);
  ::dup2(in, STDIN_FILENO);
  ::close(in);
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code = serve::RunQqoServe({"qqo_serve"});
  std::string out = ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  ::dup2(saved_stdin, STDIN_FILENO);
  ::close(saved_stdin);
  return {code, std::move(out)};
}

TEST_F(CliWorkloadTest, SolveSettingsComeFromFlagsNotTheEnvironment) {
  // Dispatch, decomposition and the daemon's queue are set by flags only:
  // variables that once stood in for those flags, even with values the
  // flags would refuse, change nothing.
  const std::optional<std::string> workload = ReadFileToString(mqo_path_);
  ASSERT_TRUE(workload.has_value());
  std::string compact = *workload;
  compact.erase(std::remove(compact.begin(), compact.end(), '\n'),
                compact.end());
  const std::string request =
      "{\"id\":\"e1\",\"type\":\"mqo\",\"backend\":\"sa\",\"seed\":7,"
      "\"workload\":" + compact + "}\n";
  const auto [clean_code, clean_out] = RunCliSolve(mqo_path_);
  ASSERT_EQ(clean_code, cli::kExitOk) << clean_out;

  setenv("QQO_DISPATCH", "bogus", 1);
  setenv("QQO_DECOMPOSE", "1", 1);
  setenv("QQO_SERVE_QUEUE", "0", 1);
  const auto [cli_code, cli_out] = RunCliSolve(mqo_path_);
  const auto [serve_code, serve_out] = RunServeOnStdin(request);
  unsetenv("QQO_DISPATCH");
  unsetenv("QQO_DECOMPOSE");
  unsetenv("QQO_SERVE_QUEUE");

  EXPECT_EQ(cli_code, cli::kExitOk);
  EXPECT_EQ(cli_out, clean_out);
  EXPECT_EQ(serve_code, serve::kServeExitOk);
  EXPECT_NE(serve_out.find("\"id\":\"e1\""), std::string::npos) << serve_out;
  EXPECT_NE(serve_out.find("\"ok\":true"), std::string::npos) << serve_out;
}

TEST_F(CliWorkloadTest, ExactBackendOverBudgetIsRuntimeError) {
  // Exact is a classical backend: exceeding its enumeration budget is a
  // hard error, never a silent fallback.
  EXPECT_EQ(cli::RunQqoCli({"qqo", "join", join_path_, "--backend=exact"}),
            cli::kExitError);
}

TEST_F(CliWorkloadTest, TracedSolveWritesValidChromeTrace) {
  const std::string trace_path =
      ::testing::TempDir() + "/status_cli_trace.json";
  std::filesystem::remove(trace_path);
  EXPECT_EQ(cli::RunQqoCli({"qqo", "mqo", mqo_path_, "--backend=sa",
                            "--trace-out=" + trace_path, "--metrics"}),
            cli::kExitOk);
  const std::optional<std::string> content = ReadFileToString(trace_path);
  ASSERT_TRUE(content.has_value());
  StatusOr<JsonValue> parsed = JsonValue::ParseOrStatus(*content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  EXPECT_GT(events->Size(), 0u);
}

TEST_F(CliWorkloadTest, UnknownDeviceAndAlgorithmAreUsageErrors) {
  EXPECT_EQ(
      cli::RunQqoCli({"qqo", "estimate", "mqo", mqo_path_, "--device=osprey"}),
      cli::kExitUsage);
  EXPECT_EQ(
      cli::RunQqoCli({"qqo", "qasm", "mqo", mqo_path_, "--algorithm=grover"}),
      cli::kExitUsage);
}

}  // namespace
}  // namespace qopt
