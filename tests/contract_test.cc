// Contract test of the solve options that the qqo CLI and the qqo_serve
// protocol share (serve::SolveRequest). Every solve option is driven
// through both front ends at the edges of its range, and both must accept
// or reject each input alike; a rejection must name the option the way
// that front end's user wrote it. A fixed solve through both front ends
// must pick the same plans.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.h"
#include "common/table_printer.h"
#include "io/workload_io.h"
#include "qqo_cli.h"
#include "serve/protocol.h"
#include "serve/server.h"

#ifndef QQO_WORKLOAD_DIR
#error "QQO_WORKLOAD_DIR must be defined by the build"
#endif

namespace qopt {
namespace {

constexpr const char* kMqoWorkload =
    "{\"queries\":[{\"plans\":[{\"cost\":5},{\"cost\":7}]},"
    "{\"plans\":[{\"cost\":6},{\"cost\":9}]}],"
    "\"savings\":[{\"plan1\":0,\"plan2\":2,\"saving\":2}]}";

constexpr const char* kJoinWorkload =
    "{\"relations\":[{\"cardinality\":10},{\"cardinality\":10},"
    "{\"cardinality\":10}],"
    "\"predicates\":[{\"rel1\":0,\"rel2\":1,\"selectivity\":0.1}]}";

struct Outcome {
  bool accepted = false;
  std::string message;  ///< The diagnostic of a rejection.
};

/// `qqo <kind> <missing file> <flag>`. Flags are validated before the file
/// is read, so an accepted flag ends in the missing-file error (exit 1)
/// and a rejected one in a usage error (exit 2).
Outcome RunCli(const std::string& kind, const std::string& flag) {
  ::testing::internal::CaptureStderr();
  const int code =
      cli::RunQqoCli({"qqo", kind, "/no/such/workload.json", flag});
  Outcome outcome{code == cli::kExitError,
                  ::testing::internal::GetCapturedStderr()};
  EXPECT_TRUE(code == cli::kExitError || code == cli::kExitUsage)
      << flag << " exited " << code << ": " << outcome.message;
  return outcome;
}

/// A `kind` solve request carrying `field` (a `"name":value` member).
Outcome RunServe(const std::string& kind, const std::string& field) {
  const std::string line =
      "{\"id\":\"c1\",\"type\":\"" + kind + "\"," + field +
      ",\"workload\":" + (kind == "join" ? kJoinWorkload : kMqoWorkload) +
      "}";
  const StatusOr<serve::ServeRequest> parsed =
      serve::ParseServeRequest(line, DispatchMode::kSerial);
  return {parsed.ok(), parsed.ok() ? "" : parsed.status().ToString()};
}

std::string FlagName(std::string option) {
  for (char& c : option) {
    if (c == '_') c = '-';
  }
  return option;
}

/// One input driven through both front ends: `flag_text` as the CLI flag
/// value (empty for a bare switch), `json_text` as the request field.
struct Input {
  std::string flag_text;
  std::string json_text;
  bool legal;
};

void ExpectBothAgree(const std::string& kind, const std::string& option,
                     const Input& input) {
  const std::string flag = FlagName(option);
  SCOPED_TRACE(option + " = " + input.json_text);
  const Outcome cli = RunCli(kind, "--" + flag +
                                       (input.flag_text.empty()
                                            ? ""
                                            : "=" + input.flag_text));
  const Outcome serve = RunServe(kind, "\"" + option + "\":" +
                                           input.json_text);
  EXPECT_EQ(cli.accepted, input.legal) << cli.message;
  EXPECT_EQ(serve.accepted, input.legal) << serve.message;
  if (!input.legal) {
    EXPECT_NE(cli.message.find("flag --" + flag), std::string::npos)
        << cli.message;
    EXPECT_NE(serve.message.find("field \"" + option + "\""),
              std::string::npos)
        << serve.message;
  }
}

struct IntOptionCase {
  const char* option;
  long long min;
  long long max;
  const char* kind;
};

TEST(SolveContractTest, IntegerOptionsAgreeAtTheirRangeEdges) {
  const IntOptionCase cases[] = {
      {"seed", 0, 1LL << 53, "mqo"},
      {"timeout_ms", 0, 24LL * 60 * 60 * 1000, "mqo"},
      {"retries", 1, 100, "mqo"},
      {"decompose", 0, 1000000, "mqo"},
      {"pegasus", 2, 16, "mqo"},
      {"precision", 0, 16, "join"},
  };
  for (const IntOptionCase& c : cases) {
    // JSON numbers are doubles, so 2^53 + 1 would read as 2^53: the seed
    // steps two past its maximum.
    const long long above = c.max + (c.max == (1LL << 53) ? 2 : 1);
    for (const long long value : {c.min - 1, c.min, c.max, above}) {
      const std::string text = std::to_string(value);
      ExpectBothAgree(c.kind, c.option,
                      {text, text, value >= c.min && value <= c.max});
    }
    ExpectBothAgree(c.kind, c.option, {"1.5", "1.5", false});
  }
  // Past 64 bits: qqo used to take this seed that qqo_serve refused.
  ExpectBothAgree("mqo", "seed",
                  {"18446744073709551615", "18446744073709551615", false});
}

TEST(SolveContractTest, NamedSwitchAndListOptionsAgree) {
  ExpectBothAgree("mqo", "backend", {"annealer", "\"annealer\"", true});
  ExpectBothAgree("mqo", "backend", {"abacus", "\"abacus\"", false});
  ExpectBothAgree("mqo", "dispatch", {"race", "\"race\"", true});
  ExpectBothAgree("mqo", "dispatch", {"bogus", "\"bogus\"", false});
  ExpectBothAgree("mqo", "no_fallback", {"", "true", true});
  ExpectBothAgree("mqo", "no_fallback", {"1", "1", false});
  ExpectBothAgree("join", "thresholds", {"10,100", "[10,100]", true});
  ExpectBothAgree("join", "thresholds", {"abc", "\"abc\"", false});
}

TEST(SolveContractTest, DecomposeOneAndUnknownBackendAreInvalidArgument) {
  // perfbench's serve probe asserts these codes on its malformed lines.
  for (const auto& [option, flag_text, json_text] :
       {std::tuple<std::string, std::string, std::string>{"decompose", "1",
                                                          "1"},
        {"backend", "warp", "\"warp\""}}) {
    const Outcome cli = RunCli("mqo", "--" + option + "=" + flag_text);
    const Outcome serve = RunServe("mqo", "\"" + option + "\":" + json_text);
    EXPECT_FALSE(cli.accepted);
    EXPECT_FALSE(serve.accepted);
    EXPECT_NE(cli.message.find("INVALID_ARGUMENT"), std::string::npos)
        << cli.message;
    EXPECT_EQ(serve.message.rfind("INVALID_ARGUMENT", 0), 0u)
        << serve.message;
  }
}

TEST(SolveContractTest, BothFrontEndsPickTheSamePlans) {
  const std::string path =
      std::string(QQO_WORKLOAD_DIR) + "/mqo_batch_4x4.json";
  ::testing::internal::CaptureStdout();
  const int code =
      cli::RunQqoCli({"qqo", "mqo", path, "--backend=sa", "--seed=7"});
  const std::string cli_out = ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(code, cli::kExitOk) << cli_out;
  EXPECT_NE(cli_out.find("cost: 31.9509\n"), std::string::npos) << cli_out;
  EXPECT_NE(cli_out.find("selection (query: plan): 0:0 1:4 2:9 3:12\n"),
            std::string::npos)
      << cli_out;

  const StatusOr<MqoProblem> problem = LoadMqoProblem(path);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  std::istringstream in(
      "{\"id\":\"s1\",\"type\":\"mqo\",\"backend\":\"sa\",\"seed\":7,"
      "\"workload\":" +
      MqoProblemToJson(*problem).Dump() + "}\n");
  std::ostringstream out;
  serve::Server server{serve::ServerOptions()};
  ASSERT_TRUE(server.Serve(in, out).ok());
  const StatusOr<JsonValue> response = JsonValue::ParseOrStatus(out.str());
  ASSERT_TRUE(response.ok()) << out.str();
  const JsonValue* result = response->Find("result");
  ASSERT_NE(result, nullptr) << out.str();
  std::vector<int> selection;
  const JsonValue* plans = result->Find("selection");
  ASSERT_NE(plans, nullptr) << out.str();
  for (std::size_t q = 0; q < plans->Size(); ++q) {
    selection.push_back(static_cast<int>(plans->At(q).GetNumber().value()));
  }
  EXPECT_EQ(selection, (std::vector<int>{0, 4, 9, 12}));
  EXPECT_EQ(StrFormat("%.6g", result->Find("cost")->GetNumber().value()),
            "31.9509");
}

}  // namespace
}  // namespace qopt
