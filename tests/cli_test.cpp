// End-to-end tests for tools/sysmap_cli: argv validation (exit code 2
// with a usage block), the three modes, --report in verify mode, and the
// --metrics[=json] snapshot.  The binary path is injected at compile time
// via SYSMAP_CLI_PATH (see tests/CMakeLists.txt); each test shells out
// with stderr folded into stdout and pins the exit code.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli(const std::string& cli_args) {
  const std::string command =
      std::string(SYSMAP_CLI_PATH) + " " + cli_args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    result.output = "popen failed";
    return result;
  }
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string last_line(const std::string& text) {
  std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) return {};
  std::size_t start = text.rfind('\n', end);
  return text.substr(start == std::string::npos ? 0 : start + 1,
                     end - (start == std::string::npos ? 0 : start + 1) + 1);
}

TEST(CliTest, OptimizeModeSolvesMatmul) {
  const CliResult r = run_cli("--algo matmul --mu 4 --space \"1 1 -1\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("optimal Pi = [1, 4, 1]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("t = 25"), std::string::npos) << r.output;
}

TEST(CliTest, VerifyModeAcceptsPaperMapping) {
  const CliResult r =
      run_cli("--algo matmul --mu 4 --space \"1 1 -1\" --pi \"1 4 1\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("conflict-free"), std::string::npos) << r.output;
}

TEST(CliTest, VerifyModeRejectsConflictedPi) {
  const CliResult r =
      run_cli("--algo matmul --mu 4 --space \"1 1 -1\" --pi \"1 1 1\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(CliTest, VerifyModeHonorsReport) {
  // --report used to be silently ignored with --pi; it must now render
  // the same one-page report the optimizer produces.
  const CliResult r = run_cli(
      "--algo matmul --mu 4 --space \"1 1 -1\" --pi \"1 4 1\" --report");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("# Mapping report"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("user-specified Pi"), std::string::npos)
      << r.output;
}

TEST(CliTest, ExploreModeFindsParetoSet) {
  const CliResult r = run_cli("--algo matmul --mu 2 --explore");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("design space:"), std::string::npos) << r.output;
}

TEST(CliTest, UnknownOptionIsRejected) {
  const CliResult r = run_cli("--algo matmul --frobnicate");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown option '--frobnicate'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(CliTest, OptionSwallowingAnOptionIsRejected) {
  // The old parser consumed "--pi" as the VALUE of --space and then
  // searched with a bogus matrix; it must be a usage error instead.
  const CliResult r = run_cli("--algo matmul --space --pi");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("requires a value"), std::string::npos) << r.output;
}

TEST(CliTest, NegativeMatrixEntriesAreStillValues) {
  // Only the double-dash prefix is reserved; a leading minus sign in a
  // quoted matrix must keep parsing as a value.
  const CliResult r =
      run_cli("--algo matmul --mu 4 --space \"-1 -1 1\" --pi \"1 4 1\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CliTest, MissingTrailingValueIsRejected) {
  const CliResult r = run_cli("--algo matmul --space");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("requires a value"), std::string::npos) << r.output;
}

TEST(CliTest, NonPositiveNumericOptionsAreRejected) {
  EXPECT_EQ(run_cli("--algo matmul --mu 0 --space \"1 1 -1\"").exit_code, 2);
  EXPECT_EQ(run_cli("--algo matmul --mu -3 --space \"1 1 -1\"").exit_code, 2);
  EXPECT_EQ(
      run_cli("--algo bit_matmul --bits 0 --space \"1 1 -1\"").exit_code, 2);
  EXPECT_EQ(run_cli("--algo matmul --explore --max-entry 0").exit_code, 2);
  const CliResult r = run_cli("--algo matmul --mu nope --space \"1 1 -1\"");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("expects an integer"), std::string::npos)
      << r.output;
}

TEST(CliTest, ExploreModeRejectsFixedSpaceOptions) {
  // --method/--target (and --pi) used to be silently ignored with
  // --explore; they must fail fast now.
  for (const char* extra :
       {"--method ilp", "--target line", "--pi \"1 4 1\""}) {
    const CliResult r =
        run_cli(std::string("--algo matmul --mu 2 --explore ") + extra);
    EXPECT_EQ(r.exit_code, 2) << extra << "\n" << r.output;
    EXPECT_NE(r.output.find("has no effect in --explore mode"),
              std::string::npos)
        << extra << "\n" << r.output;
  }
}

TEST(CliTest, BadMethodValueIsRejected) {
  const CliResult r =
      run_cli("--algo matmul --mu 4 --space \"1 1 -1\" --method bogus");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("expects auto, proc51 or ilp"), std::string::npos)
      << r.output;
}

TEST(CliTest, UnknownAlgorithmIsRejected) {
  const CliResult r = run_cli("--algo nonesuch --space \"1 1 -1\"");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown algorithm"), std::string::npos)
      << r.output;
}

TEST(CliTest, MetricsJsonEmitsParseableObject) {
  const CliResult r =
      run_cli("--algo matmul --mu 4 --space \"1 1 -1\" --metrics=json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string json = last_line(r.output);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_EQ(json.back(), '}') << json;
  EXPECT_EQ(json.find(",}"), std::string::npos) << json;
  if (sysmap::obs::kEnabled) {
    EXPECT_NE(json.find("\"obs_enabled\":true"), std::string::npos) << json;
    // The acceptance contract: the fused solve's counter and span must be
    // present in the export.
    EXPECT_NE(json.find("\"search.pipeline.solves\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"search.pipeline.solve\""), std::string::npos)
        << json;
  } else {
    EXPECT_EQ(json, "{\"obs_enabled\":false,\"metrics\":{}}");
  }
}

TEST(CliTest, MetricsTableAppendsAfterFailure) {
  // The snapshot prints on every exit path, including mode failures.
  const CliResult r =
      run_cli("--algo matmul --mu 4 --space \"1 1 -1\" --pi \"1 1 1\" "
              "--metrics=json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string json = last_line(r.output);
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_NE(json.find("obs_enabled"), std::string::npos) << json;
}

TEST(CliTest, MetricsRejectsUnknownFormat) {
  const CliResult r =
      run_cli("--algo matmul --mu 4 --space \"1 1 -1\" --metrics=xml");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

}  // namespace
