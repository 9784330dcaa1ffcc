// Strict numeric command-line flags (tools/cli_flags.h): a malformed number
// is a usage error naming the flag, never a silent zero. Checked on the
// parser itself and on every tool that reads numeric flags through it.

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "tools/cli_flags.h"

namespace longstore {
namespace {

TEST(CliFlagsTest, AcceptsWholeNumbers) {
  EXPECT_EQ(ParseFlag<int>("tool", "--threads", "8"), 8);
  EXPECT_EQ(ParseFlag<int>("tool", "--threads", "-3"), -3);
  EXPECT_EQ(ParseFlag<long>("tool", "--trials", "4000"), 4000);
  EXPECT_EQ(ParseFlag<uint64_t>("tool", "--seed", "0x5ca1ab1e"), 0x5ca1ab1eu);
  EXPECT_EQ(ParseFlag<uint64_t>("tool", "--seed", "18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(ParseFlag<double>("tool", "--precision", "0.05"), 0.05);
  EXPECT_EQ(ParseFlag<double>("tool", "--timeout-s", "1e3"), 1000.0);
}

TEST(CliFlagsTest, RejectsMalformedValuesNamingTheFlag) {
  const auto bad = [](auto parse, const char* needle) {
    EXPECT_EXIT(parse(), ::testing::ExitedWithCode(2), needle);
  };
  bad([] { return ParseFlag<int>("tool", "--threads", "abc"); },
      "tool: bad --threads value 'abc': not a number");
  bad([] { return ParseFlag<int>("tool", "--threads", ""); }, "--threads .*empty");
  bad([] { return ParseFlag<int>("tool", "--threads", "4x"); },
      "--threads .*trailing characters");
  bad([] { return ParseFlag<int>("tool", "--threads", " 4"); }, "not a number");
  bad([] { return ParseFlag<int>("tool", "--threads", "99999999999"); },
      "--threads .*out of range");
  bad([] { return ParseFlag<long>("tool", "--trials", "1e6"); },
      "--trials .*trailing characters");
  bad([] { return ParseFlag<uint64_t>("tool", "--seed", "-1"); }, "--seed");
  bad([] { return ParseFlag<uint64_t>("tool", "--seed", "0x"); }, "--seed");
  bad([] { return ParseFlag<double>("tool", "--precision", "0,05"); },
      "--precision .*trailing characters");
  bad([] { return ParseFlag<double>("tool", "--precision", "nan"); },
      "--precision .*not finite");
  bad([] { return ParseFlag<double>("tool", "--precision", "1e999"); },
      "--precision .*out of range");
}

struct ToolRun {
  int status = -1;
  std::string output;  // stdout and stderr together
};

ToolRun RunTool(const std::string& command) {
  ToolRun run;
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buffer[512];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  run.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// Each tool rejects a non-numeric value before doing any work.
void ExpectRejected(const std::string& tool, const std::string& args,
                    const std::string& flag) {
  SCOPED_TRACE(tool + " " + args);
  const ToolRun run = RunTool(tool + " " + args);
  EXPECT_EQ(run.status, 2) << run.output;
  EXPECT_NE(run.output.find("bad " + flag + " value"), std::string::npos)
      << run.output;
}

TEST(CliFlagsTest, SweepFleetRejectsMalformedNumbers) {
  ExpectRejected(LONGSTORE_SWEEP_FLEET, "--cheetah --single --threads=abc", "--threads");
  ExpectRejected(LONGSTORE_SWEEP_FLEET, "--cheetah --single --trials=2k", "--trials");
  ExpectRejected(LONGSTORE_SWEEP_FLEET, "--cheetah --single --seed=", "--seed");
}

TEST(CliFlagsTest, FrontierPlanRejectsMalformedNumbers) {
  ExpectRejected(LONGSTORE_FRONTIER_PLAN, "--golden-small --threads=abc", "--threads");
  ExpectRejected(LONGSTORE_FRONTIER_PLAN, "--golden-small --budget=lots", "--budget");
  ExpectRejected(LONGSTORE_FRONTIER_PLAN, "--golden-small --migrate-at=10,x",
                 "--migrate-at");
}

TEST(CliFlagsTest, SweepServicedRejectsMalformedNumbers) {
  ExpectRejected(LONGSTORE_SWEEP_SERVICED, "--stdio --threads=abc", "--threads");
  ExpectRejected(LONGSTORE_SWEEP_SERVICED, "--stdio --cache-capacity=-", "--cache-capacity");
}

TEST(CliFlagsTest, SweepClientRejectsMalformedNumbers) {
  ExpectRejected(LONGSTORE_SWEEP_CLIENT,
                 "--socket=/nonexistent.sock --cheetah --max-trials=abc", "--max-trials");
  ExpectRejected(LONGSTORE_SWEEP_CLIENT,
                 "--socket=/nonexistent.sock --cheetah --precision=0.0.1", "--precision");
}

}  // namespace
}  // namespace longstore
