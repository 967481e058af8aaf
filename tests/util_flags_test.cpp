#include "util/flags.h"

#include <gtest/gtest.h>

namespace rave {
namespace {

Flags Parse(std::vector<const char*> argv) {
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  const Flags flags = Parse({"--scheme=rave-adaptive", "--severity=0.5"});
  EXPECT_EQ(flags.GetString("scheme", ""), "rave-adaptive");
  EXPECT_DOUBLE_EQ(flags.GetDouble("severity", 0.0), 0.5);
}

TEST(FlagsTest, SpaceForm) {
  const Flags flags = Parse({"--seconds", "40", "--scheme", "x264-abr"});
  EXPECT_EQ(flags.GetInt("seconds", 0), 40);
  EXPECT_EQ(flags.GetString("scheme", ""), "x264-abr");
}

TEST(FlagsTest, BooleanForms) {
  const Flags flags =
      Parse({"--fec", "--rtx=false", "--degradation=yes", "--csv"});
  EXPECT_TRUE(flags.GetBool("fec", false));
  EXPECT_FALSE(flags.GetBool("rtx", true));
  EXPECT_TRUE(flags.GetBool("degradation", false));
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagsTest, Positional) {
  const Flags flags = Parse({"run", "--seed=3", "traces/x.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "traces/x.txt");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags flags = Parse({});
  EXPECT_EQ(flags.GetString("x", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("x", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 1.5), 1.5);
  EXPECT_FALSE(flags.Has("x"));
}

TEST(FlagsTest, TypeErrorsThrow) {
  const Flags flags = Parse({"--n=abc", "--f=1.2.3", "--b=maybe"});
  EXPECT_THROW(flags.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("f", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.GetBool("b", false), std::invalid_argument);
}

TEST(FlagsTest, BareDashDashThrows) {
  EXPECT_THROW(Parse({"--"}), std::invalid_argument);
}

TEST(FlagsTest, UnknownKeysDetectsTypos) {
  const Flags flags = Parse({"--scheme=x", "--sevrity=0.5"});
  const auto unknown = flags.UnknownKeys({"scheme", "severity"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "sevrity");
}

TEST(FlagsTest, LastValueWins) {
  const Flags flags = Parse({"--seed=1", "--seed=2"});
  EXPECT_EQ(flags.GetInt("seed", 0), 2);
}

TEST(FlagsTest, NonFiniteDoublesRejected) {
  // std::stod happily parses "nan"/"inf"; no flag in this codebase means
  // either, so they must fail loudly instead of poisoning downstream math.
  const Flags flags = Parse({"--a=nan", "--b=inf", "--c=-inf", "--d=NAN"});
  EXPECT_THROW(flags.GetDouble("a", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("b", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("c", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("d", 0.0), std::invalid_argument);
}

TEST(FlagsTest, IntegerTrailingGarbageRejected) {
  // std::stoll would happily stop at the first non-digit; "--jobs=5x" must
  // not silently run with 5 jobs.
  const Flags flags = Parse({"--jobs=5x", "--sessions=1 ", "--n=0x10"});
  EXPECT_THROW(flags.GetInt("jobs", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetInt("sessions", 1), std::invalid_argument);
  EXPECT_THROW(flags.GetInt("n", 0), std::invalid_argument);
  try {
    flags.GetInt("jobs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
        << e.what();
  }
}

TEST(FlagsTest, IntegerOverflowRejected) {
  const Flags flags =
      Parse({"--jobs=99999999999999999999", "--n=-99999999999999999999"});
  EXPECT_THROW(flags.GetInt("n", 0), std::invalid_argument);
  try {
    flags.GetInt("jobs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--jobs"), std::string::npos) << what;
    EXPECT_NE(what.find("overflow"), std::string::npos) << what;
  }
}

TEST(FlagsTest, RangedGetIntEnforcesBounds) {
  const Flags flags = Parse({"--jobs=-1", "--sessions=0", "--ok=8"});
  // --jobs can't be negative, --sessions can't be zero; the error names the
  // flag and the accepted range.
  EXPECT_THROW(flags.GetInt("jobs", 0, 0, 1 << 16), std::invalid_argument);
  EXPECT_THROW(flags.GetInt("sessions", 1, 1, 1 << 16), std::invalid_argument);
  EXPECT_EQ(flags.GetInt("ok", 0, 0, 1 << 16), 8);
  EXPECT_EQ(flags.GetInt("absent", 3, 0, 1 << 16), 3);
  try {
    flags.GetInt("sessions", 1, 1, 1 << 16);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--sessions"), std::string::npos) << what;
    EXPECT_NE(what.find("range"), std::string::npos) << what;
  }
}

TEST(FlagsTest, OrdinaryDoublesStillParse) {
  const Flags flags = Parse({"--x=-2.5", "--y=1e3"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0.0), -2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("y", 0.0), 1000.0);
}

}  // namespace
}  // namespace rave
