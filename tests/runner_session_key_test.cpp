// SessionKey correctness: the cache's entire safety story reduces to "equal
// configs hash equal, different configs hash different", so these tests walk
// every config dimension a bench actually varies and assert key sensitivity.
#include "runner/session_key.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "runner/version.h"

namespace rave {
namespace {

rtc::SessionConfig BaseConfig() {
  return bench::DefaultConfig(rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
                              video::ContentClass::kTalkingHead,
                              TimeDelta::Seconds(20), 7);
}

TEST(SessionKeyTest, DeterministicAcrossCalls) {
  const auto config = BaseConfig();
  const runner::SessionKey a = runner::ComputeSessionKey(config);
  const runner::SessionKey b = runner::ComputeSessionKey(config);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == runner::SessionKey{});  // all-zero key would be suspicious
}

TEST(SessionKeyTest, CopiesHashEqual) {
  const auto config = BaseConfig();
  const rtc::SessionConfig copy = config;
  EXPECT_EQ(runner::ComputeSessionKey(config), runner::ComputeSessionKey(copy));
}

TEST(SessionKeyTest, ToHexIs32LowercaseHexChars) {
  const runner::SessionKey key = runner::ComputeSessionKey(BaseConfig());
  const std::string hex = key.ToHex();
  ASSERT_EQ(hex.size(), 32u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
  // hi is emitted first, big-endian within the half.
  const runner::SessionKey probe{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(probe.ToHex(), "0123456789abcdeffedcba9876543210");
}

// Every dimension a bench varies must change the key. Collect the keys in a
// set: any collision between variants is a test failure.
TEST(SessionKeyTest, EveryVariedFieldChangesTheKey) {
  std::set<std::string> keys;
  auto add = [&keys](const rtc::SessionConfig& config) {
    const std::string hex = runner::ComputeSessionKey(config).ToHex();
    EXPECT_TRUE(keys.insert(hex).second) << "key collision: " << hex;
  };

  add(BaseConfig());

  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    if (scheme == rtc::Scheme::kAdaptive) continue;
    auto config = BaseConfig();
    config.scheme = scheme;
    add(config);
  }
  for (video::ContentClass content : video::kAllContentClasses) {
    if (content == video::ContentClass::kTalkingHead) continue;
    auto config = BaseConfig();
    config.source.content = content;
    add(config);
  }
  {
    auto config = BaseConfig();
    config.seed = 8;
    add(config);
  }
  {
    auto config = BaseConfig();
    config.duration = TimeDelta::Seconds(21);
    add(config);
  }
  {
    auto config = BaseConfig();
    config.link.trace = bench::DropTrace(0.51);
    add(config);
  }
  {
    auto config = BaseConfig();
    config.link.propagation = config.link.propagation + TimeDelta::Millis(1);
    add(config);
  }
  {
    auto config = BaseConfig();
    config.link.loss.random_loss = config.link.loss.random_loss + 0.001;
    add(config);
  }
  {
    auto config = BaseConfig();
    config.source.fps = config.source.fps + 1;
    add(config);
  }
  {
    auto config = BaseConfig();
    config.initial_rate = config.initial_rate + DataRate::KilobitsPerSec(1);
    add(config);
  }
  {
    auto config = BaseConfig();
    config.enable_fec = !config.enable_fec;
    add(config);
  }
  {
    // A summary-only result must never serve a caller that reads frames.
    auto config = BaseConfig();
    config.keep_frame_detail = !config.keep_frame_detail;
    add(config);
  }
  {
    auto config = BaseConfig();
    config.faults =
        fault::FaultPlan().Outage(Timestamp::Seconds(5), TimeDelta::Seconds(1));
    add(config);
  }
  {
    auto config = BaseConfig();
    config.faults = fault::FaultPlan().DelaySpike(
        Timestamp::Seconds(5), TimeDelta::Seconds(1), TimeDelta::Millis(150));
    add(config);
  }

  // --- wireless tier: every new field must reach the key ---
  {
    auto config = BaseConfig();
    config.wireless_profile = "wifi-fade";
    add(config);
  }
  {
    auto config = BaseConfig();
    config.wireless_profile = "lte-handover";
    add(config);
  }
  {
    auto config = BaseConfig();
    config.link.loss.gilbert_step = TimeDelta::Millis(5);
    add(config);
  }
  // A handover event and each of its cell parameters.
  auto handover = [](DataRate rate, TimeDelta owd,
                     std::optional<net::LossModel> loss = std::nullopt) {
    auto config = BaseConfig();
    config.faults = fault::FaultPlan().Handover(
        Timestamp::Seconds(5), TimeDelta::Millis(200), rate, owd,
        std::move(loss));
    return config;
  };
  add(handover(DataRate::KilobitsPerSec(900), TimeDelta::Millis(60)));
  add(handover(DataRate::KilobitsPerSec(901), TimeDelta::Millis(60)));
  add(handover(DataRate::KilobitsPerSec(900), TimeDelta::Millis(61)));
  {
    net::LossModel loss;
    loss.random_loss = 0.01;
    add(handover(DataRate::KilobitsPerSec(900), TimeDelta::Millis(60), loss));
    loss.random_loss = 0.02;
    add(handover(DataRate::KilobitsPerSec(900), TimeDelta::Millis(60), loss));
    loss.gilbert_enabled = true;
    add(handover(DataRate::KilobitsPerSec(900), TimeDelta::Millis(60), loss));
    loss.gilbert_step = TimeDelta::Millis(7);
    add(handover(DataRate::KilobitsPerSec(900), TimeDelta::Millis(60), loss));
    loss.seed = 12345;
    add(handover(DataRate::KilobitsPerSec(900), TimeDelta::Millis(60), loss));
  }
  {
    auto config = BaseConfig();
    config.faults = fault::FaultPlan().Renegotiate(
        Timestamp::Seconds(5), TimeDelta::Seconds(2),
        DataRate::KilobitsPerSec(1200));
    add(config);
  }
  {
    auto config = BaseConfig();
    config.faults = fault::FaultPlan().Renegotiate(
        Timestamp::Seconds(5), TimeDelta::Seconds(2),
        DataRate::KilobitsPerSec(1201));
    add(config);
  }
}

// The trace contributes through its full step list, not its address: two
// distinct Interned instances with identical steps must hash identically.
TEST(SessionKeyTest, EqualTracesHashEqualAcrossInstances) {
  auto a = BaseConfig();
  auto b = BaseConfig();
  a.link.trace = net::CapacityTrace::StepDrop(DataRate::KilobitsPerSec(2500),
                                              DataRate::KilobitsPerSec(1000),
                                              Timestamp::Seconds(10));
  b.link.trace = net::CapacityTrace::StepDrop(DataRate::KilobitsPerSec(2500),
                                              DataRate::KilobitsPerSec(1000),
                                              Timestamp::Seconds(10));
  EXPECT_NE(&*a.link.trace, &*b.link.trace);
  EXPECT_EQ(runner::ComputeSessionKey(a), runner::ComputeSessionKey(b));
}

TEST(SessionKeyTest, HashBytesSeedAndContentSensitivity) {
  const uint8_t data[] = {1, 2, 3, 4, 5};
  const uint8_t tweaked[] = {1, 2, 3, 4, 6};
  const auto a = runner::HashBytes(data, sizeof(data), 0);
  EXPECT_EQ(a, runner::HashBytes(data, sizeof(data), 0));
  EXPECT_FALSE(a == runner::HashBytes(data, sizeof(data), 1));
  EXPECT_FALSE(a == runner::HashBytes(tweaked, sizeof(tweaked), 0));
  EXPECT_FALSE(a == runner::HashBytes(data, sizeof(data) - 1, 0));
}

TEST(SessionKeyTest, StdHashFoldsBothHalves) {
  const std::hash<runner::SessionKey> h;
  EXPECT_NE(h({1, 0}), h({2, 0}));
  EXPECT_NE(h({0, 1}), h({0, 2}));
}

// The option string is the `--version` stamp that ties an output to the
// build that produced it, next to the fingerprint and blob version, so the
// exact field set is pinned.
TEST(VersionTest, BuildOptionsStringPrintsExactFieldSet) {
  std::istringstream fields(runner::BuildOptionsString());
  std::vector<std::string> keys;
  std::string field;
  while (fields >> field) {
    const size_t eq = field.find('=');
    ASSERT_NE(eq, std::string::npos) << field;
    const std::string value = field.substr(eq + 1);
    EXPECT_TRUE(value == "on" || value == "off") << field;
    keys.push_back(field.substr(0, eq));
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"tracing", "alloc_probe",
                                            "coalesce"}));
}

}  // namespace
}  // namespace rave
