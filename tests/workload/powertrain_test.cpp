#include "symcan/workload/powertrain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace symcan {
namespace {

TEST(Powertrain, DeterministicForSameSeed) {
  const KMatrix a = generate_powertrain(PowertrainConfig::case_study());
  const KMatrix b = generate_powertrain(PowertrainConfig::case_study());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.messages()[i].name, b.messages()[i].name);
    EXPECT_EQ(a.messages()[i].id, b.messages()[i].id);
    EXPECT_EQ(a.messages()[i].period, b.messages()[i].period);
    EXPECT_EQ(a.messages()[i].jitter, b.messages()[i].jitter);
  }
}

TEST(Powertrain, DifferentSeedsDiffer) {
  PowertrainConfig c1 = PowertrainConfig::case_study();
  PowertrainConfig c2 = c1;
  c2.seed = 123;
  const KMatrix a = generate_powertrain(c1);
  const KMatrix b = generate_powertrain(c2);
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    any_diff = any_diff || a.messages()[i].period != b.messages()[i].period ||
               a.messages()[i].id != b.messages()[i].id;
  EXPECT_TRUE(any_diff);
}

TEST(Powertrain, MatchesPaperScale) {
  // "more than 50 messages", several ECUs including a gateway.
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  EXPECT_GT(km.size(), 50u);
  EXPECT_GE(km.nodes().size(), 5u);
  bool has_gateway = false;
  for (const auto& n : km.nodes()) has_gateway = has_gateway || n.is_gateway;
  EXPECT_TRUE(has_gateway);
}

TEST(Powertrain, HitsTargetUtilization) {
  for (double target : {0.4, 0.5, 0.7}) {
    PowertrainConfig cfg = PowertrainConfig::case_study();
    cfg.target_utilization = target;
    const KMatrix km = generate_powertrain(cfg);
    EXPECT_NEAR(km.utilization(true), target, 0.02) << "target " << target;
  }
}

TEST(Powertrain, ValidatesAndHasRealisticFields) {
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  EXPECT_NO_THROW(km.validate());
  for (const auto& m : km.messages()) {
    EXPECT_GE(m.period, Duration::ms(1));
    EXPECT_LE(m.period, Duration::s(3));
    EXPECT_GE(m.payload_bytes, 1);
    EXPECT_LE(m.payload_bytes, 8);
    EXPECT_FALSE(m.receivers.empty());
    if (m.jitter_known) {
      // Known jitters are in the paper's 10..30 % band.
      const double frac = static_cast<double>(m.jitter.count_ns()) /
                          static_cast<double>(m.period.count_ns());
      EXPECT_GE(frac, 0.09);
      EXPECT_LE(frac, 0.31);
    } else {
      EXPECT_EQ(m.jitter, Duration::zero());
    }
  }
}

TEST(Powertrain, SomeJittersKnownSomeNot) {
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  std::size_t known = 0;
  for (const auto& m : km.messages())
    if (m.jitter_known) ++known;
  EXPECT_GT(known, 0u);
  EXPECT_LT(known, km.size());
}

TEST(Powertrain, RejectsBadConfig) {
  PowertrainConfig cfg;
  cfg.message_count = 0;
  EXPECT_THROW(generate_powertrain(cfg), std::invalid_argument);
  cfg = PowertrainConfig{};
  cfg.target_utilization = 1.5;
  EXPECT_THROW(generate_powertrain(cfg), std::invalid_argument);
  cfg = PowertrainConfig{};
  cfg.gateway_count = cfg.ecu_count;
  EXPECT_THROW(generate_powertrain(cfg), std::invalid_argument);
  cfg = PowertrainConfig{};
  cfg.message_count = kMaxPowertrainMessages + 1;
  EXPECT_THROW(generate_powertrain(cfg), std::invalid_argument);
}

TEST(Powertrain, LargeMatricesFallBackToDenseIds) {
  // 224 messages still fit ids spaced 8 apart from 0x100; beyond that the
  // ids are dense from 0x100, up to the whole 11-bit space.
  for (const int n : {224, 300, kMaxPowertrainMessages}) {
    PowertrainConfig cfg;
    cfg.message_count = n;
    const KMatrix km = generate_powertrain(cfg);
    EXPECT_EQ(km.size(), static_cast<std::size_t>(n));
    CanId top = 0;
    for (const auto& m : km.messages()) top = std::max(top, m.id);
    EXPECT_LE(top, max_standard_id);
    if (n > 224) {
      EXPECT_EQ(top, static_cast<CanId>(0x100 + n - 1));
    }
  }
}

TEST(AssumeJitterFraction, SetsUnknownOnly) {
  KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  KMatrix modified = km;
  assume_jitter_fraction(modified, 0.25, false);
  for (std::size_t i = 0; i < km.size(); ++i) {
    const auto& orig = km.messages()[i];
    const auto& mod = modified.messages()[i];
    if (orig.jitter_known) {
      EXPECT_EQ(mod.jitter, orig.jitter);
    } else {
      EXPECT_NEAR(static_cast<double>(mod.jitter.count_ns()),
                  0.25 * static_cast<double>(orig.period.count_ns()), 2.0);
    }
  }
}

TEST(AssumeJitterFraction, OverrideKnownAppliesEverywhere) {
  KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  assume_jitter_fraction(km, 0.10, true);
  for (const auto& m : km.messages())
    EXPECT_NEAR(static_cast<double>(m.jitter.count_ns()),
                0.10 * static_cast<double>(m.period.count_ns()), 2.0);
}

TEST(AssumeJitterFraction, RejectsNegative) {
  KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  EXPECT_THROW(assume_jitter_fraction(km, -0.1), std::invalid_argument);
}

TEST(ScalePeriods, ScalesPeriodAndJitterTogether) {
  KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  const Duration p0 = km.messages()[0].period;
  scale_periods(km, 2.0);
  EXPECT_EQ(km.messages()[0].period, p0 * 2);
  EXPECT_NEAR(km.utilization(true), 0.35, 0.02);
  EXPECT_THROW(scale_periods(km, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace symcan
