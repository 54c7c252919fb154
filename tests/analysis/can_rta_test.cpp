#include "symcan/analysis/can_rta.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "davis2007.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

/// Three 8-byte messages on one fullCAN node, 500 kbit/s, worst-case
/// stuffing: every frame takes exactly 270 us. Small enough to verify by
/// hand against the Davis et al. equations.
KMatrix three_messages(Duration t1 = Duration::ms(2), Duration t2 = Duration::us(2500),
                       Duration t3 = Duration::us(3500)) {
  KMatrix km{"hand", BitTiming{500'000}};
  EcuNode n;
  n.name = "N";
  km.add_node(n);
  EcuNode m;
  m.name = "M";
  km.add_node(m);
  const struct {
    const char* name;
    CanId id;
    Duration period;
    const char* sender;
  } rows[] = {{"m1", 1, t1, "N"}, {"m2", 2, t2, "M"}, {"m3", 3, t3, "N"}};
  for (const auto& r : rows) {
    CanMessage msg;
    msg.name = r.name;
    msg.id = r.id;
    msg.payload_bytes = 8;
    msg.period = r.period;
    msg.sender = r.sender;
    msg.receivers = {"N"};
    km.add_message(msg);
  }
  return km;
}

CanRtaConfig plain_config() {
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  return cfg;
}

TEST(CanRta, HandComputedResponseTimes) {
  const CanRta rta{three_messages(), plain_config()};
  const BusResult res = rta.analyze();
  ASSERT_EQ(res.messages.size(), 3u);
  // m1: blocked by one lower-priority frame (270 us), then transmits.
  EXPECT_EQ(res.messages[0].wcrt, Duration::us(540));
  EXPECT_EQ(res.messages[0].blocking, Duration::us(270));
  // m2: blocking 270 + one m1 interference + own frame = 810 us.
  EXPECT_EQ(res.messages[1].wcrt, Duration::us(810));
  // m3: lowest priority, no blocking, two higher-priority frames first.
  EXPECT_EQ(res.messages[2].wcrt, Duration::us(810));
  EXPECT_EQ(res.messages[2].blocking, Duration::zero());
  for (const auto& m : res.messages) {
    EXPECT_TRUE(m.schedulable);
    EXPECT_FALSE(m.diverged);
  }
}

TEST(CanRta, BestCaseResponseIsUnstuffedFrameTime) {
  const CanRta rta{three_messages(), plain_config()};
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(rta.analyze_message(i).bcrt, Duration::us(222));
}

TEST(CanRta, UnstuffedConfigShrinksResponses) {
  CanRtaConfig cfg = plain_config();
  cfg.worst_case_stuffing = false;
  const BusResult res = CanRta{three_messages(), cfg}.analyze();
  // All frame times 222 us: m1 = 444, m2/m3 = 666.
  EXPECT_EQ(res.messages[0].wcrt, Duration::us(444));
  EXPECT_EQ(res.messages[1].wcrt, Duration::us(666));
  EXPECT_EQ(res.messages[2].wcrt, Duration::us(666));
}

TEST(CanRta, SporadicErrorInflatesByRecoveryPlusRetransmission) {
  CanRtaConfig cfg = plain_config();
  cfg.errors = std::make_shared<SporadicErrors>(Duration::ms(10));
  const MessageResult m1 = CanRta{three_messages(), cfg}.analyze_message(0);
  // One fault in the short busy window: +31*2us recovery +270us retx.
  EXPECT_EQ(m1.wcrt, Duration::us(540 + 332));
}

TEST(CanRta, JitterPropagatesToDeadlineUnderMinReArrival) {
  KMatrix km = three_messages();
  km.messages()[0].jitter = Duration::us(500);
  CanRtaConfig cfg = plain_config();
  cfg.deadline_override = DeadlinePolicy::kMinReArrival;
  const MessageResult m1 = CanRta{km, cfg}.analyze_message(0);
  EXPECT_EQ(m1.deadline, Duration::ms(2) - Duration::us(500));
}

TEST(CanRta, HigherPriorityJitterIncreasesInterference) {
  // m1 jitter large enough that two m1 instances can hit m3's window.
  KMatrix km = three_messages(Duration::ms(1), Duration::ms(10), Duration::ms(10));
  KMatrix jittered = km;
  jittered.messages()[0].jitter = Duration::us(900);
  const CanRtaConfig cfg = plain_config();
  const Duration base = CanRta{km, cfg}.analyze_message(2).wcrt;
  const Duration with_jitter = CanRta{jittered, cfg}.analyze_message(2).wcrt;
  EXPECT_GT(with_jitter, base);
}

TEST(CanRta, OverloadDiverges) {
  // Three messages with 270 us frames every 500 us: utilization > 1.
  KMatrix km = three_messages(Duration::us(500), Duration::us(500), Duration::us(500));
  CanRtaConfig cfg = plain_config();
  cfg.horizon = Duration::ms(100);
  const BusResult res = CanRta{km, cfg}.analyze();
  EXPECT_GT(res.utilization, 1.0);
  // The lowest-priority message certainly diverges.
  EXPECT_TRUE(res.messages[2].diverged);
  EXPECT_FALSE(res.messages[2].schedulable);
  EXPECT_TRUE(res.messages[2].wcrt.is_infinite());
  EXPECT_GT(res.miss_count(), 0u);
}

TEST(CanRta, BasicCanIntraNodeBlockingCharged) {
  KMatrix km = three_messages();
  // Make node N basicCAN with 2 buffers: m1 shares N with lower-priority
  // m3, so m1 is additionally blocked by m3's committed frame.
  KMatrix basic{"hand2", BitTiming{500'000}};
  for (auto node : km.nodes()) {
    if (node.name == "N") {
      node.controller = ControllerType::kBasicCan;
      node.tx_buffers = 2;
    }
    basic.add_node(node);
  }
  for (const auto& m : km.messages()) basic.add_message(m);

  const MessageResult with_queue = CanRta{basic, plain_config()}.analyze_message(0);
  const MessageResult without = CanRta{km, plain_config()}.analyze_message(0);
  // FIFO degradation: m1 competes at m3's rank while committed behind it.
  // Blocking becomes the committed m3 frame (no frame sits below m3's
  // rank, so no bus blocking), and m2 now interferes: the response grows
  // by one full frame versus the fullCAN node.
  EXPECT_EQ(with_queue.blocking, Duration::us(270));
  EXPECT_EQ(with_queue.wcrt, without.wcrt + Duration::us(270));
  EXPECT_EQ(with_queue.wcrt, Duration::us(810));

  CanRtaConfig no_queues = plain_config();
  no_queues.model_controller_queues = false;
  const CanRta rta_no_queues{basic, no_queues};
  EXPECT_EQ(rta_no_queues.analyze_message(0).blocking, without.blocking);
}

TEST(CanRta, MissFractionCountsMisses) {
  KMatrix km = three_messages(Duration::ms(2), Duration::us(2500), Duration::us(700));
  // m3 deadline 700 us < its 810 us response: one miss.
  const BusResult res = CanRta{km, plain_config()}.analyze();
  EXPECT_EQ(res.miss_count(), 1u);
  EXPECT_NEAR(res.miss_fraction(), 1.0 / 3.0, 1e-9);
  EXPECT_FALSE(res.all_schedulable());
  EXPECT_LT(res.messages[2].slack(), Duration::zero());
}

TEST(CanRta, ResponseJitterIsWcrtMinusBcrt) {
  const MessageResult m = CanRta{three_messages(), plain_config()}.analyze_message(1);
  EXPECT_EQ(m.response_jitter(), m.wcrt - m.bcrt);
}

TEST(CanRta, RejectsNullErrorModel) {
  CanRtaConfig cfg = plain_config();
  cfg.errors = nullptr;
  EXPECT_THROW(CanRta(three_messages(), cfg), std::invalid_argument);
}

TEST(CanRta, RejectsBadIndex) {
  const CanRta rta{three_messages(), plain_config()};
  EXPECT_THROW(rta.analyze_message(3), std::out_of_range);
}

TEST(CanRta, BurstyActivationMultipliesInterference) {
  KMatrix km = three_messages(Duration::ms(1), Duration::ms(10), Duration::ms(10));
  // m1 becomes bursty: J = 2.5 periods, bursts of up to 4 frames.
  km.messages()[0].jitter = Duration::us(2500);
  km.messages()[0].min_distance = Duration::us(300);
  const MessageResult m3 = CanRta{km, plain_config()}.analyze_message(2);
  // At least 3 extra m1 frames compared to the jitter-free case (810 us).
  EXPECT_GE(m3.wcrt, Duration::us(810) + 2 * Duration::us(270));
}

TEST(CanRta, Davis2007SecondInstanceIsCritical) {
  // Hand-computed from the Davis et al. 2007 equations (C = 1.08 ms,
  // tau_bit = 8 us, no blocking below the lowest-priority message):
  //   busy period 1.08 -> 3.24 -> 4.32 -> 6.48 -> 7.56 ms (5 iterations),
  //   Q = ceil(7.56 / 3.78) = 2 instances;
  //   q=0: w 0 -> 2.16 ms (2 iterations), R = 2.16 + 1.08 = 3.24 ms;
  //   q=1: w 1.08 -> 3.24 -> 4.32 -> 5.40 -> 6.48 ms (5 iterations),
  //        R = 6.48 + 1.08 - 3.78 = 3.78 ms.
  // Stopping after q=0 because w + C <= T_C (the pre-2007 shortcut)
  // would report 3.24 ms, below what the schedule produces.
  const KMatrix km = testing_support::davis2007_bus();
  const MessageResult c = CanRta{km, CanRtaConfig{}}.analyze_message(2);
  EXPECT_EQ(c.busy_period, Duration::us(7560));
  EXPECT_EQ(c.instances, 2);
  EXPECT_EQ(c.wcrt, Duration::us(3780));
  EXPECT_EQ(c.fixedpoint_iterations, 12);
  EXPECT_EQ(c.blocking, Duration::zero());
  EXPECT_TRUE(c.schedulable);  // R = D exactly

  const analysis::Provenance p = analysis::explain_message(km, CanRtaConfig{}, 2);
  EXPECT_EQ(p.critical_instance, 1);
  EXPECT_EQ(p.critical_window, Duration::us(6480));
  EXPECT_EQ(p.result.wcrt, Duration::us(3780));
  EXPECT_TRUE(p.sum_check());
  EXPECT_EQ(p.busy_iterates, (std::vector<Duration>{Duration::us(1080), Duration::us(3240),
                                                    Duration::us(4320), Duration::us(6480),
                                                    Duration::us(7560)}));
  EXPECT_EQ(p.window_iterates,
            (std::vector<Duration>{Duration::us(1080), Duration::us(3240), Duration::us(4320),
                                   Duration::us(5400), Duration::us(6480)}));
}

TEST(CanRta, Davis2007TightDeadlineIsAMiss) {
  // With D_C = 3.5 ms the first instance meets it with 260 us to spare,
  // but the second misses by 280 us: the verdict must be a miss.
  KMatrix km = testing_support::davis2007_bus();
  km.messages()[2].deadline_policy = DeadlinePolicy::kExplicit;
  km.messages()[2].explicit_deadline = Duration::us(3500);
  const MessageResult c = CanRta{km, CanRtaConfig{}}.analyze_message(2);
  EXPECT_FALSE(c.schedulable);
  EXPECT_EQ(c.slack(), Duration::us(-280));
}

// ---------------------------------------------------------------------------
// Monotonicity properties on the generated power-train matrix.

class RtaMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(RtaMonotonicity, ResponseMonotoneInUniformJitter) {
  const KMatrix km = generate_powertrain(PowertrainConfig::case_study());
  const double f = GetParam();
  KMatrix lo = km, hi = km;
  assume_jitter_fraction(lo, f, true);
  assume_jitter_fraction(hi, f + 0.10, true);
  const BusResult rlo = CanRta{lo, best_case_assumptions()}.analyze();
  const BusResult rhi = CanRta{hi, best_case_assumptions()}.analyze();
  for (std::size_t i = 0; i < rlo.messages.size(); ++i)
    EXPECT_GE(rhi.messages[i].wcrt, rlo.messages[i].wcrt) << rlo.messages[i].name;
}

TEST_P(RtaMonotonicity, ErrorsOnlyIncreaseResponses) {
  const KMatrix base = generate_powertrain(PowertrainConfig::case_study());
  KMatrix km = base;
  assume_jitter_fraction(km, GetParam(), true);
  CanRtaConfig clean = best_case_assumptions();
  CanRtaConfig dirty = clean;
  dirty.errors = std::make_shared<SporadicErrors>(Duration::ms(20));
  const BusResult rc = CanRta{km, clean}.analyze();
  const BusResult rd = CanRta{km, dirty}.analyze();
  for (std::size_t i = 0; i < rc.messages.size(); ++i)
    EXPECT_GE(rd.messages[i].wcrt, rc.messages[i].wcrt);
}

INSTANTIATE_TEST_SUITE_P(JitterGrid, RtaMonotonicity, ::testing::Values(0.0, 0.1, 0.25, 0.4));

}  // namespace
}  // namespace symcan
