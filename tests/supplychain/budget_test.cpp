#include "symcan/supplychain/budget.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "symcan/analysis/presets.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

KMatrix small_matrix() {
  PowertrainConfig cfg = PowertrainConfig::case_study();
  cfg.message_count = 18;
  cfg.ecu_count = 4;
  // Loaded enough that the joint jitter budget stays well below the
  // period (fraction ~0.36), so its maximality is testable.
  cfg.target_utilization = 0.7;
  KMatrix km = generate_powertrain(cfg);
  assume_jitter_fraction(km, 0.0, true);  // clean baseline, jitter unknown
  return km;
}

CanRtaConfig rta() {
  CanRtaConfig cfg;
  cfg.worst_case_stuffing = true;
  cfg.deadline_override = DeadlinePolicy::kPeriod;
  return cfg;
}

class BudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    km_ = new KMatrix(small_matrix());
    report_ = new BudgetReport(allocate_jitter_budgets(*km_, rta()));
  }
  static void TearDownTestSuite() {
    delete km_;
    delete report_;
    km_ = nullptr;
    report_ = nullptr;
  }
  static KMatrix* km_;
  static BudgetReport* report_;
};
KMatrix* BudgetTest::km_ = nullptr;
BudgetReport* BudgetTest::report_ = nullptr;

TEST_F(BudgetTest, JointBudgetIsJointlySafe) {
  ASSERT_GT(report_->joint_fraction, 0.0);
  KMatrix v = *km_;
  for (std::size_t i = 0; i < v.size(); ++i) v.messages()[i].jitter = report_->joint_budget[i];
  EXPECT_TRUE((CanRta{v, rta()}.analyze().all_schedulable()));
}

TEST_F(BudgetTest, JointBudgetIsMaximalWithinTolerance) {
  // 5 percentage points above the joint fraction must break something
  // (otherwise the binary search under-delivered). The fixture's load is
  // chosen so the budget does not saturate at the period; if it ever
  // does, the precondition fails here instead of skipping.
  ASSERT_LT(report_->joint_fraction, 0.95) << "budget saturated: the fixture no longer tests this";
  KMatrix v = *km_;
  assume_jitter_fraction(v, report_->joint_fraction + 0.05, true);
  EXPECT_FALSE((CanRta{v, rta()}.analyze().all_schedulable()));
}

TEST_F(BudgetTest, IndividualBudgetsAreIndividuallySafe) {
  for (std::size_t i = 0; i < km_->size(); ++i) {
    KMatrix v = *km_;
    for (std::size_t j = 0; j < v.size(); ++j) v.messages()[j].jitter = report_->joint_budget[j];
    v.messages()[i].jitter = report_->individual_budget[i];
    EXPECT_TRUE((CanRta{v, rta()}.analyze().all_schedulable()))
        << km_->messages()[i].name << " at " << to_string(report_->individual_budget[i]);
  }
}

TEST_F(BudgetTest, IndividualAtLeastJoint) {
  for (std::size_t i = 0; i < km_->size(); ++i) {
    EXPECT_GE(report_->individual_budget[i], report_->joint_budget[i]);
    EXPECT_LE(report_->individual_budget[i], km_->messages()[i].period);
    EXPECT_GE(report_->bonus(i), Duration::zero());
  }
}

TEST_F(BudgetTest, TradeReleasesFlexibility) {
  // Find a message with meaningful joint budget to commit below.
  std::size_t from = km_->size();
  for (std::size_t i = 0; i < km_->size(); ++i)
    if (report_->joint_budget[i] > Duration::ms(1)) from = i;
  ASSERT_LT(from, km_->size());
  const std::size_t to = from == 0 ? 1 : 0;

  const std::string from_name = km_->messages()[from].name;
  const std::string to_name = km_->messages()[to].name;
  // Committing to zero releases at least as much as committing to the
  // full joint budget.
  const Duration tight =
      trade_budget(*km_, rta(), *report_, from_name, Duration::zero(), to_name);
  const Duration loose = trade_budget(*km_, rta(), *report_, from_name,
                                      report_->joint_budget[from], to_name);
  EXPECT_GE(tight, loose);
  EXPECT_GE(tight, report_->joint_budget[to]);
  // And the released budget stays jointly safe with the commitment.
  KMatrix v = *km_;
  for (std::size_t j = 0; j < v.size(); ++j) v.messages()[j].jitter = report_->joint_budget[j];
  v.messages()[from].jitter = Duration::zero();
  v.messages()[to].jitter = tight;
  EXPECT_TRUE((CanRta{v, rta()}.analyze().all_schedulable()));
}

TEST_F(BudgetTest, TradeRejectsBadArguments) {
  const std::string a = km_->messages()[0].name;
  const std::string b = km_->messages()[1].name;
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, "nope", Duration::zero(), b),
               std::invalid_argument);
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, a, Duration::zero(), "nope"),
               std::invalid_argument);
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, a, Duration::zero(), a),
               std::invalid_argument);
  EXPECT_THROW(trade_budget(*km_, rta(), *report_, a,
                            report_->joint_budget[0] + Duration::ms(10), b),
               std::invalid_argument);
}

TEST(BudgetErrors, UnschedulableBaselineRejected) {
  KMatrix km = small_matrix();
  scale_periods(km, 0.2);
  CanRtaConfig cfg = rta();
  cfg.horizon = Duration::ms(500);
  EXPECT_THROW(allocate_jitter_budgets(km, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace symcan
