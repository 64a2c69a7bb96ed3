#include "core/retrain.h"

#include <gtest/gtest.h>

namespace e2nvm::core {
namespace {

TEST(RetrainPolicyTest, CapacityTrigger) {
  RetrainPolicy policy({.min_free_per_cluster = 2});
  DynamicAddressPool pool(2);
  pool.Insert(0, 1);
  pool.Insert(0, 2);
  pool.Insert(1, 3);
  // Cluster 1 has only one free address: below threshold 2.
  EXPECT_EQ(policy.Decide(pool), RetrainAction::kFullRetrain);
  pool.Insert(1, 4);
  EXPECT_EQ(policy.Decide(pool), RetrainAction::kNone);
}

TEST(RetrainPolicyTest, EfficiencyTriggerAfterDegradation) {
  RetrainPolicy::Config cfg;
  cfg.min_free_per_cluster = 0;
  cfg.window = 50;
  cfg.baseline_writes = 50;
  cfg.degradation_factor = 1.5;
  RetrainPolicy policy(cfg);
  DynamicAddressPool pool(1);
  pool.Insert(0, 1);

  // Healthy phase: 5% of bits flip.
  for (int i = 0; i < 100; ++i) policy.RecordWrite(5, 100);
  EXPECT_EQ(policy.Decide(pool), RetrainAction::kNone);
  EXPECT_NEAR(policy.BaselineRatio(), 0.05, 1e-9);

  // Distribution shift: 20% of bits flip.
  for (int i = 0; i < 60; ++i) policy.RecordWrite(20, 100);
  EXPECT_GT(policy.CurrentRatio(), 0.1);
  EXPECT_EQ(policy.Decide(pool), RetrainAction::kFullRetrain);
}

TEST(RetrainPolicyTest, OnRetrainResetsBaseline) {
  RetrainPolicy::Config cfg;
  cfg.min_free_per_cluster = 0;
  cfg.window = 10;
  cfg.baseline_writes = 10;
  RetrainPolicy policy(cfg);
  DynamicAddressPool pool(1);
  pool.Insert(0, 1);
  for (int i = 0; i < 20; ++i) policy.RecordWrite(1, 100);
  EXPECT_GT(policy.BaselineRatio(), 0.0);
  policy.OnRetrain();
  EXPECT_LT(policy.BaselineRatio(), 0.0);  // Unfrozen again.
  EXPECT_EQ(policy.Decide(pool), RetrainAction::kNone);
}

TEST(RetrainPolicyTest, WindowForgetsOldWrites) {
  RetrainPolicy::Config cfg;
  cfg.window = 10;
  cfg.baseline_writes = 5;
  cfg.min_free_per_cluster = 0;
  RetrainPolicy policy(cfg);
  for (int i = 0; i < 20; ++i) policy.RecordWrite(50, 100);
  // Now 10 perfect writes flush the window entirely.
  for (int i = 0; i < 10; ++i) policy.RecordWrite(0, 100);
  EXPECT_DOUBLE_EQ(policy.CurrentRatio(), 0.0);
}

TEST(RetrainPolicyTest, NoBaselineBeforeEnoughWrites) {
  RetrainPolicy::Config cfg;
  cfg.baseline_writes = 100;
  RetrainPolicy policy(cfg);
  for (int i = 0; i < 50; ++i) policy.RecordWrite(10, 100);
  EXPECT_LT(policy.BaselineRatio(), 0.0);
}

}  // namespace
}  // namespace e2nvm::core
