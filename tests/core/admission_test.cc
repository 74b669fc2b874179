#include "core/admission.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/check.h"

namespace grefar {
namespace {

JobType unit_work_type() {
  JobType jt;
  jt.name = std::string(1, 't');  // not a literal: GCC 12 -Wrestrict false positive
  jt.work = 2.0;
  jt.eligible_dcs = {0};
  return jt;
}

TEST(Admission, AdmitAllTakesEverything) {
  AdmitAllPolicy p;
  const JobType jt = unit_work_type();
  EXPECT_EQ(p.admit(0, jt, 7, 0.0, kNoDeadline), 7);
  EXPECT_EQ(p.admit(100, jt, 3, 1e9, 5), 3);
  EXPECT_TRUE(std::isnan(p.threshold(0)));
  EXPECT_EQ(p.name(), "admit-all");
}

TEST(Admission, ThresholdIsAllOrNothingOnValueDensity) {
  ThresholdAdmission p(1.0);
  const JobType jt = unit_work_type();  // work 2 => density = value / 2
  EXPECT_EQ(p.admit(0, jt, 5, 2.0, kNoDeadline), 5);   // density 1.0 == theta
  EXPECT_EQ(p.admit(0, jt, 5, 1.99, kNoDeadline), 0);  // just below
  EXPECT_EQ(p.admit(0, jt, 5, 10.0, kNoDeadline), 5);
  EXPECT_DOUBLE_EQ(p.threshold(0), 1.0);
  EXPECT_DOUBLE_EQ(p.threshold(12345), 1.0);  // slot-independent
}

TEST(Admission, ThresholdRejectsBadTheta) {
  EXPECT_THROW(ThresholdAdmission(-1.0), ContractViolation);
  EXPECT_THROW(ThresholdAdmission(std::nan("")), ContractViolation);
  EXPECT_THROW(RandomizedThresholdAdmission(0.0, 1.0, 1), ContractViolation);
  EXPECT_THROW(RandomizedThresholdAdmission(2.0, 1.0, 1), ContractViolation);
}

TEST(Admission, RandomizedThresholdStaysInRangeAndVaries) {
  RandomizedThresholdAdmission p(0.25, 4.0, 99);
  bool varies = false;
  double prev = p.threshold(0);
  for (std::int64_t t = 0; t < 200; ++t) {
    const double theta = p.threshold(t);
    EXPECT_GE(theta, 0.25);
    EXPECT_LE(theta, 4.0);
    if (theta != prev) varies = true;
    prev = theta;
  }
  EXPECT_TRUE(varies);
}

TEST(Admission, RandomizedThresholdIsPureInSeedAndSlot) {
  // The §11 contract: threshold(t) replays bit-identically regardless of
  // construction order, prior calls, or interleaving — it is a pure
  // function of (seed, slot), exactly like ZipfArrivals.
  RandomizedThresholdAdmission a(0.5, 2.0, 7);
  std::vector<double> forward;
  for (std::int64_t t = 0; t < 50; ++t) forward.push_back(a.threshold(t));

  RandomizedThresholdAdmission b(0.5, 2.0, 7);
  for (std::int64_t t = 49; t >= 0; --t) {
    EXPECT_EQ(b.threshold(t), forward[static_cast<std::size_t>(t)]) << t;
  }
  // admit() keys on the same draw as threshold().
  const JobType jt = unit_work_type();
  for (std::int64_t t = 0; t < 50; ++t) {
    const double density_above = forward[static_cast<std::size_t>(t)] + 1e-9;
    EXPECT_EQ(a.admit(t, jt, 3, density_above * jt.work, kNoDeadline), 3) << t;
  }
  // Different seeds give different streams.
  RandomizedThresholdAdmission c(0.5, 2.0, 8);
  bool differs = false;
  for (std::int64_t t = 0; t < 50 && !differs; ++t) {
    differs = c.threshold(t) != forward[static_cast<std::size_t>(t)];
  }
  EXPECT_TRUE(differs);
}

TEST(Admission, FactoryBuildsTheLineup) {
  auto all = make_admission_policy(AdmissionPolicyKind::kAdmitAll, 1.0, 1);
  auto det = make_admission_policy(AdmissionPolicyKind::kThreshold, 1.5, 1);
  auto rnd = make_admission_policy(AdmissionPolicyKind::kRandomized, 2.0, 1);
  EXPECT_EQ(all->name(), "admit-all");
  EXPECT_EQ(det->name(), "threshold");
  EXPECT_EQ(rnd->name(), "randomized-threshold");
  EXPECT_DOUBLE_EQ(det->threshold(3), 1.5);
  // The randomized variant hedges log-uniformly over [theta/4, theta*4].
  for (std::int64_t t = 0; t < 100; ++t) {
    EXPECT_GE(rnd->threshold(t), 0.5);
    EXPECT_LE(rnd->threshold(t), 8.0);
  }
}

}  // namespace
}  // namespace grefar
