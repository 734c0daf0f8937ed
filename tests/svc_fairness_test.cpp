// Tests for the cross-tenant fairness policies (svc/fairness.hpp): pinned
// water-filling levels for weighted_max_min (hand-derivable instances, no
// tolerance games), static-quota scaling, and Karma's credit books —
// borrowing order, exact credit conservation by divide(), and conservation
// across tenant churn (create mints, delete retires, nothing leaks).

#include "svc/fairness.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

namespace aa::svc {
namespace {

std::vector<TenantDemand> tenants(
    std::initializer_list<TenantDemand> list) {
  return std::vector<TenantDemand>(list);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

TEST(FairnessNames, RoundTrip) {
  for (const FairnessPolicyKind kind :
       {FairnessPolicyKind::kStaticQuota, FairnessPolicyKind::kWeightedMaxMin,
        FairnessPolicyKind::kKarma}) {
    EXPECT_EQ(fairness_policy_from_name(fairness_policy_name(kind)), kind);
    EXPECT_EQ(FairnessPolicy::create(kind)->kind(), kind);
  }
  EXPECT_FALSE(fairness_policy_from_name("round_robin").has_value());
}

TEST(StaticQuota, ExplicitAutoAndScaling) {
  const auto policy = FairnessPolicy::create(FairnessPolicyKind::kStaticQuota);
  // Explicit quotas pass through; auto (0) takes the weight share.
  const std::vector<double> mixed = policy->divide(
      100.0, tenants({{"a", 1.0, 30.0, 0.0}, {"b", 1.0, 0.0, 0.0}}));
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_DOUBLE_EQ(mixed[0], 30.0);
  EXPECT_DOUBLE_EQ(mixed[1], 50.0);  // Weight share of the pool, not of 70.

  // Oversubscribed quotas scale down proportionally: 90+60 -> 60+40.
  const std::vector<double> scaled = policy->divide(
      100.0, tenants({{"a", 1.0, 90.0, 0.0}, {"b", 1.0, 60.0, 0.0}}));
  EXPECT_DOUBLE_EQ(scaled[0], 60.0);
  EXPECT_DOUBLE_EQ(scaled[1], 40.0);
  EXPECT_DOUBLE_EQ(sum(scaled), 100.0);

  // Weights drive the auto split.
  const std::vector<double> weighted = policy->divide(
      100.0, tenants({{"a", 3.0, 0.0, 0.0}, {"b", 1.0, 0.0, 0.0}}));
  EXPECT_DOUBLE_EQ(weighted[0], 75.0);
  EXPECT_DOUBLE_EQ(weighted[1], 25.0);
}

TEST(WaterFill, PinnedLevels) {
  // Unit weights, demands 10/20/40/80, pool 100: 10 and 20 saturate, the
  // remaining 70 split evenly -> level 35.
  EXPECT_DOUBLE_EQ(
      water_fill_level(100.0, tenants({{"a", 1.0, 0.0, 10.0},
                                       {"b", 1.0, 0.0, 20.0},
                                       {"c", 1.0, 0.0, 40.0},
                                       {"d", 1.0, 0.0, 80.0}})),
      35.0);
  // Weighted: w={1,2,1}, d={50,50,10}, pool 60. "c" saturates (10), then
  // lambda = 50/3: a gets 50/3, b gets 100/3.
  EXPECT_DOUBLE_EQ(
      water_fill_level(60.0, tenants({{"a", 1.0, 0.0, 50.0},
                                      {"b", 2.0, 0.0, 50.0},
                                      {"c", 1.0, 0.0, 10.0}})),
      50.0 / 3.0);
  // Nobody saturates: lambda is pool / total weight.
  EXPECT_DOUBLE_EQ(
      water_fill_level(30.0, tenants({{"a", 1.0, 0.0, 40.0},
                                      {"b", 2.0, 0.0, 40.0}})),
      10.0);
}

TEST(WeightedMaxMin, PinnedDivisions) {
  const auto policy =
      FairnessPolicy::create(FairnessPolicyKind::kWeightedMaxMin);

  // Over-demand: slices are min(demand, weight * lambda).
  const std::vector<double> congested = policy->divide(
      100.0, tenants({{"a", 1.0, 0.0, 10.0},
                      {"b", 1.0, 0.0, 20.0},
                      {"c", 1.0, 0.0, 40.0},
                      {"d", 1.0, 0.0, 80.0}}));
  ASSERT_EQ(congested.size(), 4u);
  EXPECT_DOUBLE_EQ(congested[0], 10.0);
  EXPECT_DOUBLE_EQ(congested[1], 20.0);
  EXPECT_DOUBLE_EQ(congested[2], 35.0);
  EXPECT_DOUBLE_EQ(congested[3], 35.0);
  EXPECT_DOUBLE_EQ(sum(congested), 100.0);

  const std::vector<double> weighted = policy->divide(
      60.0, tenants({{"a", 1.0, 0.0, 50.0},
                     {"b", 2.0, 0.0, 50.0},
                     {"c", 1.0, 0.0, 10.0}}));
  EXPECT_DOUBLE_EQ(weighted[0], 50.0 / 3.0);
  EXPECT_DOUBLE_EQ(weighted[1], 100.0 / 3.0);
  EXPECT_DOUBLE_EQ(weighted[2], 10.0);

  // Under-demand: demands met, leftover spread by weight. d={10,10},
  // w={1,3}, pool 100 -> leftover 80 -> slices {30, 70}.
  const std::vector<double> slack = policy->divide(
      100.0, tenants({{"a", 1.0, 0.0, 10.0}, {"b", 3.0, 0.0, 10.0}}));
  EXPECT_DOUBLE_EQ(slack[0], 30.0);
  EXPECT_DOUBLE_EQ(slack[1], 70.0);
}

TEST(Karma, BorrowingMovesCreditsExactly) {
  const auto policy = FairnessPolicy::create(FairnessPolicyKind::kKarma);
  policy->on_tenant_created("a", 25.0);
  policy->on_tenant_created("b", 25.0);

  // Pool 100, auto quotas 50/50. "a" demands 20 (donates 30), "b" demands
  // 90 (wants 40, can afford 25): b borrows 25, slices {25, 75}.
  const std::vector<double> slices = policy->divide(
      100.0, tenants({{"a", 1.0, 0.0, 20.0}, {"b", 1.0, 0.0, 90.0}}));
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_DOUBLE_EQ(slices[1], 75.0);
  EXPECT_DOUBLE_EQ(slices[0], 25.0);
  // One credit per borrowed unit moved from b to a; total conserved.
  EXPECT_DOUBLE_EQ(policy->credits("b"), 0.0);
  EXPECT_DOUBLE_EQ(policy->credits("a"), 50.0);
  EXPECT_DOUBLE_EQ(sum(slices), 100.0);

  // A broke borrower cannot borrow: demand alone grants nothing.
  const std::vector<double> broke = policy->divide(
      100.0, tenants({{"a", 1.0, 0.0, 20.0}, {"b", 1.0, 0.0, 90.0}}));
  EXPECT_DOUBLE_EQ(broke[1], 50.0);   // b spent its credits above.
  EXPECT_DOUBLE_EQ(broke[0], 50.0);   // Donor keeps its unborrowed share.
}

TEST(Karma, DonorKeepsShareWhenNobodyBorrows) {
  const auto policy = FairnessPolicy::create(FairnessPolicyKind::kKarma);
  policy->on_tenant_created("solo", 10.0);
  // A lone under-demanding tenant still owns its whole quota (no supply
  // was taken), so a single-tenant karma service equals static_quota.
  const std::vector<double> slices =
      policy->divide(100.0, tenants({{"solo", 1.0, 0.0, 5.0}}));
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_DOUBLE_EQ(slices[0], 100.0);
  EXPECT_DOUBLE_EQ(policy->credits("solo"), 10.0);
}

TEST(Karma, RicherBorrowerWinsScarceSupply) {
  const auto policy = FairnessPolicy::create(FairnessPolicyKind::kKarma);
  policy->on_tenant_created("donor", 0.0);
  policy->on_tenant_created("rich", 30.0);
  policy->on_tenant_created("poor", 5.0);

  // Quotas 30/30/30 (pool 90). donor demands 0 -> supply 30. rich and
  // poor both want 40 extra; rich (30 credits) drains the supply first,
  // poor gets nothing.
  const std::vector<double> slices = policy->divide(
      90.0, tenants({{"donor", 1.0, 0.0, 0.0},
                     {"poor", 1.0, 0.0, 70.0},
                     {"rich", 1.0, 0.0, 70.0}}));
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_DOUBLE_EQ(slices[0], 0.0);    // Donor lent everything.
  EXPECT_DOUBLE_EQ(slices[2], 60.0);   // rich: quota 30 + borrowed 30.
  EXPECT_DOUBLE_EQ(slices[1], 30.0);   // poor: quota only.
  EXPECT_DOUBLE_EQ(policy->credits("rich"), 0.0);
  EXPECT_DOUBLE_EQ(policy->credits("donor"), 30.0);
  EXPECT_DOUBLE_EQ(policy->credits("poor"), 5.0);
}

TEST(Karma, CreditsConservedAcrossChurn) {
  const auto policy = FairnessPolicy::create(FairnessPolicyKind::kKarma);
  std::vector<std::string> live;
  double minted = 0.0;
  double retired = 0.0;
  const auto total_live = [&] {
    double total = 0.0;
    for (const std::string& id : live) total += policy->credits(id);
    return total;
  };

  // Churn: create/delete tenants between divisions with shifting demands;
  // after every step the live credit total equals minted - retired.
  for (int round = 0; round < 6; ++round) {
    const std::string name = std::string("t").append(std::to_string(round));
    const double opening = 10.0 + round;
    policy->on_tenant_created(name, opening);
    minted += opening;
    live.push_back(name);

    std::vector<TenantDemand> demands;
    for (std::size_t i = 0; i < live.size(); ++i) {
      // Alternate hogs and donors so borrowing actually happens.
      demands.push_back(TenantDemand{
          live[i], 1.0, 0.0, (i % 2 == 0) ? 90.0 : 1.0});
    }
    const std::vector<double> slices = policy->divide(120.0, demands);
    EXPECT_LE(sum(slices), 120.0 + 1e-9);
    EXPECT_NEAR(total_live(), minted - retired, 1e-9) << "round " << round;

    if (round % 2 == 1) {
      const std::string victim = live.front();
      retired += policy->credits(victim);
      policy->on_tenant_deleted(victim);
      live.erase(live.begin());
      EXPECT_NEAR(total_live(), minted - retired, 1e-9);
    }
  }
  // Deleted tenants read as zero, and re-creating one starts fresh.
  policy->on_tenant_created("t0", 3.0);
  EXPECT_DOUBLE_EQ(policy->credits("t0"), 3.0);
}

TEST(AllPolicies, NeverOversubscribeThePool) {
  // Property sweep: random-ish demand/weight/quota grids, every policy,
  // sum(slices) <= pool and slices >= 0.
  const std::vector<TenantDemand> grids[] = {
      tenants({{"a", 1.0, 0.0, 0.0}}),
      tenants({{"a", 1.0, 0.0, 500.0}, {"b", 0.5, 0.0, 500.0}}),
      tenants({{"a", 2.0, 40.0, 10.0},
               {"b", 1.0, 0.0, 200.0},
               {"c", 3.0, 90.0, 90.0}}),
      tenants({{"a", 1.0, 300.0, 300.0}, {"b", 1.0, 300.0, 0.0}}),
  };
  for (const FairnessPolicyKind kind :
       {FairnessPolicyKind::kStaticQuota, FairnessPolicyKind::kWeightedMaxMin,
        FairnessPolicyKind::kKarma}) {
    const auto policy = FairnessPolicy::create(kind);
    for (const std::vector<TenantDemand>& grid : grids) {
      for (const TenantDemand& tenant : grid) {
        policy->on_tenant_created(tenant.id, 50.0);
      }
      const std::vector<double> slices = policy->divide(128.0, grid);
      ASSERT_EQ(slices.size(), grid.size());
      EXPECT_LE(sum(slices), 128.0 + 1e-9)
          << fairness_policy_name(kind);
      for (const double slice : slices) EXPECT_GE(slice, -1e-9);
      for (const TenantDemand& tenant : grid) {
        policy->on_tenant_deleted(tenant.id);
      }
    }
  }
}

}  // namespace
}  // namespace aa::svc
