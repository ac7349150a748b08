// Property sweeps on the assembled RC systems across the full stack
// configuration matrix: invariants that must hold for every tier count,
// cooling kind, flow rate and grid resolution.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "arch/mpsoc.hpp"
#include "common/units.hpp"
#include "microchannel/pump.hpp"
#include "thermal/transient.hpp"

namespace tac3d {
namespace {

struct StackCase {
  int tiers;
  arch::CoolingKind cooling;
  int grid_n;

  std::string label() const {
    return std::to_string(tiers) + "t_" +
           (cooling == arch::CoolingKind::kAirCooled ? "air" : "liquid") +
           "_g" + std::to_string(grid_n);
  }
};

class StackSweep : public ::testing::TestWithParam<StackCase> {
 protected:
  arch::Mpsoc3D make() const {
    const auto p = GetParam();
    return arch::Mpsoc3D(arch::Mpsoc3D::Options{
        p.tiers, p.cooling, thermal::GridOptions{p.grid_n, p.grid_n},
        arch::NiagaraConfig::paper()});
  }

  void load(arch::Mpsoc3D& soc, double busy) const {
    if (GetParam().cooling == arch::CoolingKind::kLiquidCooled) {
      soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
    }
    std::vector<arch::CoreState> cores(soc.n_cores(),
                                       {busy, soc.chip().vf.max_level()});
    soc.model().set_element_powers(soc.element_powers(cores, {}));
  }
};

TEST_P(StackSweep, MatrixIsStrictlyDiagonallyDominant) {
  auto soc = make();
  load(soc, 1.0);
  EXPECT_TRUE(soc.model().conductance().is_diagonally_dominant(1e-9));
}

TEST_P(StackSweep, CapacitancesArePositive) {
  auto soc = make();
  for (const double c : soc.model().capacitance()) {
    ASSERT_GT(c, 0.0);
  }
}

TEST_P(StackSweep, SteadyStateEnergyBalanceCloses) {
  auto soc = make();
  load(soc, 1.0);
  const auto temps = soc.model().steady_state();
  double removed = soc.model().sink_heat_removal(temps);
  for (int cav = 0; cav < soc.model().n_cavities(); ++cav) {
    removed += soc.model().advective_heat_removal(temps, cav);
  }
  const double injected = soc.model().total_power();
  EXPECT_NEAR(removed, injected, 0.01 * injected) << GetParam().label();
}

TEST_P(StackSweep, AllTemperaturesAboveCoolantAndBounded) {
  auto soc = make();
  load(soc, 1.0);
  const auto temps = soc.model().steady_state();
  const double floor_t =
      std::min(soc.model().grid().spec().ambient,
               soc.model().grid().spec().coolant_inlet);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    ASSERT_GE(temps[i], floor_t - 1e-6);
    ASSERT_LT(temps[i], celsius_to_kelvin(350.0));
  }
}

TEST_P(StackSweep, MorePowerMeansHotterEverywhere) {
  auto soc = make();
  load(soc, 0.3);
  const auto cool = soc.model().steady_state();
  load(soc, 1.0);
  const auto hot = soc.model().steady_state();
  for (std::size_t i = 0; i < cool.size(); i += 17) {
    ASSERT_GE(hot[i], cool[i] - 1e-9);
  }
}

TEST_P(StackSweep, HottestElementMatchesStackTopology) {
  auto soc = make();
  load(soc, 1.0);
  const auto temps = soc.model().steady_state();
  const double hottest_core = soc.max_core_temp(temps);
  double hottest_l2 = 0.0;
  for (int b = 0; b < soc.chip().n_l2_banks; ++b) {
    hottest_l2 = std::max(
        hottest_l2, soc.model().element_max(temps, soc.l2_element(b)));
  }
  const auto p = GetParam();
  if (p.tiers == 4 && p.cooling == arch::CoolingKind::kAirCooled) {
    // 4-tier air: the bottom *cache* tier is buried farthest from the
    // sink, so the caches (not the cores) run hottest.
    EXPECT_GT(hottest_l2, hottest_core - 2.0) << p.label();
  } else {
    // Everywhere else the high-power-density cores dominate.
    EXPECT_GT(hottest_core, hottest_l2 - 2.0) << p.label();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, StackSweep,
    ::testing::Values(
        StackCase{2, arch::CoolingKind::kLiquidCooled, 12},
        StackCase{2, arch::CoolingKind::kLiquidCooled, 20},
        StackCase{2, arch::CoolingKind::kAirCooled, 12},
        StackCase{4, arch::CoolingKind::kLiquidCooled, 12},
        StackCase{4, arch::CoolingKind::kAirCooled, 12}),
    [](const ::testing::TestParamInfo<StackCase>& info) {
      return info.param.label();
    });

class FlowSweep : public ::testing::TestWithParam<double> {};

TEST_P(FlowSweep, PeakTemperatureDecreasesMonotonicallyWithFlow) {
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{12, 12},
      arch::NiagaraConfig::paper()});
  std::vector<arch::CoreState> cores(8, {1.0, soc.chip().vf.max_level()});
  const double q = ml_per_min(GetParam());
  soc.model().set_all_flows(q);
  soc.model().set_element_powers(soc.element_powers(cores, {}));
  const double peak_lo = soc.max_core_temp(soc.model().steady_state());
  soc.model().set_all_flows(q * 1.3);
  const double peak_hi = soc.max_core_temp(soc.model().steady_state());
  EXPECT_LT(peak_hi, peak_lo);
}

TEST_P(FlowSweep, OutletTemperatureMatchesEnergyBalance) {
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{12, 12},
      arch::NiagaraConfig::paper()});
  std::vector<arch::CoreState> cores(8, {1.0, soc.chip().vf.max_level()});
  const double q = ml_per_min(GetParam());
  soc.model().set_all_flows(q);
  soc.model().set_element_powers(soc.element_powers(cores, {}));
  const auto temps = soc.model().steady_state();
  double advected = 0.0;
  for (int cav = 0; cav < soc.model().n_cavities(); ++cav) {
    advected += soc.model().advective_heat_removal(temps, cav);
  }
  EXPECT_NEAR(advected, soc.model().total_power(),
              0.01 * soc.model().total_power());
}

INSTANTIATE_TEST_SUITE_P(FlowRange, FlowSweep,
                         ::testing::Values(10.0, 15.0, 20.0, 25.0, 32.3));

TEST(TransientEnergy, BackwardEulerStepConservesEnergy) {
  // Over one implicit step: sum_i C_i (T1_i - T0_i) must equal
  // dt * (P_injected - heat removed at T1) exactly (backward Euler
  // evaluates the fluxes at T1).
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kLiquidCooled, thermal::GridOptions{12, 12},
      arch::NiagaraConfig::paper()});
  soc.model().set_all_flows(ml_per_min(20.0));
  std::vector<arch::CoreState> cores(8, {1.0, soc.chip().vf.max_level()});
  soc.model().set_element_powers(soc.element_powers(cores, {}));

  const double dt = 0.5;
  thermal::TransientSolver sim(soc.model(), dt);
  const std::vector<double> t0(sim.temperatures().begin(),
                               sim.temperatures().end());
  sim.step();
  const auto t1 = sim.temperatures();

  const auto c = soc.model().capacitance();
  double stored = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    stored += c[i] * (t1[i] - t0[i]);
  }
  double removed = soc.model().sink_heat_removal(t1);
  for (int cav = 0; cav < soc.model().n_cavities(); ++cav) {
    removed += soc.model().advective_heat_removal(t1, cav);
  }
  const double injected = soc.model().total_power();
  EXPECT_NEAR(stored, dt * (injected - removed), 0.01 * dt * injected);
}

TEST(LeakageFixedPoint, ConvergesAndIsHotterThanLeakageFree) {
  arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
      2, arch::CoolingKind::kAirCooled, thermal::GridOptions{12, 12},
      arch::NiagaraConfig::paper()});
  std::vector<arch::CoreState> cores(8, {1.0, soc.chip().vf.max_level()});
  const auto t3 = soc.leakage_consistent_steady(cores, 3);
  const double p3 = soc.model().total_power();
  const auto t8 = soc.leakage_consistent_steady(cores, 8);
  const double p8 = soc.model().total_power();
  // Fixed point: more iterations barely change power or peak.
  EXPECT_NEAR(p3, p8, 0.01 * p8);
  EXPECT_NEAR(soc.model().max_temperature(t3),
              soc.model().max_temperature(t8), 0.5);
  // And the self-heated chip draws more than the reference-temperature
  // evaluation (leakage feedback is positive).
  const double p_ref = soc.chip_power(cores, {});
  EXPECT_GT(p8, p_ref + 2.0);
}

TEST(LeakageFixedPoint, OneBoundSolverMatchesAFreshSolverPerIteration) {
  // Only the power RHS moves between fixed-point iterations, so the one
  // solver bound for the whole loop must reproduce, bit for bit, a loop
  // that builds a new solver (factorization and workspace) every time.
  for (const auto cooling :
       {arch::CoolingKind::kAirCooled, arch::CoolingKind::kLiquidCooled}) {
    arch::Mpsoc3D soc(arch::Mpsoc3D::Options{
        2, cooling, thermal::GridOptions{12, 12}, arch::NiagaraConfig::paper()});
    if (cooling == arch::CoolingKind::kLiquidCooled) {
      soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
    }
    std::vector<arch::CoreState> cores(8, {0.8, soc.chip().vf.max_level()});
    std::vector<double> ref(soc.model().node_count(),
                            soc.model().grid().spec().ambient);
    for (int i = 0; i < 4; ++i) {
      soc.model().set_element_powers(soc.element_powers(cores, ref));
      ref = soc.model().steady_state(sparse::SolverKind::kBicgstabIlu0);
    }
    const auto got = soc.leakage_consistent_steady(cores, 4);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], ref[i]) << "node " << i;
    }
  }
}

}  // namespace
}  // namespace tac3d
