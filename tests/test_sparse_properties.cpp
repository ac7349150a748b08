// Property tests for the sparse layer: solver-kind agreement on random
// diagonally-dominant SPD systems, RCM permutation validity and
// bandwidth monotonicity, in-place update_values() equivalence with a
// freshly constructed solver, StructureCache sharing, the fused
// kernels against their naive formulations, and the dependency-scheduled
// ILU(0) against the natural-order reference it must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "arch/mpsoc.hpp"
#include "common/rng.hpp"
#include "microchannel/pump.hpp"
#include "sparse/batched.hpp"
#include "sparse/csr.hpp"
#include "sparse/iterative.hpp"
#include "sparse/kernels.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/rcm.hpp"
#include "sparse/solver.hpp"
#include "sparse/structure_cache.hpp"
#include "thermal/transient.hpp"

namespace tac3d::sparse {
namespace {

constexpr SolverKind kAllKinds[] = {SolverKind::kBandedLu,
                                    SolverKind::kBicgstabIlu0,
                                    SolverKind::kBicgstabJacobi};

/// Random strictly diagonally dominant matrix; symmetric (hence SPD)
/// when requested, asymmetric otherwise (mimicking advection).
CsrMatrix random_dd(std::int32_t n, double density, bool symmetric,
                    Rng& rng) {
  std::vector<Triplet> trips;
  std::vector<double> rowsum(n, 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (symmetric && j < i) continue;
      if (rng.uniform() < density) {
        const double v = rng.uniform(-1.0, 1.0);
        trips.push_back({i, j, v});
        rowsum[i] += std::abs(v);
        if (symmetric) {
          trips.push_back({j, i, v});
          rowsum[j] += std::abs(v);
        }
      }
    }
  }
  for (std::int32_t i = 0; i < n; ++i) {
    trips.push_back({i, i, rowsum[i] + 1.0 + rng.uniform()});
  }
  return CsrMatrix::from_triplets(n, n, std::move(trips));
}

std::vector<double> random_vec(std::int32_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-10.0, 10.0);
  return v;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

// --- solver-kind agreement ----------------------------------------------

TEST(SolverAgreement, AllKindsAgreeOnRandomSpdSystems) {
  for (const std::int32_t n : {12, 60, 150, 300}) {
    Rng rng(100 + n);
    const CsrMatrix a = random_dd(n, 6.0 / n, /*symmetric=*/true, rng);
    ASSERT_TRUE(a.is_diagonally_dominant());
    const std::vector<double> b = random_vec(n, rng);

    std::vector<std::vector<double>> solutions;
    for (const SolverKind kind : kAllKinds) {
      auto solver = make_solver(kind, a);
      std::vector<double> x(n, 0.0);
      solver->solve(b, x);
      solutions.push_back(std::move(x));
    }
    for (std::size_t i = 1; i < solutions.size(); ++i) {
      EXPECT_LT(max_diff(solutions[0], solutions[i]), 1e-8)
          << "n=" << n << " kind " << i << " disagrees with banded LU";
    }
  }
}

TEST(SolverAgreement, AllKindsAgreeOnAsymmetricAdvectionLikeSystems) {
  for (const std::int32_t n : {40, 120}) {
    Rng rng(7000 + n);
    const CsrMatrix a = random_dd(n, 8.0 / n, /*symmetric=*/false, rng);
    const std::vector<double> b = random_vec(n, rng);
    std::vector<std::vector<double>> solutions;
    for (const SolverKind kind : kAllKinds) {
      auto solver = make_solver(kind, a);
      std::vector<double> x(n, 0.0);
      solver->solve(b, x);
      solutions.push_back(std::move(x));
    }
    for (std::size_t i = 1; i < solutions.size(); ++i) {
      EXPECT_LT(max_diff(solutions[0], solutions[i]), 1e-8) << "n=" << n;
    }
  }
}

// --- RCM properties -------------------------------------------------------

TEST(RcmProperties, OutputIsAValidPermutationThatNeverIncreasesBandwidth) {
  for (const std::int32_t n : {5, 30, 80, 200}) {
    for (const double density : {0.02, 0.1, 0.4}) {
      Rng rng(static_cast<std::uint64_t>(n * 1000 + density * 100));
      const CsrMatrix a = random_dd(n, density, /*symmetric=*/true, rng);
      const auto perm = rcm_ordering(a);

      ASSERT_EQ(static_cast<std::int32_t>(perm.size()), n);
      std::vector<std::int32_t> sorted = perm;
      std::sort(sorted.begin(), sorted.end());
      for (std::int32_t i = 0; i < n; ++i) {
        ASSERT_EQ(sorted[i], i) << "not a permutation (n=" << n << ")";
      }

      EXPECT_LE(bandwidth(a, perm), bandwidth(a, {}))
          << "RCM must never increase bandwidth (n=" << n
          << ", density=" << density << ")";
    }
  }
}

TEST(RcmProperties, HandlesDisconnectedComponents) {
  // Two disjoint paths with shuffled labels.
  const std::int32_t n = 40;
  std::vector<Triplet> trips;
  for (std::int32_t i = 0; i < n; ++i) trips.push_back({i, i, 2.0});
  for (std::int32_t i = 0; i + 1 < n / 2; ++i) {
    trips.push_back({i, i + 1, -1.0});
    trips.push_back({i + 1, i, -1.0});
  }
  for (std::int32_t i = n / 2; i + 1 < n; ++i) {
    trips.push_back({i, i + 1, -1.0});
    trips.push_back({i + 1, i, -1.0});
  }
  const auto a = CsrMatrix::from_triplets(n, n, std::move(trips));
  const auto perm = rcm_ordering(a);
  std::vector<std::int32_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::int32_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_LE(bandwidth(a, perm), bandwidth(a, {}));
}

// --- update_values equivalence -------------------------------------------

TEST(UpdateValues, InPlaceEditMatchesFreshlyConstructedSolver) {
  for (const SolverKind kind : kAllKinds) {
    Rng rng(42);
    CsrMatrix a = random_dd(80, 0.08, /*symmetric=*/false, rng);
    auto solver = make_solver(kind, a);

    // Perturb the values in place, keeping diagonal dominance.
    auto v = a.values_mut();
    Rng perturb(43);
    for (auto& x : v) x *= 1.0 + 0.1 * perturb.uniform();
    for (std::int32_t i = 0; i < a.rows(); ++i) {
      a.coeff_ref(i, i) = std::abs(a.coeff_ref(i, i)) + 5.0;
    }
    solver->update_values(a);

    auto fresh = make_solver(kind, a);
    const std::vector<double> b = random_vec(a.rows(), rng);
    std::vector<double> x_updated(a.rows(), 0.0), x_fresh(a.rows(), 0.0);
    solver->solve(b, x_updated);
    fresh->solve(b, x_fresh);
    // Same factors, same iteration sequence: bit-identical results.
    EXPECT_EQ(max_diff(x_updated, x_fresh), 0.0) << fresh->name();
  }
}

// --- StructureCache -------------------------------------------------------

TEST(StructureCacheTest, SharesOneAnalysisPerPattern) {
  Rng rng(9);
  const CsrMatrix a = random_dd(64, 0.1, /*symmetric=*/false, rng);
  CsrMatrix same_pattern = a;
  auto v = same_pattern.values_mut();
  for (auto& x : v) x *= 2.0;

  StructureCache cache;
  const auto s1 = cache.get(a);
  const auto s2 = cache.get(same_pattern);
  EXPECT_EQ(s1.get(), s2.get()) << "same pattern must share one structure";
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  Rng rng2(10);
  const CsrMatrix other = random_dd(64, 0.2, /*symmetric=*/false, rng2);
  const auto s3 = cache.get(other);
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(StructureCacheTest, AnalysisMatchesDirectComputation) {
  Rng rng(21);
  const CsrMatrix a = random_dd(100, 0.05, /*symmetric=*/true, rng);
  const auto cached = StructureCache().get(a);
  const auto direct = analyze_structure(a);
  EXPECT_EQ(cached->rcm_perm, direct->rcm_perm);
  const IluSchedule& cs = *cached->ilu_schedule;
  const IluSchedule& ds = *direct->ilu_schedule;
  EXPECT_EQ(cs.lower_rows, ds.lower_rows);
  EXPECT_EQ(cs.lower_runs, ds.lower_runs);
  EXPECT_EQ(cs.upper_rows, ds.upper_rows);
  EXPECT_EQ(cs.upper_runs, ds.upper_runs);
  EXPECT_EQ(cs.slot_col, ds.slot_col);
  EXPECT_EQ(cs.upper_slot, ds.upper_slot);
  EXPECT_EQ(cs.diag_slot, ds.diag_slot);
  EXPECT_EQ(cs.row_ptr, ds.row_ptr);
  EXPECT_EQ(cached->band_lower, direct->band_lower);
  EXPECT_EQ(cached->band_upper, direct->band_upper);
  EXPECT_TRUE(cached->matches(a));
}

TEST(StructureCacheTest, CachedStructureGivesBitIdenticalSolutions) {
  Rng rng(31);
  const CsrMatrix a = random_dd(120, 0.05, /*symmetric=*/false, rng);
  const std::vector<double> b = random_vec(a.rows(), rng);
  StructureCache cache;
  for (const SolverKind kind : kAllKinds) {
    auto plain = make_solver(kind, a);
    auto shared = make_solver(kind, a, cache.get(a));
    std::vector<double> x_plain(a.rows(), 0.0), x_shared(a.rows(), 0.0);
    plain->solve(b, x_plain);
    shared->solve(b, x_shared);
    EXPECT_EQ(max_diff(x_plain, x_shared), 0.0) << plain->name();
  }
}

TEST(StructureCacheTest, SolversOnOnePatternShareOneSchedule) {
  Rng rng(33);
  const CsrMatrix a = random_dd(90, 0.06, /*symmetric=*/false, rng);
  CsrMatrix b = a;
  for (auto& x : b.values_mut()) x *= 3.0;
  StructureCache cache;
  const Ilu0Preconditioner pa(a, cache.get(a).get());
  const Ilu0Preconditioner pb(b, cache.get(b).get());
  ASSERT_NE(pa.schedule(), nullptr);
  EXPECT_EQ(pa.schedule().get(), pb.schedule().get());
  EXPECT_EQ(pa.schedule().get(), cache.get(a)->ilu_schedule.get());
  const BatchedCsr ba(a, 3);
  const BatchedIlu0Preconditioner pc(ba, cache.get(a).get());
  EXPECT_EQ(pc.schedule().get(), pa.schedule().get());
}

// --- dependency-scheduled ILU(0) vs the natural-order reference ---------

/// The natural-order ILU(0) the dependency schedule replaced: IKJ
/// elimination row by row with a merge walk, and triangular sweeps in
/// row order. The scheduled kernels must reproduce its factors and z
/// bit for bit.
struct NaturalIlu0 {
  CsrMatrix lu;
  std::vector<std::int32_t> diag;

  explicit NaturalIlu0(const CsrMatrix& a) : lu(a) {
    const std::int32_t n = lu.rows();
    const auto rp = lu.row_ptr();
    const auto ci = lu.col_idx();
    diag.assign(static_cast<std::size_t>(n), -1);
    for (std::int32_t r = 0; r < n; ++r) {
      for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
        if (ci[k] == r) diag[r] = k;
      }
    }
    auto v = lu.values_mut();
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t kk = rp[i]; kk < rp[i + 1]; ++kk) {
        const std::int32_t k = ci[kk];
        if (k >= i) break;
        const double l = v[kk] / v[diag[k]];
        v[kk] = l;
        std::int32_t pi = kk + 1;
        for (std::int32_t pk = diag[k] + 1; pk < rp[k + 1]; ++pk) {
          const std::int32_t col = ci[pk];
          while (pi < rp[i + 1] && ci[pi] < col) ++pi;
          if (pi < rp[i + 1] && ci[pi] == col) v[pi] -= l * v[pk];
        }
      }
    }
  }

  std::vector<double> apply(const std::vector<double>& r) const {
    const std::int32_t n = lu.rows();
    const auto rp = lu.row_ptr();
    const auto ci = lu.col_idx();
    const auto v = lu.values();
    std::vector<double> z(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) {
      double acc = r[i];
      for (std::int32_t k = rp[i]; k < rp[i + 1] && ci[k] < i; ++k) {
        acc -= v[k] * z[ci[k]];
      }
      z[i] = acc;
    }
    for (std::int32_t i = n - 1; i >= 0; --i) {
      double acc = z[i];
      double dii = 0.0;
      for (std::int32_t k = rp[i + 1] - 1; k >= rp[i] && ci[k] >= i; --k) {
        if (ci[k] == i) {
          dii = v[k];
        } else {
          acc -= v[k] * z[ci[k]];
        }
      }
      z[i] = acc / dii;
    }
    return z;
  }
};

/// Exact bit pattern of a double (distinguishes -0.0 and NaN payloads).
std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// Lane \p l of a batch: \p a with values scaled per lane, diagonal
/// strengthened so every lane stays diagonally dominant and distinct.
CsrMatrix lane_variant(const CsrMatrix& a, int l) {
  CsrMatrix m = a;
  auto v = m.values_mut();
  const auto rp = m.row_ptr();
  const auto ci = m.col_idx();
  for (std::int32_t r = 0; r < m.rows(); ++r) {
    for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
      v[k] *= 1.0 + 0.013 * l;
      if (ci[k] == r) v[k] += 0.07 * l * std::abs(v[k]);
    }
  }
  return m;
}

/// A's CSR entry behind each factor slot: row r's L slots take its
/// leading entries, its pivot and U slots its trailing ones in reverse.
std::vector<std::int32_t> slot_entries(const IluSchedule& s) {
  std::vector<std::int32_t> e(s.slot_col.size(), -1);
  for (const IluSchedule::Run& run : s.lower_runs) {
    for (std::int32_t p = 0; p < run.count; ++p) {
      const std::int32_t r = s.lower_rows[run.first + p];
      for (std::int32_t j = 0; j < run.len; ++j) {
        e[run.slot + p * run.len + j] = s.row_ptr[r] + j;
      }
    }
  }
  for (std::int32_t r = 0; r < s.rows; ++r) {
    for (std::int32_t t = s.upper_slot[r]; t <= s.diag_slot[r]; ++t) {
      e[t] = s.row_ptr[r + 1] - 1 - (t - s.upper_slot[r]);
    }
  }
  return e;
}

/// Structural checks that hold for any correct schedule: each sweep
/// visits every row once, a row only after the rows it reads, and the
/// slots cover A's entries exactly once.
void expect_valid_schedule(const IluSchedule& s, const CsrMatrix& a) {
  const std::int32_t n = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (const bool lower : {true, false}) {
    const auto& order = lower ? s.lower_rows : s.upper_rows;
    ASSERT_EQ(static_cast<std::int32_t>(order.size()), n);
    std::vector<std::int32_t> pos(static_cast<std::size_t>(n), -1);
    for (std::int32_t p = 0; p < n; ++p) {
      ASSERT_EQ(pos[order[p]], -1) << "row visited twice";
      pos[order[p]] = p;
    }
    for (std::int32_t r = 0; r < n; ++r) {
      for (std::int32_t k = rp[r]; k < rp[r + 1]; ++k) {
        if (lower ? ci[k] < r : ci[k] > r) {
          EXPECT_LT(pos[ci[k]], pos[r]) << "row " << r << " before "
                                        << ci[k] << (lower ? " (L)" : " (U)");
        }
      }
    }
  }
  const std::vector<std::int32_t> entry = slot_entries(s);
  std::vector<int> seen(static_cast<std::size_t>(a.nnz()), 0);
  for (const std::int32_t e : entry) {
    ASSERT_GE(e, 0);
    ++seen[e];
  }
  for (const int c : seen) ASSERT_EQ(c, 1);
  for (std::size_t t = 0; t < s.slot_col.size(); ++t) {
    EXPECT_EQ(s.slot_col[t], ci[entry[t]]);
  }
}

/// Scalar and batched (every dispatch width, full and compacted)
/// scheduled ILU(0) against NaturalIlu0 on \p a: factors and z must
/// carry identical bits.
void expect_matches_natural_order(const CsrMatrix& a, const std::string& what) {
  const std::int32_t n = a.rows();
  Rng rng(static_cast<std::uint64_t>(n) * 7 + 1);
  StructureCache cache;
  const auto structure = cache.get(a);
  ASSERT_NE(structure->ilu_schedule, nullptr) << what;
  const IluSchedule& sched = *structure->ilu_schedule;
  expect_valid_schedule(sched, a);
  const std::vector<std::int32_t> entry = slot_entries(sched);

  // Scalar: with and without the shared structure, and after a refactor
  // to new values on the same pattern.
  {
    Ilu0Preconditioner own(lane_variant(a, 5));
    own.refactor(a);
    const Ilu0Preconditioner shared(a, structure.get());
    const NaturalIlu0 ref(a);
    for (const Ilu0Preconditioner* p :
         {static_cast<const Ilu0Preconditioner*>(&own), &shared}) {
      const auto f = p->factor_values();
      for (std::size_t t = 0; t < f.size(); ++t) {
        ASSERT_EQ(bits(f[t]), bits(ref.lu.values()[entry[t]]))
            << what << ": scalar factor slot " << t;
      }
      const std::vector<double> r = random_vec(n, rng);
      std::vector<double> z(static_cast<std::size_t>(n));
      p->apply(r, z);
      const std::vector<double> zr = ref.apply(r);
      for (std::int32_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(z[i]), bits(zr[i])) << what << ": scalar z row " << i;
      }
    }
  }

  // Batched at every dispatch width (1-8, 16) and a generic one (11).
  for (const int lanes : {1, 2, 3, 4, 5, 6, 7, 8, 11, 16}) {
    std::vector<CsrMatrix> mats;
    std::vector<NaturalIlu0> refs;
    BatchedCsr ba(a, lanes);
    for (int l = 0; l < lanes; ++l) {
      mats.push_back(lane_variant(a, l));
      refs.emplace_back(mats.back());
      ba.load_lane(l, mats.back());
    }
    BatchedIlu0Preconditioner p(ba, structure.get());
    const std::string at = what + " at width " + std::to_string(lanes);
    const auto f = p.factor_values();
    for (int l = 0; l < lanes; ++l) {
      for (std::size_t t = 0; t < entry.size(); ++t) {
        ASSERT_EQ(bits(f[t * lanes + l]),
                  bits(refs[l].lu.values()[entry[t]]))
            << at << ": lane " << l << " factor slot " << t;
      }
    }
    std::vector<std::vector<double>> rs, zr;
    std::vector<double> r(static_cast<std::size_t>(n) * lanes);
    for (int l = 0; l < lanes; ++l) {
      rs.push_back(random_vec(n, rng));
      zr.push_back(refs[l].apply(rs.back()));
      pack_lane(r, lanes, l, rs.back());
    }
    std::vector<double> z(r.size());
    p.apply(r, z);
    for (int l = 0; l < lanes; ++l) {
      for (std::int32_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(z[static_cast<std::size_t>(i) * lanes + l]),
                  bits(zr[l][i]))
            << at << ": lane " << l << " z row " << i;
      }
    }

    // Compacted views: the last k lanes in reverse order, every k.
    for (int k = 1; k <= lanes; ++k) {
      std::vector<int> keep;
      for (int c = 0; c < k; ++c) keep.push_back(lanes - 1 - c);
      p.compact_lanes(keep);
      std::vector<double> cr(static_cast<std::size_t>(n) * k);
      std::vector<double> cz(cr.size());
      for (int c = 0; c < k; ++c) pack_lane(cr, k, c, rs[keep[c]]);
      p.apply_compacted(cr.data(), cz.data());
      for (int c = 0; c < k; ++c) {
        for (std::int32_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(cz[static_cast<std::size_t>(i) * k + c]),
                    bits(zr[keep[c]][i]))
              << at << ": compacted to " << k << ", lane " << keep[c]
              << " z row " << i;
        }
      }
    }
  }
}

TEST(IluSchedule, MatchesNaturalOrderOnPaperOperators) {
  for (const int tiers : {2, 4}) {
    for (const auto cooling : {arch::CoolingKind::kAirCooled,
                               arch::CoolingKind::kLiquidCooled}) {
      arch::Mpsoc3D soc(arch::Mpsoc3D::Options{tiers, cooling});
      if (cooling == arch::CoolingKind::kLiquidCooled) {
        soc.model().set_all_flows(microchannel::PumpModel::table1().q_max());
      }
      const thermal::TransientSolver step(soc.model(), 0.1);
      const std::string what =
          std::to_string(tiers) + "-tier " +
          (cooling == arch::CoolingKind::kLiquidCooled ? "liquid" : "air");
      expect_matches_natural_order(soc.model().conductance(), what + " G");
      expect_matches_natural_order(step.system_operator().matrix(),
                                   what + " C/dt+G");
    }
  }
}

TEST(IluSchedule, MatchesNaturalOrderOnRandomNonsymmetricPatterns) {
  for (const std::int32_t n : {1, 7, 40, 150, 400}) {
    for (const double density : {0.02, 0.1}) {
      Rng rng(static_cast<std::uint64_t>(n) * 31 + (density > 0.05));
      const CsrMatrix a = random_dd(n, density, /*symmetric=*/false, rng);
      expect_matches_natural_order(
          a, "random n=" + std::to_string(n) +
                 " density=" + std::to_string(density));
    }
  }
}

TEST(IluSchedule, MatchesNaturalOrderWithEmptyLowerOrUpperRows) {
  // Rows cycle through: L entries only, U entries only, diagonal only,
  // both — so runs of length 0 occur in both sweeps, and one long row
  // takes the runtime-length loop.
  const std::int32_t n = 60;
  Rng rng(404);
  std::vector<Triplet> trips;
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  const auto add = [&](std::int32_t i, std::int32_t j) {
    const double v = rng.uniform(-1.0, 1.0);
    trips.push_back({i, j, v});
    rowsum[i] += std::abs(v);
  };
  for (std::int32_t i = 0; i < n; ++i) {
    const int kind = i % 4;
    for (std::int32_t j = 0; j < n; ++j) {
      if (j == i || rng.uniform() > 0.15) continue;
      if ((j < i && (kind == 0 || kind == 3)) ||
          (j > i && (kind == 1 || kind == 3))) {
        add(i, j);
      }
    }
  }
  for (std::int32_t j = 0; j < n - 1; ++j) add(n - 1, j);  // a long L row
  for (std::int32_t i = 0; i < n; ++i) {
    trips.push_back({i, i, rowsum[i] + 1.0 + rng.uniform()});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(n, n, std::move(trips));
  expect_matches_natural_order(a, "empty-L/U rows");
}

TEST(IluSchedule, RefactorAfterZeroPivotStillMatches) {
  // A zero pivot throws mid-elimination and leaves the factors partly
  // updated; the next (valid) refactor must still rebuild them exactly.
  Rng rng(17);
  const CsrMatrix a = random_dd(50, 0.1, /*symmetric=*/false, rng);
  CsrMatrix bad = a;
  bad.coeff_ref(0, 0) = 0.0;
  bool row0_is_a_pivot = false;
  for (std::int32_t i = 1; i < a.rows(); ++i) {
    row0_is_a_pivot = row0_is_a_pivot || a.has_entry(i, 0);
  }
  ASSERT_TRUE(row0_is_a_pivot);
  Ilu0Preconditioner p(a);
  EXPECT_THROW(p.refactor(bad), InvalidArgument);
  p.refactor(a);
  const NaturalIlu0 ref(a);
  const std::vector<std::int32_t> entry = slot_entries(*p.schedule());
  const auto f = p.factor_values();
  for (std::size_t t = 0; t < f.size(); ++t) {
    ASSERT_EQ(bits(f[t]), bits(ref.lu.values()[entry[t]]));
  }
}

// --- fused kernels --------------------------------------------------------

TEST(Kernels, FusedOperationsMatchNaiveFormulations) {
  Rng rng(55);
  const std::int32_t n = 90;
  const CsrMatrix a = random_dd(n, 0.07, /*symmetric=*/false, rng);
  const std::vector<double> x = random_vec(n, rng);
  const std::vector<double> b = random_vec(n, rng);
  const std::vector<double> w = random_vec(n, rng);

  std::vector<double> ax(n);
  a.multiply(x, ax);

  std::vector<double> y(n);
  spmv(a, x, y);
  EXPECT_EQ(max_diff(y, ax), 0.0);

  std::vector<double> y2(n);
  const double wy = spmv_dot(a, x, y2, w);
  EXPECT_EQ(max_diff(y2, ax), 0.0);
  EXPECT_NEAR(wy, dot(w, ax), 1e-9 * std::abs(wy) + 1e-12);

  std::vector<double> y3(n);
  double wy2 = 0.0;
  const double yy = spmv_dot2(a, x, y3, w, &wy2);
  EXPECT_EQ(max_diff(y3, ax), 0.0);
  EXPECT_NEAR(yy, dot(ax, ax), 1e-9 * yy + 1e-12);
  EXPECT_NEAR(wy2, dot(w, ax), 1e-9 * std::abs(wy2) + 1e-12);

  std::vector<double> r(n);
  const double rr = residual(a, x, b, r);
  double rr_naive = 0.0;
  for (std::int32_t i = 0; i < n; ++i) {
    const double ri = b[i] - ax[i];
    EXPECT_DOUBLE_EQ(r[i], ri);
    rr_naive += ri * ri;
  }
  EXPECT_NEAR(rr, rr_naive, 1e-9 * rr_naive + 1e-12);

  std::vector<double> s(n);
  const double ss = waxpby(s, b, -0.5, x);
  for (std::int32_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(s[i], b[i] - 0.5 * x[i]);
  }
  EXPECT_GE(ss, 0.0);

  std::vector<double> acc = b;
  axpy_product(2.0, w, x, acc);
  for (std::int32_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(acc[i], b[i] + 2.0 * w[i] * x[i]);
  }
}

TEST(Kernels, WorkspaceReuseAcrossSizesAndSolves) {
  KrylovWorkspace ws;
  ws.resize(10);
  EXPECT_EQ(ws.size(), 10u);
  EXPECT_EQ(ws.r.size(), 10u);
  ws.resize(25);
  EXPECT_EQ(ws.t.size(), 25u);
  ws.resize(25);  // no-op
  EXPECT_EQ(ws.sh.size(), 25u);

  // The same workspace drives repeated solves correctly.
  Rng rng(77);
  const CsrMatrix a = random_dd(25, 0.2, /*symmetric=*/false, rng);
  Ilu0Preconditioner m(a);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> b = random_vec(25, rng);
    std::vector<double> x(25, 0.0);
    const auto res = bicgstab(a, b, x, m, {1e-12, 2000}, ws);
    EXPECT_TRUE(res.converged);
    std::vector<double> r(25);
    EXPECT_LT(std::sqrt(residual(a, x, b, r)), 1e-6);
  }
}

}  // namespace
}  // namespace tac3d::sparse
