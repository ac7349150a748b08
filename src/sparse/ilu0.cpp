#include "sparse/ilu0.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "common/error.hpp"
#include "sparse/batched.hpp"
#include "sparse/lanes.hpp"

namespace tac3d::sparse {

namespace {

/// Order the rows by (level, entry count), keeping ascending row index
/// among equals, and cut the order into runs of equal entry count.
void order_sweep(const std::vector<std::int32_t>& level,
                 const std::vector<std::int32_t>& len,
                 std::vector<std::int32_t>& order,
                 std::vector<IluSchedule::Run>& runs) {
  order.resize(level.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return level[a] != level[b] ? level[a] < level[b]
                                                 : len[a] < len[b];
                   });
  runs.clear();
  for (std::int32_t p = 0; p < static_cast<std::int32_t>(order.size()); ++p) {
    const std::int32_t l = len[order[p]];
    if (runs.empty() || runs.back().len != l) {
      runs.push_back({p, 0, l, 0});
    }
    ++runs.back().count;
  }
}

// Per-run substitution kernels. CL = compile-time lane stride (0 =
// runtime), W = lanes per pass (0 = all), OFF = first lane of the pass
// (width 16 runs as two cache-blocked passes of 8, like the SpMV-shaped
// batched kernels), M = compile-time entries per row (-1 = runtime).

/// Forward rows of one run: z_i = r_i - sum_j L_ij z_j, ascending j.
template <int CL, int W, int OFF, int M>
void lower_run(const IluSchedule::Run& run, const std::int32_t* __restrict rows,
               const std::int32_t* __restrict col, int lanes,
               const double* __restrict v, const double* __restrict r,
               double* __restrict z) {
  const int L = CL > 0 ? CL : lanes;
  const int Wr = W > 0 ? W : lanes;
  const std::int32_t len = M >= 0 ? M : run.len;
  const std::int32_t* __restrict rw = rows + run.first;
  double acc[kMaxBatchLanes];
  std::int64_t s = run.slot;
  for (std::int32_t p = 0; p < run.count; ++p, s += len) {
    const std::int64_t ik = static_cast<std::int64_t>(rw[p]) * L + OFF;
    for (int l = 0; l < Wr; ++l) acc[l] = r[ik + l];
    for (std::int32_t j = 0; j < len; ++j) {
      const std::int64_t vk = (s + j) * L + OFF;
      const std::int64_t zk = static_cast<std::int64_t>(col[s + j]) * L + OFF;
      for (int l = 0; l < Wr; ++l) acc[l] -= v[vk + l] * z[zk + l];
    }
    for (int l = 0; l < Wr; ++l) z[ik + l] = acc[l];
  }
}

/// Backward rows of one run: z_i = (z_i - sum_j U_ij z_j) / U_ii,
/// descending j.
template <int CL, int W, int OFF, int M>
void upper_run(const IluSchedule::Run& run, const std::int32_t* __restrict rows,
               const std::int32_t* __restrict col, int lanes,
               const double* __restrict v, double* __restrict z) {
  const int L = CL > 0 ? CL : lanes;
  const int Wr = W > 0 ? W : lanes;
  const std::int32_t len = M >= 0 ? M : run.len;
  const std::int32_t* __restrict rw = rows + run.first;
  double acc[kMaxBatchLanes];
  std::int64_t s = run.slot;
  for (std::int32_t p = 0; p < run.count; ++p, s += len + 1) {
    const std::int64_t ik = static_cast<std::int64_t>(rw[p]) * L + OFF;
    for (int l = 0; l < Wr; ++l) acc[l] = z[ik + l];
    for (std::int32_t j = 0; j < len; ++j) {
      const std::int64_t vk = (s + j) * L + OFF;
      const std::int64_t zk = static_cast<std::int64_t>(col[s + j]) * L + OFF;
      for (int l = 0; l < Wr; ++l) acc[l] -= v[vk + l] * z[zk + l];
    }
    const std::int64_t dk = (s + len) * L + OFF;
    for (int l = 0; l < Wr; ++l) z[ik + l] = acc[l] / v[dk + l];
  }
}

/// Select the fixed-trip instantiation for a run's entry count; longer
/// rows (e.g. an ambient node tied to every surface cell) take the
/// runtime-length loop.
template <typename F>
void dispatch_len(std::int32_t len, F&& f) {
  switch (len) {
    case 0: f(std::integral_constant<int, 0>{}); return;
    case 1: f(std::integral_constant<int, 1>{}); return;
    case 2: f(std::integral_constant<int, 2>{}); return;
    case 3: f(std::integral_constant<int, 3>{}); return;
    case 4: f(std::integral_constant<int, 4>{}); return;
    case 5: f(std::integral_constant<int, 5>{}); return;
    case 6: f(std::integral_constant<int, 6>{}); return;
    default: f(std::integral_constant<int, -1>{}); return;
  }
}

template <int CL, int W, int OFF>
void substitute_part(const IluSchedule& s, int lanes, const double* v,
                     const double* r, double* z) {
  const std::int32_t* col = s.slot_col.data();
  for (const IluSchedule::Run& run : s.lower_runs) {
    dispatch_len(run.len, [&](auto m) {
      lower_run<CL, W, OFF, m.value>(run, s.lower_rows.data(), col, lanes, v,
                                     r, z);
    });
  }
  for (const IluSchedule::Run& run : s.upper_runs) {
    dispatch_len(run.len, [&](auto m) {
      upper_run<CL, W, OFF, m.value>(run, s.upper_rows.data(), col, lanes, v,
                                     z);
    });
  }
}

}  // namespace

std::shared_ptr<const IluSchedule> build_ilu_schedule(
    std::int32_t rows, std::span<const std::int32_t> row_ptr,
    std::span<const std::int32_t> col_idx) {
  require(rows >= 0 && row_ptr.size() == static_cast<std::size_t>(rows) + 1 &&
              col_idx.size() == static_cast<std::size_t>(row_ptr[rows]),
          "build_ilu_schedule: malformed pattern");
  const std::size_t n = static_cast<std::size_t>(rows);
  std::vector<std::int32_t> diag(n, -1), lower_len(n), upper_len(n);
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] == r) diag[r] = k;
    }
    if (diag[r] < 0) return nullptr;
    lower_len[r] = diag[r] - row_ptr[r];
    upper_len[r] = row_ptr[r + 1] - 1 - diag[r];
  }

  auto s = std::make_shared<IluSchedule>();
  s->rows = rows;
  s->slot_col.resize(col_idx.size());
  s->upper_slot.resize(n);
  s->diag_slot.resize(n);
  s->row_ptr.assign(row_ptr.begin(), row_ptr.end());

  // Forward sweep: a row's level is one more than the deepest row its L
  // entries read (0 for rows with no L entries).
  std::vector<std::int32_t> level(n, 0);
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t k = row_ptr[r]; k < diag[r]; ++k) {
      level[r] = std::max(level[r], level[col_idx[k]] + 1);
    }
  }
  order_sweep(level, lower_len, s->lower_rows, s->lower_runs);
  std::int32_t slot = 0;
  for (IluSchedule::Run& run : s->lower_runs) {
    run.slot = slot;
    for (std::int32_t p = run.first; p < run.first + run.count; ++p) {
      const std::int32_t r = s->lower_rows[p];
      for (std::int32_t k = row_ptr[r]; k < diag[r]; ++k) {
        s->slot_col[slot++] = col_idx[k];
      }
    }
  }

  // Backward sweep: levels over the U entries, from the last row up.
  std::fill(level.begin(), level.end(), 0);
  for (std::int32_t r = rows - 1; r >= 0; --r) {
    for (std::int32_t k = diag[r] + 1; k < row_ptr[r + 1]; ++k) {
      level[r] = std::max(level[r], level[col_idx[k]] + 1);
    }
  }
  order_sweep(level, upper_len, s->upper_rows, s->upper_runs);
  for (IluSchedule::Run& run : s->upper_runs) {
    run.slot = slot;
    for (std::int32_t p = run.first; p < run.first + run.count; ++p) {
      const std::int32_t r = s->upper_rows[p];
      s->upper_slot[r] = slot;
      for (std::int32_t k = row_ptr[r + 1] - 1; k > diag[r]; --k) {
        s->slot_col[slot++] = col_idx[k];
      }
      s->diag_slot[r] = slot;
      s->slot_col[slot++] = r;
    }
  }
  return s;
}

void ilu_factor_lane(const IluSchedule& s, const double* a, int lanes,
                     int lane, double* lu) {
  const std::int64_t L = lanes;
  const std::int32_t* __restrict col = s.slot_col.data();
  const std::int32_t* __restrict useg = s.upper_slot.data();
  const std::int32_t* __restrict dseg = s.diag_slot.data();
  const std::int32_t* __restrict rp = s.row_ptr.data();
  const auto at = [&](std::int64_t slot) -> double& {
    return lu[slot * L + lane];
  };

  // IKJ ILU(0) in forward-schedule order, so every row k a row reads
  // is final. Row i first takes A's values, then eliminates with each
  // row k of its L entries in ascending column order: l_ik = a_ik /
  // u_kk, then a_ij -= l_ik * u_kj along a merge walk of row k's U
  // entries (ascending column) against row i's entries right of k.
  for (const IluSchedule::Run& run : s.lower_runs) {
    for (std::int32_t p = 0; p < run.count; ++p) {
      const std::int32_t i = s.lower_rows[run.first + p];
      const std::int32_t ls = run.slot + p * run.len;
      const std::int32_t le = ls + run.len;
      for (std::int32_t j = 0; j < run.len; ++j) {
        at(ls + j) = a[static_cast<std::int64_t>(rp[i] + j) * L + lane];
      }
      for (std::int32_t t = useg[i]; t <= dseg[i]; ++t) {
        at(t) = a[static_cast<std::int64_t>(rp[i + 1] - 1 - (t - useg[i])) *
                      L +
                  lane];
      }
      // Row i right of L slot kk, ascending column: the L slots after
      // kk (cursor q), then the pivot and the U slots, stored descending
      // (cursor u).
      for (std::int32_t kk = ls; kk < le; ++kk) {
        const std::int32_t k = col[kk];
        const double pivot = at(dseg[k]);
        require(pivot != 0.0 && std::isfinite(pivot), "ILU(0): zero pivot");
        const double lik = at(kk) / pivot;
        at(kk) = lik;
        std::int32_t q = kk + 1;
        std::int32_t u = dseg[i];
        for (std::int32_t t = dseg[k] - 1; t >= useg[k]; --t) {
          const std::int32_t c = col[t];
          while (q < le && col[q] < c) ++q;
          if (q < le) {
            if (col[q] == c) at(q) -= lik * at(t);
            continue;
          }
          while (u >= useg[i] && col[u] < c) --u;
          if (u >= useg[i] && col[u] == c) at(u) -= lik * at(t);
        }
      }
    }
  }
}

void ilu_substitute(const IluSchedule& s, int lanes, const double* lu,
                    const double* r, double* z) {
  dispatch_lanes(lanes, [&](auto cl) {
    constexpr int CL = cl.value;
    if constexpr (CL == 16) {
      substitute_part<16, 8, 0>(s, lanes, lu, r, z);
      substitute_part<16, 8, 8>(s, lanes, lu, r, z);
    } else {
      substitute_part<CL, CL, 0>(s, lanes, lu, r, z);
    }
  });
}

}  // namespace tac3d::sparse
