#pragma once
/// \file ilu0.hpp
/// \brief Dependency-scheduled ILU(0): the pattern-level schedule and the
/// elimination and triangular-substitution kernels that both
/// Ilu0Preconditioner (one lane) and BatchedIlu0Preconditioner (K
/// lane-interleaved lanes) run.
///
/// A natural-order triangular sweep makes every row wait for the store
/// (and, backward, the divide) of the row before it. The schedule
/// instead visits the rows of each sweep by level in the factor's
/// dependency graph — a row's level is one more than the deepest row it
/// reads — and, within a level, by entry count. Rows of one level never
/// read each other, so their accumulation chains overlap in the CPU;
/// consecutive rows of equal entry count form a run that the kernels
/// walk with a fixed-trip inner loop.
///
/// Bitwise contract: every row still subtracts its entries in the
/// natural-order algorithm's order (forward: ascending column;
/// backward: descending column, then one divide by the pivot), and the
/// elimination still updates each row from its L entries in ascending
/// column order. Only the visiting order of rows that do not depend on
/// each other changes, so factors and z carry exactly the bits of the
/// natural-order loops.
///
/// Factor values live in "slots" laid out in schedule order: first the
/// L entries of every row in forward order (ascending column within a
/// row), then, in backward order, each row's U entries (descending
/// column) immediately followed by its pivot. With K lanes, slot s of
/// lane l sits at values[s*K + l].

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace tac3d::sparse {

/// Immutable, pattern-level ILU(0) schedule (shared between solvers
/// through SymbolicStructure).
struct IluSchedule {
  /// Consecutive rows of one sweep with the same off-diagonal entry
  /// count.
  struct Run {
    std::int32_t first = 0;  ///< index into the sweep's row order
    std::int32_t count = 0;  ///< rows in the run
    std::int32_t len = 0;    ///< off-diagonal entries per row
    std::int32_t slot = 0;   ///< slot of the run's first entry
    bool operator==(const Run&) const = default;
  };

  std::int32_t rows = 0;
  /// Forward (unit-L) sweep: rows in visiting order, grouped in runs;
  /// row p of a run owns slots [slot + p*len, slot + (p+1)*len).
  std::vector<std::int32_t> lower_rows;
  std::vector<Run> lower_runs;
  /// Backward (U) sweep: row p of a run owns slots
  /// [slot + p*(len+1), slot + (p+1)*(len+1)), the last being its pivot.
  std::vector<std::int32_t> upper_rows;
  std::vector<Run> upper_runs;
  /// Column (index into z) each slot multiplies; a pivot's is its row.
  std::vector<std::int32_t> slot_col;
  /// Per row: its first U slot and its pivot slot (its U entries fill
  /// the slots in between).
  std::vector<std::int32_t> upper_slot;
  std::vector<std::int32_t> diag_slot;
  /// A's row pointers: row r's CSR entries seed its L slots (ascending),
  /// then its pivot, then its U slots (descending).
  std::vector<std::int32_t> row_ptr;
};

/// Build the schedule of a square CSR pattern with strictly ascending
/// columns per row (the CsrMatrix invariant). Returns null when a row
/// has no stored diagonal: ILU(0) needs every pivot on the pattern.
std::shared_ptr<const IluSchedule> build_ilu_schedule(
    std::int32_t rows, std::span<const std::int32_t> row_ptr,
    std::span<const std::int32_t> col_idx);

/// Refactor lane \p lane of \p lanes-interleaved factors \p lu from the
/// matching lane of A's values \p a (interleaved at the same width; one
/// lane means plain CSR values). Throws InvalidArgument on a zero or
/// non-finite pivot. No allocation.
void ilu_factor_lane(const IluSchedule& s, const double* a, int lanes,
                     int lane, double* lu);

/// z = (LU)^{-1} r for every lane of \p lanes-interleaved vectors. No
/// allocation.
void ilu_substitute(const IluSchedule& s, int lanes, const double* lu,
                    const double* r, double* z);

}  // namespace tac3d::sparse
