#pragma once
/// \file check.hpp
/// \brief Output check of every workload: non-finite detection plus a
/// recomputation of a seeded sample of results through the plain
/// reference path (sim::run_scenario with no bank, no batching and
/// limit-cycle replay off), compared at the golden suite's tolerance.

#include <cstddef>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace perfbench {

/// Relative tolerance of the golden regression suite: |got - ref| may be
/// at most kRelTol * max(1, |ref|).
inline constexpr double kRelTol = 1e-6;

/// Every scalar and per-core metric finite?
bool metrics_finite(const tac3d::sim::SimMetrics& m);

/// Do \p got and \p ref agree within kRelTol? On a mismatch \p why names
/// the first differing field.
bool metrics_match(const tac3d::sim::SimMetrics& got,
                   const tac3d::sim::SimMetrics& ref, std::string* why);

/// \p s as the reference path runs it: every shared artifact dropped
/// (trace, structure cache, cached initial state, operator prototype)
/// and limit-cycle replay off. run_scenario() is the scalar session, so
/// batching is off too.
tac3d::sim::Scenario reference_spec(tac3d::sim::Scenario s);

/// One sampled result and the scenario that produced it.
struct CheckItem {
  tac3d::sim::Scenario scenario;
  tac3d::sim::SimMetrics got;
};

/// Recompute every item through the reference path on \p workers threads
/// and return how many failed (non-finite, mismatched, or the reference
/// threw). Failures are described on stderr.
std::size_t check_against_reference(const std::vector<CheckItem>& items,
                                    int workers);

/// Self-test of the check: a small scenario's bank-on sweep result must
/// pass, and copies perturbed beyond the tolerance (one scalar, one
/// per-core entry) or made non-finite must each be counted as failed.
/// Returns 0 when the check behaves, 1 otherwise.
int self_test();

}  // namespace perfbench
