#pragma once
/// \file lanes.hpp
/// \brief Compile-time lane-width dispatch for the lane-interleaved
/// kernels (sparse/batched.cpp, sparse/ilu0.cpp). Private to src/sparse.

#include <type_traits>

namespace tac3d::sparse {

/// The lane-interleaved kernels are templated on a compile-time lane
/// count CL (0 = generic runtime width): with the width known, the lane
/// inner loops have constant trip counts, so the compiler unrolls them
/// into SIMD lanes and keeps the per-lane accumulators in registers —
/// the actual mechanism by which one pattern traversal advances K
/// systems at roughly the cost of one. dispatch_lanes() selects the
/// instantiation.
template <typename F>
void dispatch_lanes(int lanes, F&& f) {
  switch (lanes) {
    case 1: f(std::integral_constant<int, 1>{}); return;
    case 2: f(std::integral_constant<int, 2>{}); return;
    case 3: f(std::integral_constant<int, 3>{}); return;
    case 4: f(std::integral_constant<int, 4>{}); return;
    case 5: f(std::integral_constant<int, 5>{}); return;
    case 6: f(std::integral_constant<int, 6>{}); return;
    case 7: f(std::integral_constant<int, 7>{}); return;
    case 8: f(std::integral_constant<int, 8>{}); return;
    case 16: f(std::integral_constant<int, 16>{}); return;
    default: f(std::integral_constant<int, 0>{}); return;
  }
}

}  // namespace tac3d::sparse
