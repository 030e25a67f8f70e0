#ifndef TSWARP_DTW_SIMD_INTERNAL_H_
#define TSWARP_DTW_SIMD_INTERNAL_H_

#include <cmath>
#include <cstddef>

#include "common/types.h"
#include "dtw/simd.h"

/// Canonical scalar building blocks shared by the scalar and AVX2 backend
/// translation units. The AVX2 backend must mirror these exactly — same
/// association of additions, same shift/scan structure, same min/max
/// operand order — so that both backends produce bitwise-identical
/// results.
///
/// MinPd/MaxPd replicate the x86 minpd/maxpd selection rule — return the
/// SECOND operand when the operands compare equal (which is where +0.0
/// and -0.0 differ) — so scalar and vector code agree bit-for-bit as long
/// as both pass operands in the same order. NaN never reaches a kernel
/// (base distances are finite; +infinity only ever meets finite values).

namespace tswarp::dtw::simd::internal {

inline Value MinPd(Value a, Value b) { return a < b ? a : b; }
inline Value MaxPd(Value a, Value b) { return a > b ? a : b; }

/// |a - b| via sign-bit clear (std::fabs), matching the AVX2 backend's
/// andnot(-0.0, x) — both map -0.0 to +0.0.
inline Value AbsDiff(Value a, Value b) { return std::fabs(a - b); }

/// D_base-lb as max(max(v - up, lo - v), +0.0) — the branch-free form the
/// AVX2 backend uses; identical values to the branching BaseDistanceLb
/// (the final max against +0.0 also canonicalizes any -0.0 away).
inline Value IntervalDist(Value v, Value lo, Value up) {
  return MaxPd(MaxPd(v - up, lo - v), 0.0);
}

/// 4-lane Hillis-Steele inclusive +scan: the canonical association is
///   s1[i] = b[i] + b[i-1]   (shift-by-1, zero shifted in)
///   out[i] = s1[i] + s1[i-2] (shift-by-2)
/// giving out = {b0, b1+b0, (b2+b1)+b0, (b3+b2)+(b1+b0)}.
inline void Scan4Add(const Value b[4], Value out[4]) {
  const Value s1_1 = b[1] + b[0];
  const Value s1_2 = b[2] + b[1];
  const Value s1_3 = b[3] + b[2];
  out[0] = b[0];
  out[1] = s1_1;
  out[2] = s1_2 + b[0];
  out[3] = s1_3 + s1_1;
}

/// 4-lane inclusive min-scan with the same shift structure (+infinity
/// shifted in). min is exact, so only signed-zero handling needs the
/// operand-order discipline of MinPd.
inline void Scan4Min(const Value u[4], Value out[4]) {
  const Value s1_1 = MinPd(u[1], u[0]);
  const Value s1_2 = MinPd(u[2], u[1]);
  const Value s1_3 = MinPd(u[3], u[2]);
  out[0] = u[0];
  out[1] = s1_1;
  out[2] = MinPd(s1_2, u[0]);
  out[3] = MinPd(s1_3, s1_1);
}

/// One canonical row-step scan block of kRowBlock == 8 cells (see
/// docs/algorithms.md "two-pass row step"). Inputs are the 8 base
/// distances and the 8 pairwise previous-row minima
/// mp[i] = min(prev[i], prev[i-1]); `left` is row[-1]. Writes row[0..8)
/// and returns row[7] (the next block's carry).
///
/// Derivation: unrolling row[i] = base[i] + min(row[i-1], mp[i]) gives
///   row[i] = P[i] + min(left, min_{j<=i}(mp[j] - P[j-1]))
/// with P the inclusive prefix sum of base and P[-1] = 0. The formula
/// holds exactly in real arithmetic; in floating point it fixes ONE
/// canonical rounding (the scans above), which every backend reproduces.
inline Value ScanBlock8(const Value base[8], const Value mp[8], Value left,
                        Value* row) {
  // P: two 4-lane scans; the high group adds the low group's total.
  Value p_lo[4];
  Value p_hi[4];
  Scan4Add(base, p_lo);
  Scan4Add(base + 4, p_hi);
  Value P[8];
  for (int i = 0; i < 4; ++i) P[i] = p_lo[i];
  for (int i = 0; i < 4; ++i) P[4 + i] = p_hi[i] + p_lo[3];
  // u[i] = mp[i] - P[i-1] (P[-1] = 0). P is finite (base distances are
  // finite), so +infinity in mp propagates cleanly and no NaN can form.
  Value u[8];
  u[0] = mp[0];
  for (int i = 1; i < 8; ++i) u[i] = mp[i] - P[i - 1];
  // M: running min of u with the same two-group scan structure.
  Value m_lo[4];
  Value m_hi[4];
  Scan4Min(u, m_lo);
  Scan4Min(u + 4, m_hi);
  Value M[8];
  for (int i = 0; i < 4; ++i) M[i] = m_lo[i];
  for (int i = 0; i < 4; ++i) M[4 + i] = MinPd(m_hi[i], m_lo[3]);
  for (int i = 0; i < 8; ++i) row[i] = P[i] + MinPd(left, M[i]);
  return row[7];
}

/// One padded scan block: the canonical block dataflow applied to a block
/// that is only partially covered by computed cells. Lanes [0, lead) are
/// out-of-band on the left (a banded row starting mid-block): they keep
/// their REAL base distances — so the prefix sum P is independent of where
/// the band starts — but their mp is forced to +infinity (no warping path
/// may pass through an out-of-band cell; the stored prev values there
/// belong to the previous row's band and must not leak in). Lanes
/// [lead, lead + m) are the computed cells, written to row. Lanes beyond
/// are trailing padding (base 0, mp +infinity) whose lanes are discarded —
/// the scans are causal (lane j depends only on lanes <= j), so trailing
/// padding never perturbs a computed lane.
///
/// Every partial block goes through here — in every backend — so a cell's
/// floating-point dataflow depends only on its absolute column, never on
/// how the band clips the row. Together with the monotonicity of every
/// operation involved (and of rounding), that makes banded distances
/// exactly monotone in the band width. `base_at(k)` must be valid for
/// lanes [0, lead + m); `prev`/`row` point at the block's first lane
/// (prev[-1] readable). Returns the value of lane lead + m - 1 (the
/// carry when the block is full).
template <typename BaseAt>
inline Value PaddedScanBlock(BaseAt base_at, const Value* prev, Value* row,
                             std::size_t lead, std::size_t m, Value left,
                             Value* row_min) {
  Value base[kRowBlock];
  Value mp[kRowBlock];
  const std::size_t end = lead + m;
  for (std::size_t k = 0; k < kRowBlock; ++k) {
    if (k < lead) {
      base[k] = base_at(k);
      mp[k] = kInfinity;
    } else if (k < end) {
      base[k] = base_at(k);
      mp[k] = MinPd(prev[k], prev[k - 1]);
    } else {
      base[k] = 0.0;
      mp[k] = kInfinity;
    }
  }
  Value cells[kRowBlock];
  ScanBlock8(base, mp, left, cells);
  for (std::size_t k = lead; k < end; ++k) {
    row[k] = cells[k];
    *row_min = MinPd(*row_min, cells[k]);
  }
  return cells[end - 1];
}

/// Generic canonical row step: full scan blocks of 8, one padded block for
/// any remainder. The scalar backend uses this directly; the AVX2 backend
/// replaces the full-block body with vector code but keeps this exact
/// structure (and shares PaddedScanBlock for the remainder).
template <typename BaseAt>
inline Value RowStepGeneric(BaseAt base_at, const Value* prev, Value* row,
                            std::size_t n, Value left) {
  Value row_min = kInfinity;
  std::size_t i = 0;
  for (; i + kRowBlock <= n; i += kRowBlock) {
    Value base[kRowBlock];
    Value mp[kRowBlock];
    for (std::size_t k = 0; k < kRowBlock; ++k) {
      base[k] = base_at(i + k);
      mp[k] = MinPd(prev[i + k], prev[i + k - 1]);
    }
    left = ScanBlock8(base, mp, left, row + i);
    for (std::size_t k = 0; k < kRowBlock; ++k) {
      row_min = MinPd(row_min, row[i + k]);
    }
  }
  if (i < n) {
    PaddedScanBlock([&](std::size_t k) { return base_at(i + k); }, prev + i,
                    row + i, 0, n - i, left, &row_min);
  }
  return row_min;
}

/// Canonical striped accumulation: four stripe accumulators (stripe l sums
/// elements with index = l mod 4) combined as (s0 + s1) + (s2 + s3), with
/// the sub-multiple-of-4 tail added sequentially onto the combined sum.
/// At every kLbBlock boundary the combined partial is tested against
/// `cap`; exceeding it abandons, returning the partial (still a valid
/// lower bound: all remaining terms are non-negative). Pass
/// cap = kInfinity to disable abandoning.
template <typename TermAt>
inline Value StripedSum(std::size_t n, TermAt term_at, Value cap) {
  Value acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc[0] += term_at(i);
    acc[1] += term_at(i + 1);
    acc[2] += term_at(i + 2);
    acc[3] += term_at(i + 3);
    if ((i + 4) % kLbBlock == 0) {
      const Value partial = (acc[0] + acc[1]) + (acc[2] + acc[3]);
      if (partial > cap) return partial;
    }
  }
  Value sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (std::size_t i = n4; i < n; ++i) sum += term_at(i);
  return sum;
}

}  // namespace tswarp::dtw::simd::internal

#endif  // TSWARP_DTW_SIMD_INTERNAL_H_
