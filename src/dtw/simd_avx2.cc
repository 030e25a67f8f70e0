// AVX2 backend: 4-wide double lanes, two vectors per canonical 8-cell scan
// block. Compiled with -mavx2 for this file only (see src/dtw/CMakeLists);
// simd.cc checks __builtin_cpu_supports("avx2") before installing the
// table, so nothing here runs on CPUs without AVX2.
//
// Bitwise contract: every operation mirrors the canonical scalar dataflow
// of simd_internal.h — same association of additions, same shift/scan
// structure, and min/max called with the same operand order as MinPd /
// MaxPd (x86 minpd/maxpd return the second operand on equality, which is
// exactly MinPd/MaxPd's rule). No FMA anywhere: fused rounding would
// diverge from the scalar backend.

#include "dtw/simd_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace tswarp::dtw::simd {
namespace {

namespace in = internal;

/// Lanes shifted up by one: out = {fill[0], x[0], x[1], x[2]}.
inline __m256d ShiftUp1(__m256d x, __m256d fill) {
  const __m256d r = _mm256_permute4x64_pd(x, _MM_SHUFFLE(2, 1, 0, 3));
  return _mm256_blend_pd(r, fill, 0x1);
}

/// Lanes shifted up by two: out = {fill[0], fill[1], x[0], x[1]}.
inline __m256d ShiftUp2(__m256d x, __m256d fill) {
  const __m256d r = _mm256_permute4x64_pd(x, _MM_SHUFFLE(1, 0, 3, 2));
  return _mm256_blend_pd(r, fill, 0x3);
}

/// Broadcast of lane 3.
inline __m256d Lane3(__m256d x) { return _mm256_permute4x64_pd(x, 0xFF); }

/// 4-lane inclusive +scan (canonical Scan4Add).
inline __m256d Scan4Add(__m256d b, __m256d zero) {
  const __m256d s1 = _mm256_add_pd(b, ShiftUp1(b, zero));
  return _mm256_add_pd(s1, ShiftUp2(s1, zero));
}

/// 4-lane inclusive min-scan (canonical Scan4Min; operand order u, shifted).
inline __m256d Scan4Min(__m256d u, __m256d inf) {
  const __m256d s1 = _mm256_min_pd(u, ShiftUp1(u, inf));
  return _mm256_min_pd(s1, ShiftUp2(s1, inf));
}

inline __m256d AbsPd(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/// Exact min-reduce of 4 lanes (order-free: min returns one of its inputs).
inline Value ReduceMin(__m256d x) {
  const __m128d lo = _mm256_castpd256_pd128(x);
  const __m128d hi = _mm256_extractf128_pd(x, 1);
  const __m128d m = _mm_min_pd(lo, hi);
  return in::MinPd(_mm_cvtsd_f64(m),
                   _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
}

/// Canonical stripe combine: (s0 + s1) + (s2 + s3).
inline Value CombineStripes(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d s01 = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
  const __m128d s23 = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
  return _mm_cvtsd_f64(_mm_add_sd(s01, s23));
}

/// Base-distance generators: a 4-lane block at cell offset i plus the
/// scalar form for the canonical sequential tail.
struct ValueBase {
  const Value* q;
  Value v;
  __m256d vv;
  __m256d Block(std::size_t i) const {
    return AbsPd(_mm256_sub_pd(_mm256_loadu_pd(q + i), vv));
  }
  Value At(std::size_t i) const { return in::AbsDiff(q[i], v); }
};

struct IntervalBase {
  const Value* q;
  Value lb, ub;
  __m256d vlb, vub, zero;
  __m256d Block(std::size_t i) const {
    const __m256d x = _mm256_loadu_pd(q + i);
    return _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(x, vub), _mm256_sub_pd(vlb, x)), zero);
  }
  Value At(std::size_t i) const { return in::IntervalDist(q[i], lb, ub); }
};

struct ArrayBase {
  const Value* base;
  __m256d Block(std::size_t i) const { return _mm256_loadu_pd(base + i); }
  Value At(std::size_t i) const { return base[i]; }
};

/// The canonical row step (ScanBlock8 + PaddedScanBlock) on AVX2 vectors.
template <typename B>
Value RowStep(const B& b, const Value* prev, Value* row, std::size_t n,
              Value left) {
  const __m256d inf = _mm256_set1_pd(kInfinity);
  const __m256d zero = _mm256_setzero_pd();
  __m256d carry = _mm256_set1_pd(left);
  __m256d vmin = inf;
  std::size_t i = 0;
  for (; i + kRowBlock <= n; i += kRowBlock) {
    const __m256d b0 = b.Block(i);
    const __m256d b1 = b.Block(i + 4);
    const __m256d mp0 = _mm256_min_pd(_mm256_loadu_pd(prev + i),
                                      _mm256_loadu_pd(prev + i - 1));
    const __m256d mp1 = _mm256_min_pd(_mm256_loadu_pd(prev + i + 4),
                                      _mm256_loadu_pd(prev + i + 3));
    const __m256d p0 = Scan4Add(b0, zero);
    const __m256d p0_top = Lane3(p0);
    const __m256d p1 = _mm256_add_pd(Scan4Add(b1, zero), p0_top);
    const __m256d u0 = _mm256_sub_pd(mp0, ShiftUp1(p0, zero));
    const __m256d u1 = _mm256_sub_pd(mp1, ShiftUp1(p1, p0_top));
    const __m256d m0 = Scan4Min(u0, inf);
    const __m256d m1 = _mm256_min_pd(Scan4Min(u1, inf), Lane3(m0));
    const __m256d r0 = _mm256_add_pd(p0, _mm256_min_pd(carry, m0));
    const __m256d r1 = _mm256_add_pd(p1, _mm256_min_pd(carry, m1));
    _mm256_storeu_pd(row + i, r0);
    _mm256_storeu_pd(row + i + 4, r1);
    vmin = _mm256_min_pd(vmin, _mm256_min_pd(r0, r1));
    carry = Lane3(r1);
  }
  Value row_min = ReduceMin(vmin);
  if (i < n) {
    in::PaddedScanBlock([&b, i](std::size_t k) { return b.At(i + k); },
                        prev + i, row + i, 0, n - i,
                        _mm256_cvtsd_f64(carry), &row_min);
  }
  return row_min;
}

Value RowStepValue(const Value* q, Value v, const Value* prev, Value* row,
                   std::size_t n, Value left) {
  return RowStep(ValueBase{q, v, _mm256_set1_pd(v)}, prev, row, n, left);
}

Value RowStepInterval(const Value* q, Value lb, Value ub, const Value* prev,
                      Value* row, std::size_t n, Value left) {
  return RowStep(IntervalBase{q, lb, ub, _mm256_set1_pd(lb),
                              _mm256_set1_pd(ub), _mm256_setzero_pd()},
                 prev, row, n, left);
}

Value RowStepBase(const Value* base, const Value* prev, Value* row,
                  std::size_t n, Value left) {
  return RowStep(ArrayBase{base}, prev, row, n, left);
}

/// Canonical striped accumulation (StripedSum) with vector stripes: lane l
/// of `acc` is stripe l.
template <typename TermVec, typename TermAt>
Value Striped(std::size_t n, TermVec term_vec, TermAt term_at, Value cap) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, term_vec(i));
    if ((i + 4) % kLbBlock == 0) {
      const Value partial = CombineStripes(acc);
      if (partial > cap) return partial;
    }
  }
  Value sum = CombineStripes(acc);
  for (; i < n; ++i) sum += term_at(i);
  return sum;
}

Value LbKeogh(const Value* v, const Value* lo, const Value* up, std::size_t n,
              Value cap) {
  const __m256d zero = _mm256_setzero_pd();
  return Striped(
      n,
      [&](std::size_t i) {
        const __m256d x = _mm256_loadu_pd(v + i);
        const __m256d l = _mm256_loadu_pd(lo + i);
        const __m256d u = _mm256_loadu_pd(up + i);
        return _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(x, u), _mm256_sub_pd(l, x)), zero);
      },
      [&](std::size_t i) { return in::IntervalDist(v[i], lo[i], up[i]); },
      cap);
}

Value LbKeoghConst(const Value* v, Value lo, Value up, std::size_t n,
                   Value cap) {
  const IntervalBase b{v, lo, up, _mm256_set1_pd(lo), _mm256_set1_pd(up),
                       _mm256_setzero_pd()};
  return Striped(
      n, [&](std::size_t i) { return b.Block(i); },
      [&](std::size_t i) { return b.At(i); }, cap);
}

Value LbImprovedPass1(const Value* v, const Value* lo, const Value* up,
                      Value* proj, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  return Striped(
      n,
      [&](std::size_t i) {
        const __m256d x = _mm256_loadu_pd(v + i);
        const __m256d l = _mm256_loadu_pd(lo + i);
        const __m256d u = _mm256_loadu_pd(up + i);
        _mm256_storeu_pd(proj + i,
                         _mm256_min_pd(_mm256_max_pd(x, l), u));
        return _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(x, u), _mm256_sub_pd(l, x)), zero);
      },
      [&](std::size_t i) {
        proj[i] = in::MinPd(in::MaxPd(v[i], lo[i]), up[i]);
        return in::IntervalDist(v[i], lo[i], up[i]);
      },
      kInfinity);
}

Value LbImprovedPass1Const(const Value* v, Value lo, Value up, Value* proj,
                           std::size_t n) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vup = _mm256_set1_pd(up);
  const __m256d zero = _mm256_setzero_pd();
  return Striped(
      n,
      [&](std::size_t i) {
        const __m256d x = _mm256_loadu_pd(v + i);
        _mm256_storeu_pd(proj + i,
                         _mm256_min_pd(_mm256_max_pd(x, vlo), vup));
        return _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(x, vup), _mm256_sub_pd(vlo, x)),
            zero);
      },
      [&](std::size_t i) {
        proj[i] = in::MinPd(in::MaxPd(v[i], lo), up);
        return in::IntervalDist(v[i], lo, up);
      },
      kInfinity);
}

Value SummaryLb(const Value* q, const Value* lo, const Value* hi,
                std::size_t num_intervals, std::size_t n, Value cap) {
  const __m256d zero = _mm256_setzero_pd();
  return Striped(
      n,
      [&](std::size_t i) {
        const __m256d x = _mm256_loadu_pd(q + i);
        __m256d d = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(x, _mm256_set1_pd(hi[0])),
                          _mm256_sub_pd(_mm256_set1_pd(lo[0]), x)),
            zero);
        for (std::size_t k = 1; k < num_intervals; ++k) {
          const __m256d dk = _mm256_max_pd(
              _mm256_max_pd(_mm256_sub_pd(x, _mm256_set1_pd(hi[k])),
                            _mm256_sub_pd(_mm256_set1_pd(lo[k]), x)),
              zero);
          d = _mm256_min_pd(d, dk);
        }
        return d;
      },
      [&](std::size_t i) {
        Value d = in::IntervalDist(q[i], lo[0], hi[0]);
        for (std::size_t k = 1; k < num_intervals; ++k) {
          d = in::MinPd(d, in::IntervalDist(q[i], lo[k], hi[k]));
        }
        return d;
      },
      cap);
}

constexpr KernelTable kTable = {
    "avx2",
    RowStepValue,
    RowStepInterval,
    RowStepBase,
    LbKeogh,
    LbKeoghConst,
    LbImprovedPass1,
    LbImprovedPass1Const,
    SummaryLb,
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kTable; }

}  // namespace tswarp::dtw::simd

#else  // !defined(__AVX2__)

namespace tswarp::dtw::simd {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace tswarp::dtw::simd

#endif
