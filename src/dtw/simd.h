#ifndef TSWARP_DTW_SIMD_H_
#define TSWARP_DTW_SIMD_H_

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace tswarp::dtw::simd {

/// SIMD kernel layer for the DTW row step and the envelope lower bounds.
///
/// Every kernel below is defined by ONE canonical dataflow — a fixed
/// association of additions, a fixed early-abandon granularity, and
/// vector-semantics min/max — and both backends (scalar and AVX2)
/// implement that dataflow exactly. Two consequences:
///
///   * results are bitwise identical across backends, so match sets,
///     distances, and stats do not depend on the machine the search ran on
///     (differential_test enforces this);
///   * the scalar backend is not a "reference with different rounding" but
///     the same algorithm executed one lane at a time.
///
/// The canonical row step is a block-scan decomposition of the Definition-2
/// recurrence (see docs/algorithms.md): blocks of kRowBlock cells are
/// rewritten as a prefix sum of the base distances plus a running min-scan,
/// which breaks the per-cell serial min+add dependency chain; a partial
/// block (a sub-block tail, or a banded row starting mid-block) runs the
/// same block dataflow with padded lanes (simd_internal.h's
/// PaddedScanBlock), so a cell's rounding depends only on its absolute
/// column — which keeps banded distances exactly monotone in the band
/// width. Canonical sums
/// (kernels that accumulate, e.g. LB_Keogh) use four interleaved stripes —
/// stripe l accumulates elements with index = l (mod 4) — combined as
/// (s0 + s1) + (s2 + s3), with any sub-multiple-of-4 tail added in order.
/// Early abandon tests fire only at kLbBlock element boundaries.

/// Cells per row-step scan block. Part of the canonical dataflow: changing
/// it changes results (at ULP level), so it is a constant, not a tunable.
inline constexpr std::size_t kRowBlock = 8;

/// Elements between early-abandon checks in the accumulating kernels.
inline constexpr std::size_t kLbBlock = 64;

/// Alignment (bytes) of AlignedVector storage; covers AVX-512 and every
/// cache line on current targets.
inline constexpr std::size_t kAlignment = 64;

/// Minimal aligned allocator so scratch rows and envelope buffers start on
/// a kAlignment boundary. Kernels use unaligned loads (table rows live at
/// arbitrary offsets inside the DFS cell stack), so alignment is a
/// performance guarantee for the buffers we control, not a correctness
/// requirement.
///
/// construct() without arguments default-initializes instead of
/// value-initializing, so vector::resize() does NOT zero-fill new
/// elements. Every AlignedVector user overwrites grown cells before
/// reading them (table rows are written by the row-step kernel, envelope
/// and scratch buffers by their fill passes); skipping the zero-fill
/// matters on the hot push path, where a resize precedes every row.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kAlignment));
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(static_cast<Args&&>(args)...);
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

using AlignedVector = std::vector<Value, AlignedAllocator<Value>>;

/// Runtime-dispatched kernel set. All row-step kernels compute the n cells
/// row[0..n) of one table row restricted to its in-band range:
///
///   row[i] = base(i) + min(row[i-1], prev[i], prev[i-1])
///
/// where row[-1] is the carry-in `left` and prev[-1] must be readable
/// (callers pass pointers offset so it is the previous row's cell just
/// left of the range). They return the minimum over the computed cells
/// (exact regardless of reduction order), which WarpingTable records for
/// O(1) RowMin().
///
/// An entry point earns its place in the table only while the AVX2 form
/// is >= 1.2x faster than scalar in the micro benchmarks that call it, at
/// |Q| 20-100 (docs/tuning.md "SIMD backends"); loops below that line,
/// such as the banded envelope extrema and the multivariate strided
/// gather, are plain code at their callers.
struct KernelTable {
  const char* name;

  /// Exact rows: base(i) = |q[i] - v| (paper Definition 1).
  Value (*row_step_value)(const Value* q, Value v, const Value* prev,
                          Value* row, std::size_t n, Value left);
  /// Interval rows: base(i) = D_base-lb(q[i], [lb, ub]) (Definition 3).
  Value (*row_step_interval)(const Value* q, Value lb, Value ub,
                             const Value* prev, Value* row, std::size_t n,
                             Value left);
  /// Caller-precomputed base distances (the generic PushRowCustom path).
  Value (*row_step_base)(const Value* base, const Value* prev, Value* row,
                         std::size_t n, Value left);

  /// LB_Keogh accumulation: sum of D_base-lb(v[i], [lo[i], up[i]]) with
  /// canonical striped summation; abandons once a kLbBlock-boundary
  /// partial sum exceeds `cap` (the partial is still a lower bound).
  Value (*lb_keogh)(const Value* v, const Value* lo, const Value* up,
                    std::size_t n, Value cap);
  /// Same with a constant envelope (the unconstrained-warping case).
  Value (*lb_keogh_const)(const Value* v, Value lo, Value up, std::size_t n,
                          Value cap);
  /// LB_Improved pass 1: accumulates like lb_keogh but also writes the
  /// projection proj[i] = clamp(v[i], lo[i], up[i]). No early abandon —
  /// the projection must be complete for pass 2.
  Value (*lb_improved_pass1)(const Value* v, const Value* lo,
                             const Value* up, Value* proj, std::size_t n);
  Value (*lb_improved_pass1_const)(const Value* v, Value lo, Value up,
                                   Value* proj, std::size_t n);

  /// Node-summary lower bound: sum_i min_k IntervalDist(q[i], lo[k], hi[k])
  /// over `num_intervals` value hulls (the search driver passes at most
  /// 6: prefix hull + subtree hull + up to 4 label-envelope segments).
  /// Canonical dataflow is StripedSum over the per-element interval-min
  /// (k ascending, MinPd semantics), so results are bitwise identical
  /// across backends; early-abandons past `cap` at kLbBlock boundaries
  /// (a partial sum is still a lower bound). Requires num_intervals >= 1.
  Value (*summary_lb)(const Value* q, const Value* lo, const Value* hi,
                      std::size_t num_intervals, std::size_t n, Value cap);
};

/// The active kernel table. First use resolves the backend: an explicit
/// SetBackend() call wins, else the TSWARP_SIMD environment variable
/// (avx2|scalar), else the best backend the CPU supports (dispatch order
/// avx2 > scalar; CPUs without AVX2, arm64 included, run scalar).
const KernelTable& Kernels();

/// Selects a backend by name ("avx2", "scalar", or "auto" for
/// best-available). Returns false — leaving the active backend
/// unchanged — when the name is unknown or the CPU lacks the instruction
/// set. Not thread-safe against concurrent kernel use; switch backends
/// only between searches (CLI startup, test setup).
bool SetBackend(std::string_view name);

/// Name of the active backend ("avx2" or "scalar").
const char* ActiveBackend();

/// Backends usable on this machine, best first; always ends with "scalar".
std::vector<std::string> AvailableBackends();

}  // namespace tswarp::dtw::simd

#endif  // TSWARP_DTW_SIMD_H_
