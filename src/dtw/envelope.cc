#include "dtw/envelope.h"

#include <algorithm>

#include "common/logging.h"
#include "dtw/base.h"
#include "dtw/simd.h"
#include "dtw/simd_internal.h"
#include "dtw/warping_table.h"

namespace tswarp::dtw {
namespace {

/// Banded sliding-window extrema: for every data offset j in
/// [0, outputs) computes
///
///   lower[j] = min seq[max(0, j-band) .. min(n-1, j+band)]
///   upper[j] = max seq[...same window...]
///
/// by sparse-table doubling. Offsets reach up to n + band; callers that
/// read fewer pass a smaller `outputs` (1 <= outputs <= n + band), and the
/// passes shrink with it. The sequence is padded into `work` (size
/// 2 * (outputs + 2*band); the first half is the min side, padded with
/// +inf, the second half the max side, padded with -inf), then
/// log2(window) in-place
/// passes work[i] = min(work[i], work[i + s]) with s = 1, 2, 4, ... grow
/// each slot's covered span to the largest power of two p <= window, and a
/// final pass combines the two overlapping p-spans of each window into
/// lower/upper. Every step is an exact two-operand min/max with MinPd/MaxPd
/// operand order, so the envelope is a selection of query values with a
/// fixed signed-zero rule; the loops are branch-free and elementwise, so
/// the compiler vectorizes them for the build's baseline ISA. The reused
/// `work` scratch keeps the banded LB_Improved hot path allocation-free.
/// Requires band >= 1 (band == 0 takes the unconstrained path) and
/// non-empty seq.
void BandedExtrema(std::span<const Value> seq, Pos band, std::size_t outputs,
                   simd::AlignedVector* lower, simd::AlignedVector* upper,
                   simd::AlignedVector* work) {
  using simd::internal::MaxPd;
  using simd::internal::MinPd;
  const std::size_t n = seq.size();
  const std::size_t b = band;
  TSW_DCHECK(outputs >= 1 && outputs <= n + b);
  const std::size_t w = 2 * b + 1;        // Window width (odd, >= 3).
  const std::size_t m = outputs + 2 * b;  // Padded length (per side).
  // Output j reads padded slots [j, j + 2b], so data past m - b is unread.
  const std::size_t copied = std::min(n, m - b);
  lower->resize(outputs);
  upper->resize(outputs);
  work->resize(2 * m);
  Value* wmin = work->data();
  Value* wmax = wmin + m;
  for (std::size_t i = 0; i < b; ++i) {
    wmin[i] = kInfinity;
    wmax[i] = -kInfinity;
  }
  for (std::size_t i = 0; i < copied; ++i) {
    wmin[b + i] = seq[i];
    wmax[b + i] = seq[i];
  }
  for (std::size_t i = b + copied; i < m; ++i) {
    wmin[i] = kInfinity;
    wmax[i] = -kInfinity;
  }
  // One pass: dst[j] = op(src[j], src[j + s]) for j in [0, count), both
  // sides fused. Ascending j with s >= 1 reads each slot before any write
  // lands on it, so the passes may run in place.
  const auto pass = [](const Value* min_src, Value* min_dst,
                       const Value* max_src, Value* max_dst,
                       std::size_t count, std::size_t s) {
    for (std::size_t j = 0; j < count; ++j) {
      min_dst[j] = MinPd(min_src[j], min_src[j + s]);
      max_dst[j] = MaxPd(max_src[j], max_src[j + s]);
    }
  };
  std::size_t p = 1;
  while (p * 2 <= w) p *= 2;
  // The pass with step s must leave spans of 2s at slots
  // [0, outputs + w - 2s), which the next pass (and finally the two
  // overlapping p-spans of each window) read.
  for (std::size_t s = 1; s < p; s *= 2) {
    pass(wmin, wmin, wmax, wmax, outputs + w - 2 * s, s);
  }
  pass(wmin, lower->data(), wmax, upper->data(), outputs, w - p);
}

}  // namespace

QueryEnvelope::QueryEnvelope(std::span<const Value> query, Pos band)
    : band_(band) {
  TSW_CHECK(!query.empty()) << "envelope of an empty query";
  if (band == 0) {
    // Unconstrained warping: one global interval covers every offset.
    const auto [lo, hi] = std::minmax_element(query.begin(), query.end());
    lower_.assign(1, *lo);
    upper_.assign(1, *hi);
    reach_ = kNoReachLimit;
  } else {
    simd::AlignedVector work;  // Once per query: a local is fine.
    BandedExtrema(query, band, query.size() + band, &lower_, &upper_, &work);
    reach_ = lower_.size();
  }
}

Value LbKeogh(const QueryEnvelope& env, std::span<const Value> candidate,
              Value abandon_above) {
  const std::size_t len = candidate.size();
  // Beyond the banded reach some element admits no legal path at all.
  if (len > env.reach()) return kInfinity;
  const simd::KernelTable& k = simd::Kernels();
  if (env.unconstrained()) {
    return k.lb_keogh_const(candidate.data(), env.LowerAt(0), env.UpperAt(0),
                            len, abandon_above);
  }
  return k.lb_keogh(candidate.data(), env.lower().data(), env.upper().data(),
                    len, abandon_above);
}

Value LbImproved(const QueryEnvelope& env, std::span<const Value> query,
                 std::span<const Value> candidate, Value abandon_above,
                 EnvelopeScratch* scratch) {
  TSW_DCHECK(scratch != nullptr);
  const std::size_t len = candidate.size();
  if (len > env.reach()) return kInfinity;  // Beyond banded reach.
  const simd::KernelTable& k = simd::Kernels();
  // Pass 1: LB_Keogh, recording the projection h(S) = clamp(S, envelope)
  // (no early abandon here so the projection is complete; the per-element
  // work is the same).
  simd::AlignedVector& h = scratch->projection;
  h.resize(len);
  Value sum =
      env.unconstrained()
          ? k.lb_improved_pass1_const(candidate.data(), env.LowerAt(0),
                                      env.UpperAt(0), h.data(), len)
          : k.lb_improved_pass1(candidate.data(), env.lower().data(),
                                env.upper().data(), h.data(), len);
  if (sum > abandon_above) return sum;

  // Pass 2: each query element must align with some h-reachable data
  // element, so its distance to the envelope of h(S) adds to the bound
  // (the two terms count disjoint path-cost shares). The kernel's abandon
  // cap is the remaining budget; the returned partial is added back onto
  // pass 1's sum, which keeps the result a valid lower bound either way.
  if (env.unconstrained()) {
    const auto [lo, hi] = std::minmax_element(h.begin(), h.end());
    return sum + k.lb_keogh_const(query.data(), *lo, *hi, query.size(),
                                  abandon_above - sum);
  }
  // Query index i reaches data offsets [i - band, i + band]: a query
  // longer than the projection's reach, len + band, admits no legal banded
  // path at all. Otherwise pass 2 reads the projection's envelope at the
  // |Q| <= len + band query offsets only.
  if (query.size() > len + env.band()) return kInfinity;
  BandedExtrema(h, env.band(), query.size(), &scratch->proj_lower,
                &scratch->proj_upper, &scratch->extrema_work);
  return sum + k.lb_keogh(query.data(), scratch->proj_lower.data(),
                          scratch->proj_upper.data(), query.size(),
                          abandon_above - sum);
}

std::size_t DtwPrefixesWithinThreshold(std::span<const Value> query,
                                       std::span<const Value> candidate,
                                       std::span<const Pos> lengths,
                                       const QueryEnvelope* env, Pos band,
                                       Value epsilon,
                                       std::span<Value> distances,
                                       EnvelopeScratch* scratch) {
  TSW_CHECK(!query.empty() && !lengths.empty());
  TSW_DCHECK(scratch != nullptr && distances.size() == lengths.size());
  TSW_DCHECK(lengths.front() >= 1 && lengths.back() <= candidate.size());
  TSW_DCHECK(env == nullptr || env->band() == band);
  const Value cut = LbPruneThreshold(epsilon);
  // pre[y] bounds the cost the path pays for data rows 1..y.
  simd::AlignedVector& pre = scratch->prefix_lb;
  pre.assign(lengths.back() + 1, 0.0);
  std::size_t live = lengths.size();  // Lengths LB_Keogh admits: a prefix.
  if (env != nullptr) {
    std::size_t y = 0;
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      for (; y < lengths[i]; ++y) {
        pre[y + 1] = pre[y] + env->ElementLb(y, candidate[y]);
      }
      if (pre[y] > cut) {
        live = i;
        break;
      }
    }
  }
  std::fill(distances.begin(), distances.end(), kInfinity);
  if (live == 0) return lengths.size();

  std::unique_ptr<WarpingTable>& table = scratch->table;
  if (table == nullptr || table->query_length() != query.size() ||
      table->band() != band) {
    table = std::make_unique<WarpingTable>(query.size(), band,
                                           lengths[live - 1]);
  }
  table->Reset();
  table->BindQuery(query);
  std::size_t next = 0;  // Next length to read off the table.
  for (std::size_t y = 1; next < live; ++y) {
    table->PushRowValue(candidate[y - 1]);
    for (; next < live && lengths[next] == y; ++next) {
      distances[next] = table->LastColumn();
    }
    if (next < live && table->RowMin() + (pre[lengths[next]] - pre[y]) > cut) {
      break;
    }
  }
  return lengths.size() - live;
}

}  // namespace tswarp::dtw
