#include "dtw/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "dtw/simd_internal.h"

namespace tswarp::dtw::simd {

// The AVX2 table. simd_avx2.cc compiles unconditionally and returns
// nullptr when the compiler cannot target AVX2, which keeps every
// #ifdef __AVX2__ inside src/dtw/simd* — CI greps for leaks.
const KernelTable* Avx2Kernels();  // simd_avx2.cc

namespace {

namespace in = internal;

Value ScalarRowStepValue(const Value* q, Value v, const Value* prev,
                         Value* row, std::size_t n, Value left) {
  return in::RowStepGeneric(
      [q, v](std::size_t i) { return in::AbsDiff(q[i], v); }, prev, row, n,
      left);
}

Value ScalarRowStepInterval(const Value* q, Value lb, Value ub,
                            const Value* prev, Value* row, std::size_t n,
                            Value left) {
  return in::RowStepGeneric(
      [q, lb, ub](std::size_t i) { return in::IntervalDist(q[i], lb, ub); },
      prev, row, n, left);
}

Value ScalarRowStepBase(const Value* base, const Value* prev, Value* row,
                        std::size_t n, Value left) {
  return in::RowStepGeneric([base](std::size_t i) { return base[i]; }, prev,
                            row, n, left);
}

Value ScalarLbKeogh(const Value* v, const Value* lo, const Value* up,
                    std::size_t n, Value cap) {
  return in::StripedSum(
      n,
      [v, lo, up](std::size_t i) {
        return in::IntervalDist(v[i], lo[i], up[i]);
      },
      cap);
}

Value ScalarLbKeoghConst(const Value* v, Value lo, Value up, std::size_t n,
                         Value cap) {
  return in::StripedSum(
      n, [v, lo, up](std::size_t i) { return in::IntervalDist(v[i], lo, up); },
      cap);
}

Value ScalarLbImprovedPass1(const Value* v, const Value* lo, const Value* up,
                            Value* proj, std::size_t n) {
  return in::StripedSum(
      n,
      [v, lo, up, proj](std::size_t i) {
        const Value x = v[i];
        proj[i] = in::MinPd(in::MaxPd(x, lo[i]), up[i]);
        return in::IntervalDist(x, lo[i], up[i]);
      },
      kInfinity);
}

Value ScalarLbImprovedPass1Const(const Value* v, Value lo, Value up,
                                 Value* proj, std::size_t n) {
  return in::StripedSum(
      n,
      [v, lo, up, proj](std::size_t i) {
        const Value x = v[i];
        proj[i] = in::MinPd(in::MaxPd(x, lo), up);
        return in::IntervalDist(x, lo, up);
      },
      kInfinity);
}

Value ScalarSummaryLb(const Value* q, const Value* lo, const Value* hi,
                      std::size_t num_intervals, std::size_t n, Value cap) {
  return in::StripedSum(
      n,
      [q, lo, hi, num_intervals](std::size_t i) {
        Value d = in::IntervalDist(q[i], lo[0], hi[0]);
        for (std::size_t k = 1; k < num_intervals; ++k) {
          d = in::MinPd(d, in::IntervalDist(q[i], lo[k], hi[k]));
        }
        return d;
      },
      cap);
}

constexpr KernelTable kScalarTable = {
    "scalar",
    ScalarRowStepValue,
    ScalarRowStepInterval,
    ScalarRowStepBase,
    ScalarLbKeogh,
    ScalarLbKeoghConst,
    ScalarLbImprovedPass1,
    ScalarLbImprovedPass1Const,
    ScalarSummaryLb,
};

// The runtime CPU feature check lives here, in a TU compiled WITHOUT any
// extra ISA flags, so no vector instruction can execute before it passes.
// Avx2Kernels() only reports compile-time availability.
#if defined(__x86_64__) || defined(__i386__)
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
#else
bool CpuHasAvx2() { return false; }
#endif

/// Candidates in dispatch order (best first). A backend is usable iff the
/// CPU supports it at run time AND the build compiled it (get() non-null).
struct Candidate {
  const char* name;
  bool (*supported)();
  const KernelTable* (*get)();
};
constexpr Candidate kCandidates[] = {
    {"avx2", CpuHasAvx2, Avx2Kernels},
    {"scalar", [] { return true; }, [] { return &kScalarTable; }},
};

const KernelTable* Resolve(const Candidate& c) {
  return c.supported() ? c.get() : nullptr;
}

const KernelTable* ResolveAuto() {
  for (const Candidate& c : kCandidates) {
    if (const KernelTable* t = Resolve(c)) return t;
  }
  return &kScalarTable;  // Unreachable: scalar always resolves.
}

const KernelTable* ResolveNamed(std::string_view name) {
  if (name == "auto") return ResolveAuto();
  for (const Candidate& c : kCandidates) {
    if (name == c.name) return Resolve(c);
  }
  return nullptr;
}

std::atomic<const KernelTable*> g_active{nullptr};
std::once_flag g_init_once;

void InitOnce() {
  std::call_once(g_init_once, [] {
    // An explicit SetBackend() before first use already installed a table.
    if (g_active.load(std::memory_order_acquire) != nullptr) return;
    const KernelTable* table = nullptr;
    if (const char* env = std::getenv("TSWARP_SIMD")) {
      table = ResolveNamed(env);
      if (table == nullptr) {
        std::fprintf(stderr,
                     "tswarp: TSWARP_SIMD=%s is unknown or unsupported on "
                     "this CPU; falling back to auto dispatch\n",
                     env);
      }
    }
    if (table == nullptr) table = ResolveAuto();
    g_active.store(table, std::memory_order_release);
  });
}

}  // namespace

const KernelTable& Kernels() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  InitOnce();
  return *g_active.load(std::memory_order_acquire);
}

bool SetBackend(std::string_view name) {
  const KernelTable* table = ResolveNamed(name);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

const char* ActiveBackend() { return Kernels().name; }

std::vector<std::string> AvailableBackends() {
  std::vector<std::string> out;
  for (const Candidate& c : kCandidates) {
    if (Resolve(c) != nullptr) out.emplace_back(c.name);
  }
  return out;
}

}  // namespace tswarp::dtw::simd
