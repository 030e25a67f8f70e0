// Cross-backend tests for the SIMD kernel layer (src/dtw/simd.h): every
// backend the machine can run must produce BITWISE identical results to
// the scalar backend on every kernel in the table, including the
// +infinity patterns the warping table feeds them (band fills, column-0
// sentinels, infinite carry-ins). Bitwise — not approximate — equality is
// the contract that makes match sets and stats machine-independent; see
// the canonical-dataflow note in simd.h.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "dtw/envelope.h"
#include "dtw/simd.h"

namespace tswarp::dtw::simd {
namespace {

/// Bit-pattern equality: distinguishes +0/-0 and would catch a backend
/// producing a NaN with a different payload.
testing::AssertionResult BitEqual(Value a, Value b) {
  const auto ab = std::bit_cast<std::uint64_t>(a);
  const auto bb = std::bit_cast<std::uint64_t>(b);
  if (ab == bb) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << a << " (0x" << std::hex << ab << ") vs " << b << " (0x" << bb
         << ")";
}

testing::AssertionResult BitEqualRows(const std::vector<Value>& a,
                                      const std::vector<Value>& b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (auto r = BitEqual(a[i], b[i]); !r) {
      return testing::AssertionFailure() << "at " << i << ": " << r.message();
    }
  }
  return testing::AssertionSuccess();
}

/// Random values with the shapes the search actually produces: finite
/// cells, +infinity band fills, and exact ties (small-integer grid so
/// min() sees equal operands, exercising the minpd operand-order rule).
class ValueGen {
 public:
  explicit ValueGen(std::uint32_t seed) : rng_(seed) {}

  Value Finite() {
    return std::uniform_real_distribution<Value>(-50.0, 50.0)(rng_);
  }

  /// ~1/8 +infinity, ~1/4 small integer (tie-prone), else uniform.
  Value Cell() {
    const int kind = std::uniform_int_distribution<int>(0, 7)(rng_);
    if (kind == 0) return kInfinity;
    if (kind <= 2) {
      return static_cast<Value>(std::uniform_int_distribution<int>(-3, 3)(rng_));
    }
    return Finite();
  }

  std::vector<Value> Row(std::size_t n, bool allow_inf) {
    std::vector<Value> out(n);
    for (Value& v : out) v = allow_inf ? Cell() : Finite();
    return out;
  }

  std::mt19937& rng() { return rng_; }

 private:
  std::mt19937 rng_;
};

/// Runs `fn` once per non-scalar available backend with that backend
/// active, handing it the scalar result of `scalar_fn` for comparison.
/// Restores the previously active backend afterwards.
class SimdTest : public testing::Test {
 protected:
  void SetUp() override { saved_ = ActiveBackend(); }
  void TearDown() override { ASSERT_TRUE(SetBackend(saved_)); }

  template <typename Fn>
  void ForEachBackend(Fn fn) {
    for (const std::string& name : AvailableBackends()) {
      ASSERT_TRUE(SetBackend(name));
      ASSERT_STREQ(Kernels().name, name.c_str());
      fn(name);
    }
  }

  std::string saved_;
};

TEST_F(SimdTest, AvailableBackendsEndsWithScalar) {
  const std::vector<std::string> backends = AvailableBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back(), "scalar");
  for (const std::string& name : backends) {
    EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
  }
}

TEST_F(SimdTest, SetBackendRejectsUnknownNamesAndKeepsActive) {
  const std::string before = ActiveBackend();
  EXPECT_FALSE(SetBackend("bogus"));
  EXPECT_FALSE(SetBackend(""));
  // Backends that no longer exist are unknown names like any other.
  EXPECT_FALSE(SetBackend("sse2"));
  EXPECT_FALSE(SetBackend("neon"));
  EXPECT_STREQ(ActiveBackend(), before.c_str());
  EXPECT_TRUE(SetBackend("auto"));
  EXPECT_TRUE(SetBackend("scalar"));
  EXPECT_STREQ(ActiveBackend(), "scalar");
}

TEST_F(SimdTest, RowStepKernelsMatchScalarBitwise) {
  ASSERT_TRUE(SetBackend("scalar"));
  const KernelTable scalar = Kernels();
  ValueGen gen(20260806);
  for (std::size_t n = 0; n <= 33; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<Value> q = gen.Row(n, /*allow_inf=*/false);
      // prev has one extra leading cell: kernels read prev[-1].
      const std::vector<Value> prev = gen.Row(n + 1, /*allow_inf=*/true);
      const std::vector<Value> base = gen.Row(n, /*allow_inf=*/false);
      const Value v = gen.Finite();
      Value lb = gen.Finite(), ub = gen.Finite();
      if (lb > ub) std::swap(lb, ub);
      const Value left = rep % 3 == 0 ? kInfinity : gen.Cell();

      std::vector<Value> want_row(n), got_row(n);
      const Value want_value = scalar.row_step_value(
          q.data(), v, prev.data() + 1, want_row.data(), n, left);
      const std::vector<Value> want_value_row = want_row;
      const Value want_interval = scalar.row_step_interval(
          q.data(), lb, ub, prev.data() + 1, want_row.data(), n, left);
      const std::vector<Value> want_interval_row = want_row;
      const Value want_base = scalar.row_step_base(
          base.data(), prev.data() + 1, want_row.data(), n, left);
      const std::vector<Value> want_base_row = want_row;

      ForEachBackend([&](const std::string& name) {
        SCOPED_TRACE(name + " n=" + std::to_string(n));
        const KernelTable& k = Kernels();
        EXPECT_TRUE(BitEqual(want_value,
                             k.row_step_value(q.data(), v, prev.data() + 1,
                                              got_row.data(), n, left)));
        EXPECT_TRUE(BitEqualRows(want_value_row, got_row));
        EXPECT_TRUE(BitEqual(
            want_interval,
            k.row_step_interval(q.data(), lb, ub, prev.data() + 1,
                                got_row.data(), n, left)));
        EXPECT_TRUE(BitEqualRows(want_interval_row, got_row));
        EXPECT_TRUE(BitEqual(want_base,
                             k.row_step_base(base.data(), prev.data() + 1,
                                             got_row.data(), n, left)));
        EXPECT_TRUE(BitEqualRows(want_base_row, got_row));
      });
    }
  }
}

TEST_F(SimdTest, LowerBoundKernelsMatchScalarBitwise) {
  ASSERT_TRUE(SetBackend("scalar"));
  const KernelTable scalar = Kernels();
  ValueGen gen(4242);
  // Lengths straddling the kLbBlock abandon boundary as well as the
  // stripe width.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{17}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{130}}) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<Value> v = gen.Row(n, /*allow_inf=*/false);
      std::vector<Value> lo = gen.Row(n, /*allow_inf=*/false);
      std::vector<Value> up = lo;
      for (std::size_t i = 0; i < n; ++i) up[i] += std::abs(gen.Finite());
      Value clo = gen.Finite(), cup = gen.Finite();
      if (clo > cup) std::swap(clo, cup);
      // Small caps exercise the early abandon; infinity never abandons.
      const Value cap = rep % 3 == 0 ? kInfinity : std::abs(gen.Finite());

      std::vector<Value> want_proj(n), got_proj(n);
      const Value want_keogh =
          scalar.lb_keogh(v.data(), lo.data(), up.data(), n, cap);
      const Value want_keogh_const =
          scalar.lb_keogh_const(v.data(), clo, cup, n, cap);
      const Value want_p1 = scalar.lb_improved_pass1(
          v.data(), lo.data(), up.data(), want_proj.data(), n);
      const std::vector<Value> want_p1_proj = want_proj;
      const Value want_p1_const = scalar.lb_improved_pass1_const(
          v.data(), clo, cup, want_proj.data(), n);
      const std::vector<Value> want_p1c_proj = want_proj;

      ForEachBackend([&](const std::string& name) {
        SCOPED_TRACE(name + " n=" + std::to_string(n));
        const KernelTable& k = Kernels();
        EXPECT_TRUE(BitEqual(
            want_keogh, k.lb_keogh(v.data(), lo.data(), up.data(), n, cap)));
        EXPECT_TRUE(BitEqual(want_keogh_const,
                             k.lb_keogh_const(v.data(), clo, cup, n, cap)));
        EXPECT_TRUE(
            BitEqual(want_p1, k.lb_improved_pass1(v.data(), lo.data(),
                                                  up.data(), got_proj.data(),
                                                  n)));
        EXPECT_TRUE(BitEqualRows(want_p1_proj, got_proj));
        EXPECT_TRUE(BitEqual(want_p1_const,
                             k.lb_improved_pass1_const(
                                 v.data(), clo, cup, got_proj.data(), n)));
        EXPECT_TRUE(BitEqualRows(want_p1c_proj, got_proj));
      });
    }
  }
}

TEST_F(SimdTest, BandedExtremaMatchesNaiveWindowAndScalarBitwise) {
  // The banded extrema are plain loops in envelope.cc, not a table kernel;
  // the query envelope they build must still be the naive window's exact
  // selection and must not change with the active backend.
  ValueGen gen(6174);
  for (const Pos band : {Pos{1}, Pos{2}, Pos{3}, Pos{5}, Pos{9}}) {
    for (std::size_t n = 1; n <= 40; ++n) {
      const std::vector<Value> seq = gen.Row(n, /*allow_inf=*/true);
      const std::size_t reach = n + band;
      ASSERT_TRUE(SetBackend("scalar"));
      const QueryEnvelope scalar_env(seq, band);
      ASSERT_EQ(scalar_env.reach(), reach);
      const std::vector<Value> want_lo(scalar_env.lower().begin(),
                                       scalar_env.lower().end());
      const std::vector<Value> want_up(scalar_env.upper().begin(),
                                       scalar_env.upper().end());
      // The outputs are selections of input values, so the naive window
      // scan must agree exactly, ties included (the fuzz never produces
      // distinct tied bit patterns such as +0 vs -0).
      for (std::size_t j = 0; j < reach; ++j) {
        const std::size_t lo = j > band ? j - band : 0;
        const std::size_t hi = std::min<std::size_t>(j + band, n - 1);
        Value mn = kInfinity, mx = -kInfinity;
        for (std::size_t i = lo; i <= hi; ++i) {
          mn = seq[i] < mn ? seq[i] : mn;
          mx = seq[i] > mx ? seq[i] : mx;
        }
        SCOPED_TRACE("band=" + std::to_string(band) +
                     " n=" + std::to_string(n) + " j=" + std::to_string(j));
        EXPECT_TRUE(BitEqual(mn, want_lo[j]));
        EXPECT_TRUE(BitEqual(mx, want_up[j]));
      }
      ForEachBackend([&](const std::string& name) {
        SCOPED_TRACE(name + " band=" + std::to_string(band) +
                     " n=" + std::to_string(n));
        const QueryEnvelope env(seq, band);
        const std::vector<Value> got_lo(env.lower().begin(),
                                        env.lower().end());
        const std::vector<Value> got_up(env.upper().begin(),
                                        env.upper().end());
        EXPECT_TRUE(BitEqualRows(want_lo, got_lo));
        EXPECT_TRUE(BitEqualRows(want_up, got_up));
      });
    }
  }
}

}  // namespace
}  // namespace tswarp::dtw::simd
