#ifndef TSWARP_CORE_DISTANCE_MODELS_H_
#define TSWARP_CORE_DISTANCE_MODELS_H_

#include <span>
#include <vector>

#include "categorize/alphabet.h"
#include "common/types.h"
#include "core/match.h"
#include "dtw/base.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/warping_table.h"
#include "seqdb/sequence_database.h"
#include "suffixtree/tree_view.h"

namespace tswarp::core {

/// The three univariate distance models of the paper, plugged into
/// core::SearchDriver (see search_driver.h for the concept):
///
///   SimSearch-ST     ExactModel           rows are exact D_tw
///   SimSearch-ST_C   CategoryModel        D_tw-lb interval rows (Def. 3)
///   SimSearch-SST_C  SparseCategoryModel  + D_tw-lb2 recovery  (Def. 4)
///
/// The multivariate grid-cell model (Section 8) lives with its index in
/// src/multivariate.

/// Exact symbol values (dictionary tree): every row is built from the
/// decoded element value, so LastColumn() is already the exact D_tw and
/// matches need no verification pass.
class ExactModel {
 public:
  static constexpr bool kExactRows = true;
  static constexpr bool kSupportsSummaries = true;

  ExactModel(std::span<const Value> query,
             const std::vector<Value>* symbol_values)
      : query_(query), symbol_values_(symbol_values) {}

  Value FirstRowLb(Symbol) const { return 0.0; }

  /// Value hull of one symbol, the unit the node-summary hulls aggregate:
  /// a dictionary symbol stands for exactly one value.
  dtw::Interval SymbolHull(Symbol s) const {
    const Value v = (*symbol_values_)[static_cast<std::size_t>(s)];
    return {v, v};
  }

  /// The driver binds the query span to the table (DriverConfig::query),
  /// so the typed SIMD row step applies directly.
  void RowStep(dtw::WarpingTable* table, Symbol s) const {
    table->PushRowValue((*symbol_values_)[static_cast<std::size_t>(s)]);
  }

  // Never called: exact trees are dense and emit without verification.
  Value OccurrenceFirstLb(const suffixtree::OccurrenceRec&) const {
    return 0.0;
  }
  template <typename Report>
  void VerifyStart(SeqId, Pos, std::span<const Pos>, Value, SearchStats*,
                   Report&&) {}

 private:
  std::span<const Value> query_;
  const std::vector<Value>* symbol_values_;
};

/// Category intervals (D_tw-lb, Definition 3): rows are interval lower
/// bounds, so every emission is a candidate verified against the raw
/// sequences. The candidates of one start are verified together, behind a
/// cascade of ever-more-expensive screens — the O(1) endpoint screen per
/// length, LB_Keogh of every length from one O(len) pass of prefix sums
/// (when the envelope is active), then one exact table pushed up to the
/// longest surviving length (itself abandoning early on the prefix lower
/// bound). Every screen is a true lower bound, so no candidate within
/// epsilon is ever dismissed.
class CategoryModel {
 public:
  static constexpr bool kExactRows = false;
  static constexpr bool kSupportsSummaries = true;

  /// `envelope` may be null (cascade disabled, the ablation setting).
  CategoryModel(std::span<const Value> query,
                const categorize::Alphabet* alphabet,
                const seqdb::SequenceDatabase* db,
                const dtw::QueryEnvelope* envelope, Pos band)
      : query_(query),
        alphabet_(alphabet),
        db_(db),
        envelope_(envelope),
        band_(band) {}

  Value FirstRowLb(Symbol s) const {
    const dtw::Interval iv = alphabet_->ToInterval(s);
    return dtw::BaseDistanceLb(query_.front(), iv.lb, iv.ub);
  }

  void RowStep(dtw::WarpingTable* table, Symbol s) const {
    const dtw::Interval iv = alphabet_->ToInterval(s);
    table->PushRowInterval(iv.lb, iv.ub);
  }

  /// Value hull of one symbol: the fitted category interval contains
  /// every raw element value the category stands for (the same
  /// containment RowStep's interval rows rely on).
  dtw::Interval SymbolHull(Symbol s) const { return alphabet_->ToInterval(s); }

  Value OccurrenceFirstLb(const suffixtree::OccurrenceRec& occ) const {
    // The leading symbol of the stored suffix is the path's first symbol;
    // recompute from the raw value's category for robustness.
    const Value v = db_->sequence(occ.seq)[occ.pos];
    const dtw::Interval iv = alphabet_->ToInterval(alphabet_->ToSymbol(v));
    return dtw::BaseDistanceLb(query_.front(), iv.lb, iv.ub);
  }

  /// Verifies the ascending candidate lengths `lens` of the subsequence
  /// start (seq, start) and calls report(len, distance) for each length
  /// within eps. Counters count lengths: each is an endpoint rejection, or
  /// an LB_Keogh invocation (when the envelope is active) that is pruned
  /// or handed to the shared table (exact_dtw_calls).
  template <typename Report>
  void VerifyStart(SeqId seq, Pos start, std::span<const Pos> lens, Value eps,
                   SearchStats* stats, Report&& report) {
    const std::span<const Value> sub =
        db_->Subsequence(seq, start, lens.back());
    // Screens compare against the slackened threshold so reassociation
    // drift between a bound and the exact kernel cannot dismiss a
    // boundary candidate (see dtw::LbPruneThreshold).
    const Value cut = dtw::LbPruneThreshold(eps);
    kept_.clear();
    for (const Pos len : lens) {
      // O(1) endpoint screen before any O(len) work.
      if (dtw::EndpointLowerBound(query_, sub.first(len)) > cut) {
        ++stats->endpoint_rejections;
        continue;
      }
      kept_.push_back(len);
    }
    if (kept_.empty()) return;
    distances_.resize(kept_.size());
    const std::size_t lb_pruned = dtw::DtwPrefixesWithinThreshold(
        query_, sub, kept_, envelope_, band_, eps, distances_, &lb_scratch_);
    if (envelope_ != nullptr) {
      stats->lb_invocations += kept_.size();
      stats->lb_pruned += lb_pruned;
    }
    stats->exact_dtw_calls += kept_.size() - lb_pruned;
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      if (distances_[i] <= eps) report(kept_[i], distances_[i]);
    }
  }

 private:
  std::span<const Value> query_;
  const categorize::Alphabet* alphabet_;
  const seqdb::SequenceDatabase* db_;
  const dtw::QueryEnvelope* envelope_;
  Pos band_;
  // Worker-private scratch (models are copied per worker).
  dtw::EnvelopeScratch lb_scratch_;
  std::vector<Pos> kept_;          // Lengths past the endpoint screen.
  std::vector<Value> distances_;   // Their table readings.
};

/// Sparse categorized trees (D_tw-lb2, Definition 4): the per-row rule is
/// CategoryModel's, and OccurrenceFirstLb feeds the driver's recovery of
/// non-stored suffixes plus the (MaxRun-1) * FirstRowLb pruning discount.
/// A distinct instantiation so the sparse search is its own kernel
/// specialization, selected together with DriverConfig::sparse = true.
class SparseCategoryModel : public CategoryModel {
 public:
  using CategoryModel::CategoryModel;
};

}  // namespace tswarp::core

#endif  // TSWARP_CORE_DISTANCE_MODELS_H_
