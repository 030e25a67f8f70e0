#ifndef TSWARP_MULTIVARIATE_GRID_MODEL_H_
#define TSWARP_MULTIVARIATE_GRID_MODEL_H_

#include <span>

#include "common/types.h"
#include "core/match.h"
#include "dtw/warping_table.h"
#include "multivariate/grid_alphabet.h"
#include "multivariate/multi_database.h"
#include "multivariate/multi_dtw.h"
#include "multivariate/multi_envelope.h"
#include "suffixtree/tree_view.h"

namespace tswarp::mv {

/// The multivariate distance model for core::SearchDriver (paper Section 8):
/// rows are grid-cell lower bounds on the city-block base distance, so every
/// emission is a candidate verified with exact multivariate DTW behind an
/// endpoint screen and the per-dimension envelope cascade (see
/// multi_envelope.h). The fourth instantiation of the driver, next to
/// core::{ExactModel, CategoryModel, SparseCategoryModel}.
class GridCellModel {
 public:
  static constexpr bool kExactRows = false;
  // Node summaries describe scalar value hulls; grid cells are
  // d-dimensional, so the multivariate index never builds them.
  static constexpr bool kSupportsSummaries = false;

  /// `envelope` may be null (cascade disabled, the ablation setting). All
  /// pointers must outlive the model.
  GridCellModel(const MultiSequenceDatabase* db, const GridAlphabet* grid,
                std::span<const Value> query, std::size_t query_len,
                const MultiQueryEnvelope* envelope, Pos band)
      : db_(db),
        grid_(grid),
        query_(query),
        query_len_(query_len),
        envelope_(envelope),
        band_(band) {}

  Value FirstRowLb(Symbol s) const {
    return grid_->CellLowerBound(QueryElement(0), s);
  }

  void RowStep(dtw::WarpingTable* table, Symbol s) const {
    table->PushRowCustom([this, s](std::size_t x) {
      return grid_->CellLowerBound(QueryElement(x), s);
    });
  }

  Value OccurrenceFirstLb(const suffixtree::OccurrenceRec& occ) const {
    const Symbol cell = grid_->ToSymbol(db_->Element(occ.seq, occ.pos));
    return grid_->CellLowerBound(QueryElement(0), cell);
  }

  /// Verifies the ascending candidate lengths `lens` of the start
  /// (seq, start) one at a time through the per-length cascade, calling
  /// report(len, distance) for each length within eps.
  template <typename Report>
  void VerifyStart(SeqId seq, Pos start, std::span<const Pos> lens, Value eps,
                   core::SearchStats* stats, Report&& report) {
    for (const Pos len : lens) {
      Value d = 0.0;
      if (VerifyLength(seq, start, len, eps, stats, &d)) report(len, d);
    }
  }

 private:
  bool VerifyLength(SeqId seq, Pos start, Pos len, Value eps,
                    core::SearchStats* stats, Value* distance) {
    // O(dim) endpoint screen (first and last elements must align).
    Value endpoint_lb =
        MultiBaseDistance(QueryElement(0), db_->Element(seq, start));
    if (query_len_ > 1 || len > 1) {
      endpoint_lb += MultiBaseDistance(QueryElement(query_len_ - 1),
                                       db_->Element(seq, start + len - 1));
    }
    if (endpoint_lb > eps) {
      ++stats->endpoint_rejections;
      return false;
    }
    const std::span<const Value> slice = db_->Slice(seq, start, len);
    if (envelope_ != nullptr) {
      ++stats->lb_invocations;
      if (MultiLbImproved(*envelope_, slice, len, eps, &lb_scratch_) > eps) {
        ++stats->lb_pruned;
        return false;
      }
    }
    ++stats->exact_dtw_calls;
    return MultiDtwWithinThreshold(query_, query_len_, slice, len,
                                   db_->dim(), eps, distance, band_);
  }

  std::span<const Value> QueryElement(std::size_t x) const {
    return std::span<const Value>(query_.data() + x * db_->dim(),
                                  db_->dim());
  }

  const MultiSequenceDatabase* db_;
  const GridAlphabet* grid_;
  std::span<const Value> query_;
  std::size_t query_len_;
  const MultiQueryEnvelope* envelope_;
  Pos band_;
  MultiEnvelopeScratch lb_scratch_;  // Worker-private (models are copied).
};

}  // namespace tswarp::mv

#endif  // TSWARP_MULTIVARIATE_GRID_MODEL_H_
