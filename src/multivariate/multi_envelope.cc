#include "multivariate/multi_envelope.h"

#include "common/logging.h"
#include "dtw/simd.h"

namespace tswarp::mv {

MultiQueryEnvelope::MultiQueryEnvelope(std::span<const Value> query,
                                       std::size_t query_len,
                                       std::size_t dim, Pos band)
    : band_(band) {
  TSW_CHECK(query_len > 0 && dim > 0);
  TSW_CHECK(query.size() == query_len * dim);
  dims_.reserve(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    dtw::simd::AlignedVector projection(query_len);
    for (std::size_t i = 0; i < query_len; ++i) {
      projection[i] = query[i * dim + d];
    }
    dtw::QueryEnvelope envelope(projection, band);
    dims_.push_back(Dimension{std::move(projection), std::move(envelope)});
  }
}

Value MultiLbImproved(const MultiQueryEnvelope& env,
                      std::span<const Value> candidate, std::size_t len,
                      Value abandon_above, MultiEnvelopeScratch* scratch) {
  const std::size_t dim = env.dim();
  TSW_DCHECK(candidate.size() == len * dim);
  scratch->candidate_dim.resize(len);
  Value sum = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    // Gather dimension d of the interleaved candidate.
    for (std::size_t i = 0; i < len; ++i) {
      scratch->candidate_dim[i] = candidate[i * dim + d];
    }
    // Remaining dimensions only add cost, so each per-dimension pass may
    // abandon against the budget left after the ones already summed.
    sum += dtw::LbImproved(env.envelope(d), env.query_dim(d),
                           scratch->candidate_dim, abandon_above - sum,
                           &scratch->env_scratch);
    if (sum > abandon_above) return sum;
  }
  return sum;
}

}  // namespace tswarp::mv
