#ifndef ODYSSEY_INDEX_APPROX_SEARCH_H_
#define ODYSSEY_INDEX_APPROX_SEARCH_H_

#include <cstdint>

#include "src/index/builder.h"
#include "src/query/prepared_query.h"

namespace odyssey {

/// Approximate search: descends the index tree to the single leaf whose
/// iSAX word best matches the query and returns the minimum real distance
/// inside it. The result initializes the query's best-so-far (BSF) — the
/// quantity the paper's scheduler predicts execution time from (Figure 4).
///
/// All entry points take a PreparedQuery, so the query's PAA and SAX word
/// are computed once per batch (not once per descent): the driver's
/// scheduling estimates, every replica's BSF seeding and the baselines all
/// share the same prepared artifact.
///
/// Returns the squared Euclidean distance of the approximate answer, and
/// the matching row of index.data() via `*answer_id` (optional). The index
/// must be non-empty.
float ApproximateSearchSquared(const Index& index, const PreparedQuery& query,
                               uint32_t* answer_id = nullptr);

/// DTW variant: identical descent, but real distances are squared DTW with
/// the query's warping window. The query must be prepared with an envelope.
float ApproximateSearchSquaredDtw(const Index& index,
                                  const PreparedQuery& query,
                                  uint32_t* answer_id = nullptr);

/// The leaf an approximate search would scan: the non-empty leaf whose iSAX
/// word best matches the query. Exposed so the approximate query mode (the
/// paper's future-work extension) can report the whole leaf's k best
/// candidates instead of a single distance.
const TreeNode* ApproximateSearchLeaf(const Index& index,
                                      const PreparedQuery& query);

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_APPROX_SEARCH_H_
