// Per-dependency-class column generators.
//
// Each function produces the synthetic column for one target attribute,
// given the already-generated LHS column(s) and the disclosed metadata.
// They implement the generation processes the paper analyzes:
//
//   Root (names+domains only): i.i.d. uniform draws from the domain
//     (Section III-A, "random generation from a uniform distribution").
//   FD: one-time random mapping from each distinct LHS value to a domain
//     value of the RHS (Section III-B, "one-time initialization
//     throughout the dataset").
//   AFD: the FD process, with a g3 fraction of rows re-drawn
//     independently (Section IV-A).
//   ND: per distinct LHS value, a pool of K RHS values sampled without
//     replacement (the hyper-geometric selection of Section IV-B); each
//     row draws from its pool.
//   OD: distinct LHS values sorted; RHS values assigned from sorted
//     order statistics over the RHS domain, preserving order
//     (the interval partitioning of Section IV-C).
//   DD: a Markov interval process along the LHS ordering: proximal LHS
//     values constrain the next RHS draw to a delta-ball around the
//     previous one (Section IV-D).
//   OFD: a strictly monotone one-dimensional random walk over the RHS
//     domain (Section IV-E).
//
// All functions assume uniform distributions — the paper's fundamental
// assumption that value distributions are not disclosed. Their RNG draw
// order is part of the contract: the boxed-Value reference the
// golden-parity tests keep consumes the RNG identically.
#ifndef METALEAK_GENERATION_COLUMN_GENERATORS_H_
#define METALEAK_GENERATION_COLUMN_GENERATORS_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/domain.h"
#include "data/encoded_batch.h"

namespace metaleak {

/// Every generator emits dense domain codes (categorical domains: code
/// i+1 means domain.values()[i], code 0 is NULL) or raw doubles
/// (continuous domains) straight into an EncodedBatch column. The batch
/// must be Configure()d with ColumnKindsForDomains of the generation
/// domains and ResetRows() to `num_rows` before any generator runs; LHS
/// columns are read back out of the same batch by index. Internal
/// scratch (rank maps, group ids, ND pools) is thread-local and reused
/// across calls, which is what makes the Monte-Carlo loop
/// allocation-free after the first round on each worker thread.

/// Root: i.i.d. uniform draws from the domain.
void GenerateRootColumnEncoded(const Domain& domain, size_t num_rows,
                               Rng* rng, EncodedBatch* batch,
                               size_t target);

/// FD: one lazily-sampled target per distinct LHS group (empty
/// `lhs_columns` models the constant FD {} -> A).
void GenerateFdColumnEncoded(const std::vector<size_t>& lhs_columns,
                             const Domain& domain, size_t num_rows,
                             Rng* rng, EncodedBatch* batch, size_t target);

/// AFD: the FD process + a g3 fraction of rows re-drawn independently.
void GenerateAfdColumnEncoded(const std::vector<size_t>& lhs_columns,
                              const Domain& domain, size_t num_rows,
                              double g3_error, Rng* rng,
                              EncodedBatch* batch, size_t target);

/// ND: per distinct LHS value a pool of up to `max_fanout` values.
void GenerateNdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, size_t max_fanout, Rng* rng,
                             EncodedBatch* batch, size_t target);

/// OD: distinct LHS ranks mapped to non-decreasing order statistics.
void GenerateOdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, Rng* rng, EncodedBatch* batch,
                             size_t target);

/// OFD: like OD but strictly increasing where the domain permits.
void GenerateOfdColumnEncoded(size_t lhs_column, const Domain& domain,
                              size_t num_rows, Rng* rng,
                              EncodedBatch* batch, size_t target);

/// DD: Markov interval process. `lhs_code_numeric` is the per-code
/// numeric view of the LHS column's domain (code -> AsNumeric, 0.0 for
/// non-numeric entries) when the LHS is code-stored; unused for a
/// real-stored LHS. TypeError for a categorical target domain (the
/// engine draws such a column from its domain instead).
Status GenerateDdColumnEncoded(size_t lhs_column, const Domain& domain,
                               const std::vector<double>& lhs_code_numeric,
                               size_t num_rows, double lhs_epsilon,
                               double rhs_delta, Rng* rng,
                               EncodedBatch* batch, size_t target);

}  // namespace metaleak

#endif  // METALEAK_GENERATION_COLUMN_GENERATORS_H_
