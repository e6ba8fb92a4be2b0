// Private set intersection (simulated) for VFL sample alignment.
//
// Before VFL training, parties align their datasets on common entity
// identifiers using PSI so that "the identity of the data tuples is known
// only to the parties involved" (Section II-B). This module simulates the
// protocol shape of a hash-based PSI: each party derives salted tokens
// from its join keys, only tokens cross the boundary, and the output is
// the aligned row index lists. It is not a cryptographic implementation —
// the repository's scope is the privacy analysis of the *metadata* that
// flows after alignment — but the dataflow (no raw identifiers exchanged)
// matches the real protocol.
#ifndef METALEAK_VFL_PSI_H_
#define METALEAK_VFL_PSI_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/value.h"

namespace metaleak {

/// Salted identifier token. Both parties derive tokens with the same
/// session salt, so equal identifiers produce equal tokens.
using PsiToken = uint64_t;

/// Derives the token stream of one party's join-key column.
std::vector<PsiToken> DerivePsiTokens(const std::vector<Value>& ids,
                                      uint64_t session_salt);

/// N-party alignment: rows[p][i] is the row of party p matching entity i.
/// Entities are the tokens present in every party's stream, in ascending
/// token order — a canonical order every party can compute independently.
struct MultiPsiResult {
  std::vector<std::vector<size_t>> rows;

  size_t num_parties() const { return rows.size(); }
  size_t size() const { return rows.empty() ? 0 : rows[0].size(); }
};

/// Intersects N token streams. Duplicate identifiers within one party
/// keep their first occurrence (standard PSI post-processing).
Result<MultiPsiResult> IntersectAllTokens(
    const std::vector<std::vector<PsiToken>>& streams);

}  // namespace metaleak

#endif  // METALEAK_VFL_PSI_H_
