#include "vfl/psi.h"

#include <algorithm>
#include <unordered_map>

namespace metaleak {

namespace {

// splitmix64 finalizer: mixes the value hash with the session salt so
// tokens from different sessions are unlinkable in the simulation.
uint64_t MixToken(uint64_t h, uint64_t salt) {
  uint64_t x = h ^ (salt + 0x9E3779B97F4A7C15ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<PsiToken> DerivePsiTokens(const std::vector<Value>& ids,
                                      uint64_t session_salt) {
  std::vector<PsiToken> tokens;
  tokens.reserve(ids.size());
  for (const Value& id : ids) {
    tokens.push_back(MixToken(static_cast<uint64_t>(id.Hash()),
                              session_salt));
  }
  return tokens;
}

Result<MultiPsiResult> IntersectAllTokens(
    const std::vector<std::vector<PsiToken>>& streams) {
  if (streams.empty()) {
    return Status::Invalid("PSI needs at least one token stream");
  }
  const size_t parties = streams.size();

  // First occurrence of each token per party (standard PSI
  // post-processing for duplicate identifiers).
  std::vector<std::unordered_map<PsiToken, size_t>> first(parties);
  for (size_t p = 0; p < parties; ++p) {
    first[p].reserve(streams[p].size());
    for (size_t i = 0; i < streams[p].size(); ++i) {
      first[p].emplace(streams[p][i], i);
    }
  }

  // Candidate tokens come from the smallest map; a token survives only if
  // every party holds it.
  size_t smallest = 0;
  for (size_t p = 1; p < parties; ++p) {
    if (first[p].size() < first[smallest].size()) smallest = p;
  }
  std::vector<PsiToken> common;
  common.reserve(first[smallest].size());
  for (const auto& [token, row] : first[smallest]) {
    bool everywhere = true;
    for (size_t p = 0; p < parties && everywhere; ++p) {
      if (p == smallest) continue;
      everywhere = first[p].find(token) != first[p].end();
    }
    if (everywhere) common.push_back(token);
  }

  // Canonical order every party can derive: ascending token.
  std::sort(common.begin(), common.end());

  MultiPsiResult out;
  out.rows.assign(parties, {});
  for (size_t p = 0; p < parties; ++p) {
    out.rows[p].reserve(common.size());
    for (PsiToken token : common) {
      out.rows[p].push_back(first[p].at(token));
    }
  }
  return out;
}

}  // namespace metaleak
