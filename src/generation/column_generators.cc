#include "generation/column_generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/macros.h"

namespace metaleak {

namespace {

// Per-thread scratch for the encoded generators. The Monte-Carlo loop
// calls these thousands of times; reusing the arenas makes every call
// after the first allocation-free (same idiom as the PliCache scratch).
struct EncodedScratch {
  std::vector<uint32_t> code_rank;    // per-code rank table (kCodes LHS)
  std::vector<double> sorted_reals;   // sorted distinct doubles (kReals LHS)
  std::vector<uint32_t> ranks;        // per-row rank of one LHS column
  std::vector<uint32_t> ids;          // folded composite-LHS group ids
  std::unordered_map<uint64_t, uint32_t> remap;
  std::vector<char> flags;            // lazily-sampled / lazily-filled bits
  std::vector<uint32_t> code_map;     // FD group -> code mapping
  std::vector<double> real_map;       // FD group -> double mapping
  std::vector<uint32_t> code_pool;    // ND flat pools (codes)
  std::vector<double> real_pool;      // ND flat pools (doubles)
  std::vector<size_t> idx;            // order-statistic index draws
  std::vector<uint32_t> target_codes; // OD/OFD rank -> code targets
  std::vector<double> target_reals;   // OD/OFD rank -> double targets
  std::vector<size_t> order;          // DD row order
};

EncodedScratch& Scratch() {
  thread_local EncodedScratch scratch;
  return scratch;
}

// Rank-compresses one already-generated batch column into s.ranks:
// ranks[r] is the rank of row r's value among the column's distinct
// values, ascending. Codes are assigned in ascending Value order, so
// ranking codes (or raw doubles) ranks the decoded Values exactly.
// Returns the distinct count.
uint32_t RankEncodedColumn(const EncodedBatch& batch, size_t col,
                           size_t num_rows, EncodedScratch& s) {
  s.ranks.resize(num_rows);
  if (batch.kind(col) == EncodedBatch::ColumnKind::kCodes) {
    return batch.WithCodes(col, [&](const auto* codes) -> uint32_t {
      uint32_t max_code = 0;
      for (size_t r = 0; r < num_rows; ++r) {
        max_code = std::max<uint32_t>(max_code, codes[r]);
      }
      s.code_rank.assign(static_cast<size_t>(max_code) + 1, 0);
      for (size_t r = 0; r < num_rows; ++r) s.code_rank[codes[r]] = 1;
      uint32_t running = 0;
      for (uint32_t c = 0; c <= max_code; ++c) {
        uint32_t present = s.code_rank[c];
        s.code_rank[c] = running;
        running += present;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        s.ranks[r] = s.code_rank[codes[r]];
      }
      return running;
    });
  }
  const std::vector<double>& reals = batch.reals(col);
  s.sorted_reals.assign(reals.begin(), reals.begin() + num_rows);
  std::sort(s.sorted_reals.begin(), s.sorted_reals.end());
  s.sorted_reals.erase(
      std::unique(s.sorted_reals.begin(), s.sorted_reals.end()),
      s.sorted_reals.end());
  for (size_t r = 0; r < num_rows; ++r) {
    s.ranks[r] = static_cast<uint32_t>(
        std::lower_bound(s.sorted_reals.begin(), s.sorted_reals.end(),
                         reals[r]) -
        s.sorted_reals.begin());
  }
  return static_cast<uint32_t>(s.sorted_reals.size());
}

// Folds the per-column ranks of a composite LHS into one dense group id
// per row (same fold as PositionListIndex::FromEncoded). The empty LHS
// (constant FD {} -> A) yields a single group. Group ids are numbered by
// first occurrence in row order, so lazy sampling keyed by id draws from
// the RNG in row-scan order. Result lands in s.ids; returns the group
// count.
uint32_t FoldLhsGroupsEncoded(const EncodedBatch& batch,
                              const std::vector<size_t>& lhs_columns,
                              size_t num_rows, EncodedScratch& s) {
  s.ids.assign(num_rows, 0);
  uint32_t num_groups = 1;
  for (size_t col : lhs_columns) {
    uint32_t distinct = RankEncodedColumn(batch, col, num_rows, s);
    s.remap.clear();
    s.remap.reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      uint64_t key = static_cast<uint64_t>(s.ids[r]) * distinct +
                     s.ranks[r];
      auto it = s.remap.emplace(key, static_cast<uint32_t>(s.remap.size()))
                    .first;
      s.ids[r] = it->second;
    }
    num_groups = static_cast<uint32_t>(s.remap.size());
  }
  return num_groups;
}

// `count` non-decreasing order statistics over `domain`, into
// s.target_codes / s.target_reals.
void SortedSamplesEncoded(const Domain& domain, size_t count, Rng* rng,
                          EncodedScratch& s) {
  if (domain.is_continuous()) {
    s.target_reals.resize(count);
    for (double& x : s.target_reals) {
      x = rng->UniformDouble(domain.lo(), domain.hi());
    }
    std::sort(s.target_reals.begin(), s.target_reals.end());
    return;
  }
  const size_t k = domain.values().size();
  METALEAK_DCHECK(k > 0);
  s.idx.resize(count);
  for (size_t& i : s.idx) i = rng->UniformIndex(k);
  std::sort(s.idx.begin(), s.idx.end());
  s.target_codes.resize(count);
  for (size_t i = 0; i < count; ++i) {
    s.target_codes[i] = static_cast<uint32_t>(s.idx[i]) + 1;
  }
}

// `count` strictly increasing values where the domain permits, into
// s.target_codes / s.target_reals. A categorical domain too small for a
// strict walk collapses to the non-decreasing assignment (forced
// transitions).
void StrictSortedSamplesEncoded(const Domain& domain, size_t count,
                                Rng* rng, EncodedScratch& s) {
  if (domain.is_continuous()) {
    SortedSamplesEncoded(domain, count, rng, s);
    return;
  }
  const size_t k = domain.values().size();
  if (k >= count) {
    std::vector<size_t> picked = rng->SampleWithoutReplacement(k, count);
    std::sort(picked.begin(), picked.end());
    s.target_codes.resize(count);
    for (size_t i = 0; i < count; ++i) {
      s.target_codes[i] = static_cast<uint32_t>(picked[i]) + 1;
    }
    return;
  }
  SortedSamplesEncoded(domain, count, rng, s);
}

void GenerateOrderedColumnEncoded(size_t lhs_column, const Domain& domain,
                                  size_t num_rows, bool strict, Rng* rng,
                                  EncodedBatch* batch, size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  EncodedScratch& s = Scratch();
  uint32_t distinct = RankEncodedColumn(*batch, lhs_column, num_rows, s);
  if (strict) {
    StrictSortedSamplesEncoded(domain, distinct, rng, s);
  } else {
    SortedSamplesEncoded(domain, distinct, rng, s);
  }
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        out[r] = s.target_codes[s.ranks[r]];
      }
    });
  } else {
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      out[r] = s.target_reals[s.ranks[r]];
    }
  }
}

}  // namespace

void GenerateRootColumnEncoded(const Domain& domain, size_t num_rows,
                               Rng* rng, EncodedBatch* batch,
                               size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    METALEAK_DCHECK(domain.is_categorical());
    const size_t k = domain.values().size();
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        out[r] = static_cast<uint32_t>(rng->UniformIndex(k)) + 1;
      }
    });
  } else {
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      out[r] = rng->UniformDouble(domain.lo(), domain.hi());
    }
  }
}

void GenerateFdColumnEncoded(const std::vector<size_t>& lhs_columns,
                             const Domain& domain, size_t num_rows,
                             Rng* rng, EncodedBatch* batch,
                             size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  EncodedScratch& s = Scratch();
  uint32_t num_groups = FoldLhsGroupsEncoded(*batch, lhs_columns, num_rows,
                                             s);
  s.flags.assign(num_groups, 0);
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    const size_t k = domain.values().size();
    s.code_map.resize(num_groups);
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        uint32_t id = s.ids[r];
        if (!s.flags[id]) {
          s.flags[id] = 1;
          s.code_map[id] = static_cast<uint32_t>(rng->UniformIndex(k)) + 1;
        }
        out[r] = s.code_map[id];
      }
    });
  } else {
    s.real_map.resize(num_groups);
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      uint32_t id = s.ids[r];
      if (!s.flags[id]) {
        s.flags[id] = 1;
        s.real_map[id] = rng->UniformDouble(domain.lo(), domain.hi());
      }
      out[r] = s.real_map[id];
    }
  }
}

void GenerateAfdColumnEncoded(const std::vector<size_t>& lhs_columns,
                              const Domain& domain, size_t num_rows,
                              double g3_error, Rng* rng,
                              EncodedBatch* batch, size_t target) {
  GenerateFdColumnEncoded(lhs_columns, domain, num_rows, rng, batch,
                          target);
  const double p = std::clamp(g3_error, 0.0, 1.0);
  if (batch->kind(target) == EncodedBatch::ColumnKind::kCodes) {
    const size_t k = domain.values().size();
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        if (rng->Bernoulli(p)) {
          out[r] = static_cast<uint32_t>(rng->UniformIndex(k)) + 1;
        }
      }
    });
  } else {
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      if (rng->Bernoulli(p)) {
        out[r] = rng->UniformDouble(domain.lo(), domain.hi());
      }
    }
  }
}

void GenerateNdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, size_t max_fanout, Rng* rng,
                             EncodedBatch* batch, size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  EncodedScratch& s = Scratch();
  const size_t k = std::max<size_t>(1, max_fanout);
  uint32_t distinct = RankEncodedColumn(*batch, lhs_column, num_rows, s);
  const bool categorical = domain.is_categorical();
  const size_t take =
      categorical ? std::min(k, domain.values().size()) : k;
  s.flags.assign(distinct, 0);
  if (categorical) {
    const size_t domain_size = domain.values().size();
    s.code_pool.assign(static_cast<size_t>(distinct) * take, 0);
    batch->WithMutableCodes(target, [&](auto* out) {
      for (size_t r = 0; r < num_rows; ++r) {
        const uint32_t rank = s.ranks[r];
        uint32_t* pool =
            s.code_pool.data() + static_cast<size_t>(rank) * take;
        if (!s.flags[rank]) {
          s.flags[rank] = 1;
          size_t j = 0;
          for (size_t i : rng->SampleWithoutReplacement(domain_size, take)) {
            pool[j++] = static_cast<uint32_t>(i) + 1;
          }
        }
        out[r] = pool[rng->UniformIndex(take)];
      }
    });
  } else {
    s.real_pool.assign(static_cast<size_t>(distinct) * take, 0.0);
    std::vector<double>& out = batch->reals(target);
    for (size_t r = 0; r < num_rows; ++r) {
      const uint32_t rank = s.ranks[r];
      double* pool = s.real_pool.data() + static_cast<size_t>(rank) * take;
      if (!s.flags[rank]) {
        s.flags[rank] = 1;
        for (size_t i = 0; i < take; ++i) {
          pool[i] = rng->UniformDouble(domain.lo(), domain.hi());
        }
      }
      out[r] = pool[rng->UniformIndex(take)];
    }
  }
}

void GenerateOdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, Rng* rng, EncodedBatch* batch,
                             size_t target) {
  GenerateOrderedColumnEncoded(lhs_column, domain, num_rows,
                               /*strict=*/false, rng, batch, target);
}

void GenerateOfdColumnEncoded(size_t lhs_column, const Domain& domain,
                              size_t num_rows, Rng* rng,
                              EncodedBatch* batch, size_t target) {
  GenerateOrderedColumnEncoded(lhs_column, domain, num_rows,
                               /*strict=*/true, rng, batch, target);
}

Status GenerateDdColumnEncoded(size_t lhs_column, const Domain& domain,
                               const std::vector<double>& lhs_code_numeric,
                               size_t num_rows, double lhs_epsilon,
                               double rhs_delta, Rng* rng,
                               EncodedBatch* batch, size_t target) {
  METALEAK_DCHECK(rng != nullptr);
  if (domain.is_categorical()) {
    return Status::TypeError(
        "differential generation requires a continuous target domain");
  }
  EncodedScratch& s = Scratch();
  s.order.resize(num_rows);
  for (size_t i = 0; i < num_rows; ++i) s.order[i] = i;
  const bool lhs_codes =
      batch->kind(lhs_column) == EncodedBatch::ColumnKind::kCodes;
  // Codes are assigned in ascending Value order, so sorting by code (or
  // by raw double) makes every comparator decision identical to sorting
  // the decoded Values — same permutation, same Markov chain.
  if (lhs_codes) {
    batch->WithCodes(lhs_column, [&](const auto* codes) {
      std::sort(s.order.begin(), s.order.end(),
                [&](size_t a, size_t b) { return codes[a] < codes[b]; });
    });
  } else {
    const std::vector<double>& xs = batch->reals(lhs_column);
    std::sort(s.order.begin(), s.order.end(),
              [&](size_t a, size_t b) { return xs[a] < xs[b]; });
  }

  const CodeColumnView lhs_view =
      lhs_codes ? batch->code_view(lhs_column) : CodeColumnView{};
  std::vector<double>& out = batch->reals(target);
  double prev_x = 0.0;
  double prev_y = 0.0;
  bool has_prev = false;
  for (size_t pos = 0; pos < num_rows; ++pos) {
    size_t row = s.order[pos];
    double x;
    if (lhs_codes) {
      x = lhs_code_numeric[lhs_view.at(row)];
    } else {
      x = batch->reals(lhs_column)[row];
    }
    double y;
    if (has_prev && std::abs(x - prev_x) <= lhs_epsilon) {
      double lo = std::max(domain.lo(), prev_y - rhs_delta);
      double hi = std::min(domain.hi(), prev_y + rhs_delta);
      if (lo > hi) {
        lo = domain.lo();
        hi = domain.hi();
      }
      y = rng->UniformDouble(lo, hi);
    } else {
      y = rng->UniformDouble(domain.lo(), domain.hi());
    }
    out[row] = y;
    prev_x = x;
    prev_y = y;
    has_prev = true;
  }
  return Status::OK();
}

}  // namespace metaleak
