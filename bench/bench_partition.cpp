// Partition-layout bench: the flat CSR stripped-partition engine versus
// the pre-CSR nested-vector layout, at 10k-200k rows.
//
// The "nested" rows reimplement (inline) the exact algorithms the CSR
// engine replaced: per-cluster vector allocations, a fresh probe table
// per Intersect call, and — for the identifiability sweep — a full
// FromEncoded rebuild per width-2 subset instead of one cached
// intersection through the PliCache. Before timing anything the bench
// asserts both layouts agree bit-for-bit (cluster contents and sweep
// verdicts); any disagreement exits non-zero. Results go to
// BENCH_partition.json, including the width-2 sweep speedup at each row
// count (the acceptance number is the 50k-row entry).
//
// Further axes ride along. The SIMD axis forces the kernels to scalar
// versus the best host level and checks the outputs are bit-identical;
// only the bit-parallel low-cardinality counting path is timed (the
// gather-bound intersect/sweep timings it used to report sat at ~1.0x
// and were retired). The tiled counting sweep is timed against the
// cached-PLI extension sweep, and the radix-partitioned scatter that
// FromCodes selects past ~1M codes is timed against a direct scatter
// written here, which is also the arena it must reproduce.
//
// Last, a per-kernel table times every public kernel in common/simd.h
// on 100k rows at each dispatch level from scalar up to the host's best
// (median, min and max per call over kKernelRuns runs of kCallsPerRun
// back-to-back calls), checking each level's output against the scalar
// reference as it goes. It is the recorded measurement each SIMD level
// has to justify itself with: the last column says whether the top
// level's slowest run still beats scalar's fastest.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "data/code_column.h"
#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "partition/attribute_set.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"
#include "privacy/identifiability.h"

namespace metaleak {
namespace {

struct BenchRecord {
  std::string op;
  std::string layout;
  size_t rows = 0;
  double ms = 0.0;
};

constexpr int kReps = 3;  // keep the best (least-disturbed) repetition

template <typename Fn>
double TimeMs(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

// --- The nested-vector engine, reconstructed ----------------------------

constexpr int64_t kLegacyUnique = -1;

struct LegacyPli {
  std::vector<std::vector<size_t>> clusters;
  size_t num_rows = 0;

  std::vector<int64_t> ProbeTable() const {
    std::vector<int64_t> probe(num_rows, kLegacyUnique);
    for (size_t c = 0; c < clusters.size(); ++c) {
      for (size_t row : clusters[c]) probe[row] = static_cast<int64_t>(c);
    }
    return probe;
  }
};

LegacyPli LegacyFromCodes(const std::vector<uint32_t>& codes,
                          uint32_t num_codes) {
  LegacyPli out;
  out.num_rows = codes.size();
  std::vector<uint32_t> counts(num_codes, 0);
  for (uint32_t code : codes) ++counts[code];
  std::vector<uint32_t> slot(num_codes, UINT32_MAX);
  uint32_t next_slot = 0;
  for (uint32_t code = 0; code < num_codes; ++code) {
    if (counts[code] >= 2) slot[code] = next_slot++;
  }
  out.clusters.resize(next_slot);
  for (uint32_t code = 0; code < num_codes; ++code) {
    if (slot[code] != UINT32_MAX) {
      out.clusters[slot[code]].reserve(counts[code]);
    }
  }
  for (size_t r = 0; r < codes.size(); ++r) {
    uint32_t s = slot[codes[r]];
    if (s != UINT32_MAX) out.clusters[s].push_back(r);
  }
  return out;
}

LegacyPli LegacyFromEncoded(const EncodedRelation& relation,
                            const std::vector<size_t>& columns) {
  if (columns.size() == 1) {
    return LegacyFromCodes(relation.column(columns[0]).ToU32(),
                           relation.dictionary(columns[0]).num_codes());
  }
  const size_t n = relation.num_rows();
  const std::vector<uint32_t> first = relation.column(columns[0]).ToU32();
  std::vector<uint64_t> ids(first.begin(), first.end());
  uint64_t num_groups = relation.dictionary(columns[0]).num_codes();
  std::unordered_map<uint64_t, uint64_t> remap;
  for (size_t i = 1; i < columns.size(); ++i) {
    const std::vector<uint32_t> codes = relation.column(columns[i]).ToU32();
    const uint64_t nc = relation.dictionary(columns[i]).num_codes();
    remap.clear();
    remap.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      uint64_t key = ids[r] * nc + codes[r];
      auto it = remap.emplace(key, remap.size()).first;
      ids[r] = it->second;
    }
    num_groups = remap.size();
  }
  LegacyPli out;
  out.num_rows = n;
  std::vector<uint32_t> counts(num_groups, 0);
  for (uint64_t id : ids) ++counts[id];
  std::vector<uint32_t> slot(num_groups, UINT32_MAX);
  uint32_t next_slot = 0;
  for (uint64_t g = 0; g < num_groups; ++g) {
    if (counts[g] >= 2) slot[g] = next_slot++;
  }
  out.clusters.resize(next_slot);
  for (size_t r = 0; r < n; ++r) {
    uint32_t s = slot[ids[r]];
    if (s != UINT32_MAX) out.clusters[s].push_back(r);
  }
  return out;
}

// The pre-CSR Intersect: fresh probe table per call, hash-map split.
LegacyPli LegacyIntersect(const LegacyPli& a, const LegacyPli& b) {
  std::vector<int64_t> probe = b.ProbeTable();
  LegacyPli out;
  out.num_rows = a.num_rows;
  std::unordered_map<int64_t, std::vector<size_t>> split;
  for (const auto& cluster : a.clusters) {
    split.clear();
    for (size_t row : cluster) {
      int64_t id = probe[row];
      if (id == kLegacyUnique) continue;
      split[id].push_back(row);
    }
    for (auto& [id, rows] : split) {
      if (rows.size() >= 2) out.clusters.push_back(std::move(rows));
    }
  }
  return out;
}

// The pre-CSR identifiability sweep: one full FromEncoded rebuild per
// width-2 subset, parallelized exactly like the old IdentifiableRows.
std::vector<char> SweepByRebuild(const EncodedRelation& enc,
                                 const std::vector<AttributeSet>& subsets) {
  const size_t n = enc.num_rows();
  const size_t grain = subsets.size() / 256 > 0 ? subsets.size() / 256 : 1;
  return ParallelReduce<std::vector<char>>(
      0, subsets.size(), grain, std::vector<char>(n, 0),
      [&](size_t lo, size_t hi) {
        std::vector<char> bits(n, 0);
        for (size_t s = lo; s < hi; ++s) {
          LegacyPli pli = LegacyFromEncoded(enc, subsets[s].ToIndices());
          std::vector<char> in_cluster(n, 0);
          for (const auto& cluster : pli.clusters) {
            for (size_t row : cluster) in_cluster[row] = 1;
          }
          for (size_t r = 0; r < n; ++r) {
            if (!in_cluster[r]) bits[r] = 1;
          }
        }
        return bits;
      },
      [](std::vector<char> acc, std::vector<char> chunk) {
        for (size_t r = 0; r < chunk.size(); ++r) {
          if (chunk[r]) acc[r] = 1;
        }
        return acc;
      });
}

// All width-2 subsets over m attributes, lexicographic.
std::vector<AttributeSet> Width2Subsets(size_t m) {
  std::vector<AttributeSet> out;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a + 1; b < m; ++b) {
      out.push_back(AttributeSet::Of({a, b}));
    }
  }
  return out;
}

// All single-column PLIs of `enc`, probe tables pre-warmed so the timed
// loops measure intersections, not lazy probe builds.
std::vector<PositionListIndex> WarmSingles(const EncodedRelation& enc) {
  std::vector<PositionListIndex> singles;
  for (size_t c = 0; c < enc.num_columns(); ++c) {
    singles.push_back(PositionListIndex::FromEncoded(enc, {c}));
    (void)singles.back().probe_table();
  }
  return singles;
}

// Deterministic digest of every ordered-pair product partition: the CSR
// arrays concatenated. Two kernel levels agree iff the digests are equal.
std::vector<uint32_t> PairDigest(
    const std::vector<PositionListIndex>& singles) {
  std::vector<uint32_t> digest;
  IntersectionScratch scratch;
  for (size_t a = 0; a < singles.size(); ++a) {
    for (size_t b = 0; b < singles.size(); ++b) {
      if (a == b) continue;
      PositionListIndex p = singles[a].Intersect(singles[b], &scratch);
      digest.insert(digest.end(), p.cluster_offsets().begin(),
                    p.cluster_offsets().end());
      digest.insert(digest.end(), p.rows().begin(), p.rows().end());
    }
  }
  return digest;
}

// Deterministic digest of the counting queries over every ordered pair:
// g3 error, fan-out, and refinement verdict. Exact integers underneath,
// so kernel levels agree iff the digests are equal.
std::vector<double> CountingDigest(
    const std::vector<PositionListIndex>& singles) {
  std::vector<double> digest;
  for (size_t a = 0; a < singles.size(); ++a) {
    for (size_t b = 0; b < singles.size(); ++b) {
      if (a == b) continue;
      digest.push_back(singles[a].G3Error(singles[b]));
      digest.push_back(static_cast<double>(singles[a].MaxFanout(singles[b])));
      digest.push_back(singles[a].Refines(singles[b]) ? 1.0 : 0.0);
    }
  }
  return digest;
}

double TimeCountingQueries(const std::vector<PositionListIndex>& singles) {
  return TimeMs([&] {
    double total = 0.0;
    for (size_t a = 0; a < singles.size(); ++a) {
      for (size_t b = 0; b < singles.size(); ++b) {
        if (a == b) continue;
        total += singles[a].G3Error(singles[b]);
        total += static_cast<double>(singles[a].MaxFanout(singles[b]));
      }
    }
    if (total < 0.0) std::abort();
  });
}

// FromCodes without the radix pass: count, give each code occurring
// twice or more a cluster slot in ascending code order, then scatter the
// rows in one ascending scan.
PositionListIndex DirectScatterFromCodes(const std::vector<uint32_t>& codes,
                                         uint32_t num_codes) {
  constexpr uint32_t kNoSlot = UINT32_MAX;
  const size_t n = codes.size();
  std::vector<uint32_t> counts(num_codes, 0);
  HistogramCodes(ActiveSimdLevel(),
                 CodeColumnView{codes.data(), n, CodeWidth::kU32}, num_codes,
                 counts.data());
  std::vector<uint32_t> slot(num_codes, kNoSlot);
  std::vector<uint32_t> offsets = {0};
  uint32_t total = 0;
  for (uint32_t code = 0; code < num_codes; ++code) {
    if (counts[code] < 2) continue;
    slot[code] = static_cast<uint32_t>(offsets.size() - 1);
    total += counts[code];
    offsets.push_back(total);
  }
  std::vector<PositionListIndex::Row> rows(total);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    const uint32_t s = slot[codes[r]];
    if (s != kNoSlot) {
      rows[cursor[s]++] = static_cast<PositionListIndex::Row>(r);
    }
  }
  return PositionListIndex::FromCsrArrays(std::move(rows), std::move(offsets),
                                          n);
}

// --- Per-kernel SIMD table ------------------------------------------------

constexpr size_t kKernelRows = 100000;
constexpr int kKernelRuns = 31;
// One call takes 3-300 us; timing a short batch per run keeps a single
// timer tick or interrupt from setting a run's min or max.
constexpr int kCallsPerRun = 10;

struct KernelCase {
  std::string name;
  // Runs the kernel once at `level` and returns a digest of its output.
  // Accumulating kernels add into their buffer, so `fresh` clears it
  // first; timed runs pass false and the digest is then meaningless.
  std::function<uint64_t(SimdLevel, bool fresh)> run;
};

struct KernelTiming {
  std::string kernel;
  SimdLevel level = SimdLevel::kScalar;
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

uint64_t DigestBytes(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

uint64_t DigestStats(const EpsilonBallStats& s) {
  const uint64_t counts[2] = {s.matches, s.compared};
  return DigestBytes(counts, sizeof(counts)) * 31 +
         DigestBytes(&s.sum_squares, sizeof(s.sum_squares));
}

// The inputs every kernel case reads: code columns below 200 at each
// width (half the rows equal, a tenth NULL), doubles with a few NaNs,
// a probe table with in-range indices, and sorted order-compatible
// pairs so the OD scan and the all-equal gather run to the end.
struct KernelInputs {
  std::vector<uint32_t> a32, b32;
  std::vector<uint16_t> a16, b16;
  std::vector<uint8_t> a8, b8;
  std::vector<double> real, syn, numeric;
  std::vector<int32_t> table, flat_table;
  std::vector<uint32_t> idx;
  std::vector<uint64_t> pairs;

  KernelInputs() {
    const size_t n = kKernelRows;
    constexpr uint32_t kNumCodes = 200;
    Rng rng(23);
    a32.resize(n);
    b32.resize(n);
    real.resize(n);
    syn.resize(n);
    idx.resize(n);
    table.resize(n);
    pairs.resize(n);
    for (size_t r = 0; r < n; ++r) {
      a32[r] = rng.Bernoulli(0.1)
                   ? 0
                   : static_cast<uint32_t>(rng.UniformIndex(kNumCodes));
      b32[r] = rng.Bernoulli(0.5)
                   ? a32[r]
                   : static_cast<uint32_t>(rng.UniformIndex(kNumCodes));
      real[r] = rng.Bernoulli(0.05) ? std::nan("") : rng.UniformDouble(0, 100);
      syn[r] = rng.Bernoulli(0.05) ? std::nan("") : rng.UniformDouble(0, 100);
      idx[r] = static_cast<uint32_t>(rng.UniformIndex(n));
      table[r] = static_cast<int32_t>(rng.UniformIndex(1000));
      pairs[r] = (uint64_t{r / 4} << 32) | (r / 4);
    }
    a16.assign(a32.begin(), a32.end());
    b16.assign(b32.begin(), b32.end());
    a8.assign(a32.begin(), a32.end());
    b8.assign(b32.begin(), b32.end());
    numeric.resize(kNumCodes);
    for (double& v : numeric) v = rng.UniformDouble(0, 100);
    flat_table.assign(n, 7);
  }
};

std::vector<KernelCase> KernelCases(const KernelInputs& in,
                                    std::vector<uint32_t>* acc_buf,
                                    std::vector<int32_t>* gather_buf) {
  const size_t n = kKernelRows;
  const double eps = 5.0;
  const uint32_t num_codes = static_cast<uint32_t>(in.numeric.size());
  // Wraps a kernel that adds into the first `slots` entries of acc_buf
  // (histograms count into num_codes slots, row kernels into n).
  auto accumulate_into = [acc_buf](size_t slots, auto fn) {
    return [acc_buf, slots, fn](SimdLevel level, bool fresh) -> uint64_t {
      if (fresh) std::fill(acc_buf->begin(), acc_buf->end(), 0u);
      fn(level, acc_buf->data());
      return fresh ? DigestBytes(acc_buf->data(), slots * sizeof(uint32_t))
                   : 0;
    };
  };
  auto hist = [&](auto fn) { return accumulate_into(num_codes, fn); };
  auto accumulate = [&](auto fn) { return accumulate_into(n, fn); };
  const KernelInputs* p = &in;
  return {
      {"CountEqualU32",
       [p, n](SimdLevel l, bool) {
         return CountEqualU32(l, p->a32.data(), p->b32.data(), n);
       }},
      {"CountEqualU16",
       [p, n](SimdLevel l, bool) {
         return CountEqualU16(l, p->a16.data(), p->b16.data(), n);
       }},
      {"CountEqualU8",
       [p, n](SimdLevel l, bool) {
         return CountEqualU8(l, p->a8.data(), p->b8.data(), n);
       }},
      {"CountEqualF64",
       [p, n](SimdLevel l, bool) {
         return CountEqualF64(l, p->real.data(), p->syn.data(), n);
       }},
      {"EpsilonBallMse",
       [p, n, eps](SimdLevel l, bool) {
         EpsilonBallStats s;
         EpsilonBallMseInto(l, p->real.data(), p->syn.data(), n, eps, &s);
         return DigestStats(s);
       }},
      {"EpsilonBallMseCoded/u32",
       [p, n, eps](SimdLevel l, bool) {
         EpsilonBallStats s;
         EpsilonBallMseCodedInto(l, p->real.data(), p->a32.data(),
                                 p->numeric.data(), n, eps, &s);
         return DigestStats(s);
       }},
      {"EpsilonBallMseCoded/u16",
       [p, n, eps](SimdLevel l, bool) {
         EpsilonBallStats s;
         EpsilonBallMseCodedInto(l, p->real.data(), p->a16.data(),
                                 p->numeric.data(), n, eps, &s);
         return DigestStats(s);
       }},
      {"EpsilonBallMseCoded/u8",
       [p, n, eps](SimdLevel l, bool) {
         EpsilonBallStats s;
         EpsilonBallMseCodedInto(l, p->real.data(), p->a8.data(),
                                 p->numeric.data(), n, eps, &s);
         return DigestStats(s);
       }},
      {"HistogramU32", hist([p, n, num_codes](SimdLevel l, uint32_t* out) {
         HistogramU32(l, p->a32.data(), n, num_codes, out);
       })},
      {"HistogramU16", hist([p, n, num_codes](SimdLevel l, uint32_t* out) {
         HistogramU16(l, p->a16.data(), n, num_codes, out);
       })},
      {"HistogramU8", hist([p, n, num_codes](SimdLevel l, uint32_t* out) {
         HistogramU8(l, p->a8.data(), n, num_codes, out);
       })},
      {"GatherI32",
       [p, n, gather_buf](SimdLevel l, bool fresh) {
         GatherI32(l, p->table.data(), p->idx.data(), n, gather_buf->data());
         return fresh ? DigestBytes(gather_buf->data(), n * sizeof(int32_t))
                      : 0;
       }},
      {"AllGatherEqualI32",
       [p, n](SimdLevel l, bool) {
         return static_cast<uint64_t>(AllGatherEqualI32(
             l, p->flat_table.data(), p->idx.data(), n, 7));
       }},
      {"OdViolationInRange",
       [p, n](SimdLevel l, bool) {
         return static_cast<uint64_t>(
             OdViolationInRange(l, p->pairs.data(), 1, n, /*strict=*/false));
       }},
      {"AccumulateEqualU32",
       accumulate([p, n](SimdLevel l, uint32_t* out) {
         AccumulateEqualU32(l, p->a32.data(), p->b32.data(), n, out);
       })},
      {"AccumulateEqualU16",
       accumulate([p, n](SimdLevel l, uint32_t* out) {
         AccumulateEqualU16(l, p->a16.data(), p->b16.data(), n, out);
       })},
      {"AccumulateEqualU8",
       accumulate([p, n](SimdLevel l, uint32_t* out) {
         AccumulateEqualU8(l, p->a8.data(), p->b8.data(), n, out);
       })},
      {"AccumulateEqualF64",
       accumulate([p, n](SimdLevel l, uint32_t* out) {
         AccumulateEqualF64(l, p->real.data(), p->syn.data(), n, out);
       })},
      {"AccumulateEpsilonMatch",
       accumulate([p, n, eps](SimdLevel l, uint32_t* out) {
         AccumulateEpsilonMatch(l, p->real.data(), p->syn.data(), n, eps,
                                out);
       })},
      {"AccumulateEpsilonMatchCoded/u32",
       accumulate([p, n, eps](SimdLevel l, uint32_t* out) {
         AccumulateEpsilonMatchCoded(l, p->real.data(), p->a32.data(),
                                     p->numeric.data(), n, eps, out);
       })},
      {"AccumulateEpsilonMatchCoded/u16",
       accumulate([p, n, eps](SimdLevel l, uint32_t* out) {
         AccumulateEpsilonMatchCoded(l, p->real.data(), p->a16.data(),
                                     p->numeric.data(), n, eps, out);
       })},
      {"AccumulateEpsilonMatchCoded/u8",
       accumulate([p, n, eps](SimdLevel l, uint32_t* out) {
         AccumulateEpsilonMatchCoded(l, p->real.data(), p->a8.data(),
                                     p->numeric.data(), n, eps, out);
       })},
      {"AccumulateNonNull/u32",
       accumulate([p, n](SimdLevel l, uint32_t* out) {
         AccumulateNonNull(l, p->a32.data(), n, out);
       })},
      {"AccumulateNonNull/u16",
       accumulate([p, n](SimdLevel l, uint32_t* out) {
         AccumulateNonNull(l, p->a16.data(), n, out);
       })},
      {"AccumulateNonNull/u8",
       accumulate([p, n](SimdLevel l, uint32_t* out) {
         AccumulateNonNull(l, p->a8.data(), n, out);
       })},
  };
}

// Times every kernel case at every level the host supports. Returns
// false (after reporting) if any level's output differs from scalar's.
bool TimeKernelTable(std::vector<KernelTiming>* timings) {
  const KernelInputs inputs;
  std::vector<uint32_t> acc_buf(kKernelRows);
  std::vector<int32_t> gather_buf(kKernelRows);
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(SupportedSimdLevel()); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  bool parity_ok = true;
  volatile uint64_t sink = 0;  // keeps the scalar-result kernels live
  std::printf(
      "per-kernel table: %zu rows, %d runs x %d calls, median [min-max] us "
      "per call\n",
      kKernelRows, kKernelRuns, kCallsPerRun);
  std::printf("| kernel |");
  for (SimdLevel level : levels) std::printf(" %s |", SimdLevelName(level));
  std::printf(" %s/scalar | beyond spread |\n|---|",
              SimdLevelName(levels.back()));
  for (size_t i = 0; i <= levels.size() + 1; ++i) std::printf("---|");
  std::printf("\n");
  for (const KernelCase& kc : KernelCases(inputs, &acc_buf, &gather_buf)) {
    const uint64_t ref = kc.run(SimdLevel::kScalar, /*fresh=*/true);
    std::printf("| %s |", kc.name.c_str());
    KernelTiming scalar;
    KernelTiming top;
    for (SimdLevel level : levels) {
      if (kc.run(level, /*fresh=*/true) != ref) {
        std::fprintf(stderr, "SIMD parity FAILED: %s at %s\n",
                     kc.name.c_str(), SimdLevelName(level));
        parity_ok = false;
      }
      std::vector<double> ms(kKernelRuns);
      for (double& t : ms) {
        const auto start = std::chrono::steady_clock::now();
        for (int call = 0; call < kCallsPerRun; ++call) {
          sink = sink + kc.run(level, /*fresh=*/false);
        }
        const auto stop = std::chrono::steady_clock::now();
        t = std::chrono::duration<double, std::milli>(stop - start).count() /
            kCallsPerRun;
      }
      std::sort(ms.begin(), ms.end());
      const KernelTiming timing{kc.name, level, ms[ms.size() / 2], ms.front(),
                                ms.back()};
      timings->push_back(timing);
      if (level == SimdLevel::kScalar) scalar = timing;
      top = timing;
      std::printf(" %.1f [%.1f-%.1f] |", timing.median_ms * 1e3,
                  timing.min_ms * 1e3, timing.max_ms * 1e3);
    }
    std::printf(" %.2fx | %s |\n", scalar.median_ms / top.median_ms,
                top.max_ms < scalar.min_ms ? "yes" : "no");
  }
  std::printf("\n");
  return parity_ok;
}

int Main() {
  const std::vector<size_t> kRowCounts = {10000, 50000, 200000};
  std::vector<BenchRecord> records;
  double speedup_50k = 0.0;
  double tiled_sweep_50k = 0.0;
  double radix_build_4m = 0.0;
  double simd_lowcard_50k = 0.0;
  bool simd_parity_ok = true;

  for (size_t rows : kRowCounts) {
    Relation relation = std::move(datasets::SyntheticUniform(
                                      rows, /*num_categorical=*/6,
                                      /*num_continuous=*/2,
                                      /*domain_size=*/48, /*seed=*/7))
                            .ValueOrDie();
    EncodedRelation enc = EncodedRelation::Encode(relation);
    const size_t m = enc.num_columns();
    std::printf("dataset: synthetic uniform, %zu rows x %zu attrs\n",
                enc.num_rows(), m);

    // --- Parity: both layouts must agree bit-for-bit ------------------
    for (size_t c = 0; c < m; ++c) {
      LegacyPli legacy = LegacyFromEncoded(enc, {c});
      PositionListIndex csr = PositionListIndex::FromEncoded(enc, {c});
      if (legacy.clusters != csr.ToNestedClusters()) {
        std::fprintf(stderr, "parity FAILED: column %zu clusters\n", c);
        return 1;
      }
    }
    const std::vector<AttributeSet> subsets = Width2Subsets(m);
    std::vector<char> rebuild_bits = SweepByRebuild(enc, subsets);
    {
      PliCache cache(&enc);
      auto extend = IdentifiableRowsForSubsets(cache, subsets);
      if (!extend.ok()) std::abort();
      for (size_t r = 0; r < rows; ++r) {
        if (static_cast<bool>(rebuild_bits[r]) != (*extend)[r]) {
          std::fprintf(stderr, "parity FAILED: sweep verdict row %zu\n", r);
          return 1;
        }
      }
    }

    // --- build: all single-column partitions --------------------------
    double nested_build = TimeMs([&] {
      size_t total = 0;
      for (size_t c = 0; c < m; ++c) {
        total += LegacyFromEncoded(enc, {c}).clusters.size();
      }
      if (total == SIZE_MAX) std::abort();  // keep the loop observable
    });
    double csr_build = TimeMs([&] {
      size_t total = 0;
      for (size_t c = 0; c < m; ++c) {
        total += PositionListIndex::FromEncoded(enc, {c}).num_clusters();
      }
      if (total == SIZE_MAX) std::abort();
    });

    // --- intersect: all ordered pairs of singles ----------------------
    std::vector<LegacyPli> legacy_singles;
    std::vector<PositionListIndex> csr_singles;
    for (size_t c = 0; c < m; ++c) {
      legacy_singles.push_back(LegacyFromEncoded(enc, {c}));
      csr_singles.push_back(PositionListIndex::FromEncoded(enc, {c}));
      (void)csr_singles.back().probe_table();  // warm the cached probes
    }
    double nested_intersect = TimeMs([&] {
      size_t total = 0;
      for (size_t a = 0; a < m; ++a) {
        for (size_t b = 0; b < m; ++b) {
          if (a == b) continue;
          total += LegacyIntersect(legacy_singles[a], legacy_singles[b])
                       .clusters.size();
        }
      }
      if (total == SIZE_MAX) std::abort();
    });
    IntersectionScratch scratch;
    double csr_intersect = TimeMs([&] {
      size_t total = 0;
      for (size_t a = 0; a < m; ++a) {
        for (size_t b = 0; b < m; ++b) {
          if (a == b) continue;
          total += csr_singles[a]
                       .Intersect(csr_singles[b], &scratch)
                       .num_clusters();
        }
      }
      if (total == SIZE_MAX) std::abort();
    });

    // --- sweep: width-2 identifiability -------------------------------
    // Cold cache per repetition: the number measured is "build every
    // width-2 partition and mark unique rows", rebuild versus extension.
    double sweep_rebuild = TimeMs([&] { SweepByRebuild(enc, subsets); });
    double sweep_extend = TimeMs([&] {
      PliCache cache(&enc);
      auto result = IdentifiableRowsForSubsets(cache, subsets);
      if (!result.ok()) std::abort();
    });

    // The tiled counting sweep behind IdentifiableRows(cache, 2): per-pair
    // count tables walked in L2-sized row tiles instead of materialized
    // pair partitions. Must agree with the extension sweep bit-for-bit.
    {
      PliCache cache(&enc);
      auto extend = IdentifiableRowsForSubsets(cache, subsets);
      auto tiled = IdentifiableRows(cache, 2);
      if (!extend.ok() || !tiled.ok() || *extend != *tiled) {
        std::fprintf(stderr, "parity FAILED: tiled sweep verdicts\n");
        return 1;
      }
    }
    double sweep_tiled = TimeMs([&] {
      PliCache cache(&enc);
      if (!IdentifiableRows(cache, 2).ok()) std::abort();
    });

    const double speedup = sweep_rebuild / sweep_extend;
    const double tiled_speedup = sweep_extend / sweep_tiled;
    if (rows == 50000) {
      speedup_50k = speedup;
      tiled_sweep_50k = tiled_speedup;
    }
    std::printf("  build     nested %8.2f ms | csr %8.2f ms\n",
                nested_build, csr_build);
    std::printf("  intersect nested %8.2f ms | csr %8.2f ms\n",
                nested_intersect, csr_intersect);
    std::printf(
        "  sweep w2  rebuild %7.2f ms | extend %6.2f ms  (%.2fx) | tiled "
        "%6.2f ms  (%.2fx)\n\n",
        sweep_rebuild, sweep_extend, speedup, sweep_tiled, tiled_speedup);

    records.push_back({"build_singles", "nested", rows, nested_build});
    records.push_back({"build_singles", "csr", rows, csr_build});
    records.push_back({"intersect_pairs", "nested", rows, nested_intersect});
    records.push_back({"intersect_pairs", "csr", rows, csr_intersect});
    records.push_back({"sweep_width2", "rebuild", rows, sweep_rebuild});
    records.push_back({"sweep_width2", "extend", rows, sweep_extend});
    records.push_back({"sweep_width2", "tiled", rows, sweep_tiled});

    // --- SIMD axis: the same CSR engine with the kernels forced to
    // scalar versus the best level the host supports. Outputs must be
    // bit-identical; timings feed the speedup fields in the JSON.
    // The low-cardinality fixture (domain 4, categorical only) drives
    // the bit-parallel AND+popcount paths of G3Error / MaxFanout /
    // Refines.
    const SimdLevel best = SupportedSimdLevel();
    EncodedRelation lowcard = EncodedRelation::Encode(
        std::move(datasets::SyntheticUniform(rows, /*num_categorical=*/6,
                                             /*num_continuous=*/0,
                                             /*domain_size=*/4, /*seed=*/13))
            .ValueOrDie());

    SetSimdLevelOverride(SimdLevel::kScalar);
    const std::vector<uint32_t> scalar_digest = PairDigest(csr_singles);
    std::vector<bool> scalar_sweep_bits;
    {
      PliCache cache(&enc);
      scalar_sweep_bits =
          std::move(IdentifiableRowsForSubsets(cache, subsets)).ValueOrDie();
    }
    std::vector<PositionListIndex> lowcard_singles = WarmSingles(lowcard);
    const std::vector<double> scalar_lowcard_digest =
        CountingDigest(lowcard_singles);
    const double scalar_lowcard_ms = TimeCountingQueries(lowcard_singles);

    SetSimdLevelOverride(best);
    if (PairDigest(csr_singles) != scalar_digest ||
        CountingDigest(lowcard_singles) != scalar_lowcard_digest) {
      std::fprintf(stderr, "SIMD parity FAILED: intersect digests\n");
      simd_parity_ok = false;
    }
    {
      PliCache cache(&enc);
      auto simd_sweep_bits =
          std::move(IdentifiableRowsForSubsets(cache, subsets)).ValueOrDie();
      if (simd_sweep_bits != scalar_sweep_bits) {
        std::fprintf(stderr, "SIMD parity FAILED: sweep verdicts\n");
        simd_parity_ok = false;
      }
    }
    const double simd_lowcard_ms = TimeCountingQueries(lowcard_singles);
    ClearSimdLevelOverride();

    const double sl = scalar_lowcard_ms / simd_lowcard_ms;
    if (rows == 50000) simd_lowcard_50k = sl;
    std::printf("  simd (%s) lowcard g3 %6.2f -> %6.2f ms (%.2fx)\n",
                SimdLevelName(best), scalar_lowcard_ms, simd_lowcard_ms, sl);

    records.push_back(
        {"counting_lowcard", "scalar_kernels", rows, scalar_lowcard_ms});
    records.push_back(
        {"counting_lowcard", "simd_kernels", rows, simd_lowcard_ms});
    std::printf("\n");
  }

  // --- radix scatter A/B: FromCodes at the scale where it engages -----
  // The radix-partitioned scatter only switches on past ~1M distinct
  // codes with n >= 2x codes (below that the direct scatter's cursor
  // tables still fit in cache), so it gets its own fixture: 4M rows over
  // a 2M-code domain, raw codes with no Relation behind them, timed
  // against the direct scatter above. The two must produce bit-identical
  // CSR arenas.
  {
    const size_t n = 4000000;
    const uint32_t num_codes = 2000000;
    std::vector<uint32_t> codes(n);
    Rng rng(19);
    for (size_t i = 0; i < n; ++i) {
      codes[i] = static_cast<uint32_t>(rng.UniformIndex(num_codes));
    }
    PositionListIndex direct = DirectScatterFromCodes(codes, num_codes);
    const double direct_ms = TimeMs([&] {
      if (DirectScatterFromCodes(codes, num_codes).num_rows() != n) {
        std::abort();
      }
    });
    PositionListIndex radix = PositionListIndex::FromCodes(codes, num_codes);
    if (radix.rows() != direct.rows() ||
        radix.cluster_offsets() != direct.cluster_offsets()) {
      std::fprintf(stderr, "streaming parity FAILED: radix scatter arena\n");
      simd_parity_ok = false;
    }
    const double radix_ms = TimeMs([&] {
      if (PositionListIndex::FromCodes(codes, num_codes).num_rows() != n) {
        std::abort();
      }
    });
    radix_build_4m = direct_ms / radix_ms;
    std::printf("radix scatter 4M rows / 2M codes: %.2f -> %.2f ms (%.2fx)\n",
                direct_ms, radix_ms, radix_build_4m);
    records.push_back({"build_highcard", "direct_scatter", n, direct_ms});
    records.push_back({"build_highcard", "radix_scatter", n, radix_ms});
  }

  std::vector<KernelTiming> kernel_timings;
  if (!TimeKernelTable(&kernel_timings)) simd_parity_ok = false;

  std::ofstream json("BENCH_partition.json");
  json << "{\n  " << BenchMetadataJson()
       << ",\n  \"sweep_width2_speedup_50k\": " << speedup_50k
       << ",\n  \"simd_parity\": \""
       << (simd_parity_ok ? "ok" : "MISMATCH")
       << "\",\n  \"tiled_sweep_speedup_50k\": " << tiled_sweep_50k
       << ",\n  \"radix_build_speedup_4m\": " << radix_build_4m
       << ",\n  \"simd_lowcard_speedup_50k\": " << simd_lowcard_50k
       << ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    json << "    {\"op\": \"" << r.op << "\", \"layout\": \"" << r.layout
         << "\", \"rows\": " << r.rows << ", \"ms\": " << r.ms << "}"
         << (i + 1 < records.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"simd_kernels\": [\n";
  for (size_t i = 0; i < kernel_timings.size(); ++i) {
    const KernelTiming& t = kernel_timings[i];
    json << "    {\"kernel\": \"" << t.kernel << "\", \"level\": \""
         << SimdLevelName(t.level) << "\", \"rows\": " << kKernelRows
         << ", \"runs\": " << kKernelRuns
         << ", \"calls_per_run\": " << kCallsPerRun << ", \"median_ms\": "
         << t.median_ms << ", \"min_ms\": " << t.min_ms
         << ", \"max_ms\": " << t.max_ms << "}"
         << (i + 1 < kernel_timings.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_partition.json (%zu records, 50k sweep %.2fx)\n",
              records.size(), speedup_50k);
  return simd_parity_ok ? 0 : 1;
}

}  // namespace
}  // namespace metaleak

int main() { return metaleak::Main(); }
