// Concurrency stress for the audit service, written to run under
// ThreadSanitizer (the CI tsan job includes it): several threads fire
// mixed audit / leakage / attack queries at one service while another
// thread applies row batches and registers duplicate content. Queries
// must keep running against superseded snapshots without tearing, and
// the post-batch state must still be bit-identical to a from-scratch
// encoding of the reference rows.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets/synthetic.h"
#include "data/encoded_relation.h"
#include "service/audit_service.h"

namespace metaleak {
namespace {

TEST(ServiceStressTest, ConcurrentMixedQueriesAndBatches) {
  Result<Relation> base = datasets::SyntheticUniform(200, 3, 1, 5, 99);
  ASSERT_TRUE(base.ok());
  Relation reference = *base;

  AuditService service;
  Result<SessionId> session = service.Register(reference);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const SessionId id = *session;

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};

  auto check = [&](bool ok) {
    if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> workers;
  // Audit queries (identifiability + Monte-Carlo + verdicts).
  workers.emplace_back([&] {
    AuditOptions options;
    options.experiment.rounds = 2;
    while (!stop.load(std::memory_order_acquire)) {
      check(service.Audit(id, options).ok());
    }
  });
  // Leakage queries (one generation method per call).
  workers.emplace_back([&] {
    ExperimentConfig config;
    config.rounds = 2;
    while (!stop.load(std::memory_order_acquire)) {
      check(service.MeasureLeakage(id, GenerationMethod::kFd, config).ok());
      check(
          service.MeasureLeakage(id, GenerationMethod::kRandom, config).ok());
    }
  });
  // Attack queries (per-tuple reconstruction risk).
  workers.emplace_back([&] {
    TupleRiskOptions options;
    options.rounds = 2;
    while (!stop.load(std::memory_order_acquire)) {
      check(service.TupleRisk(id, options).ok());
    }
  });
  // Snapshot readers + duplicate registrations (snapshot-cache traffic).
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Result<std::shared_ptr<const RelationSnapshot>> snap =
          service.Snapshot(id);
      check(snap.ok());
      if (snap.ok()) {
        check((*snap)->num_rows() > 0);
        Result<Relation> decoded = (*snap)->encoding().Decode();
        check(decoded.ok());
        if (decoded.ok()) check(service.Register(*decoded).ok());
      }
    }
  });

  // Mutator: serialized batches through the session, mirrored on the
  // value-level reference relation.
  for (size_t round = 0; round < 4; ++round) {
    // Let the query threads overlap each snapshot generation.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RowBatch batch;
    batch.delete_rows = {round, round + 7};
    batch.insert_rows.push_back(reference.Row(round));
    batch.insert_rows.push_back(reference.Row(round + 3));
    Result<LeakageDelta> delta = service.ApplyBatch(id, batch);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();

    std::vector<size_t> deletes = batch.delete_rows;
    std::sort(deletes.begin(), deletes.end());
    Relation next = Relation::Empty(reference.schema());
    size_t d = 0;
    for (size_t r = 0; r < reference.num_rows(); ++r) {
      if (d < deletes.size() && deletes[d] == r) {
        ++d;
        continue;
      }
      ASSERT_TRUE(next.AppendRow(reference.Row(r)).ok());
    }
    for (const std::vector<Value>& row : batch.insert_rows) {
      ASSERT_TRUE(next.AppendRow(row).ok());
    }
    reference = std::move(next);
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0u);

  // Exactness survived the storm: the live snapshot is bit-identical to
  // a from-scratch encoding of the reference rows.
  Result<std::shared_ptr<const RelationSnapshot>> final_snap =
      service.Snapshot(id);
  ASSERT_TRUE(final_snap.ok());
  EXPECT_EQ((*final_snap)->encoding().Fingerprint(),
            EncodedRelation::Encode(reference).Fingerprint());
  EXPECT_GT(service.stats().snapshot_hits +
                service.stats().snapshot_misses,
            0u);
}

}  // namespace
}  // namespace metaleak
