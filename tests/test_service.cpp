// Service-layer guarantees:
//  - SnapshotPool is a correct epoch/RCU pool: readers pinned on epoch N
//    stay valid while N+1..N+3 publish, retired snapshots are reclaimed
//    exactly when their last reader drops (verified through an
//    allocation-counting harness plus RoadmapSnapshot::live_count), and the
//    acquire/publish race is safe under real thread churn;
//  - each epoch's k-NN index, extended from the previous epoch's, answers
//    bit-identically to fresh finders over its roadmap, also while pinned
//    behind newer epochs and while other threads query it; a tree shared
//    by several epochs is freed with the last of them;
//  - densify epochs built on a recycled roadmap are bit-identical to epochs
//    built from a full copy, never alter a pinned epoch, never mix lineages,
//    and keep the pool at about two roadmaps of memory;
//  - the QueryEngine is deterministic: the same snapshot + request sequence
//    produce bit-identical paths for any worker count, and engine answers
//    are bit-identical to the sequential query_roadmap baseline;
//  - deadlines cancel within one pipeline granule and mark the result
//    degraded instead of wedging a worker;
//  - the read-only overlay query path never mutates the roadmap;
//  - engine metrics publish under deterministic keys.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "env/builders.hpp"
#include "planner/knn.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "util/rng.hpp"

// --- allocation counting hook ---------------------------------------------
// Local to this binary: pairs every successful global allocation with its
// deallocation so tests can assert that retiring an epoch actually frees
// memory (not merely that the RoadmapSnapshot destructor ran).

namespace {
std::atomic<std::int64_t> g_outstanding{0};
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_outstanding.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_outstanding.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  if (p) g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

namespace pmpl {
namespace {

std::int64_t outstanding_allocations() {
  return g_outstanding.load(std::memory_order_relaxed);
}

planner::Roadmap small_maze_roadmap(std::size_t attempts = 600,
                                    std::uint64_t seed = 7) {
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;
  planner::Prm prm(*e, params);
  prm.build(attempts, seed);
  return prm.roadmap();
}

// --- snapshot pool lifecycle ----------------------------------------------

TEST(SnapshotPool, EmptyPoolYieldsNoSnapshot) {
  service::SnapshotPool pool;
  EXPECT_FALSE(pool.acquire());
  EXPECT_EQ(pool.current_epoch(), 0u);
  EXPECT_EQ(pool.live_slots(), 0u);
}

TEST(SnapshotPool, PublishThenAcquirePinsCurrentEpoch) {
  const auto base = small_maze_roadmap();
  service::SnapshotPool pool;
  EXPECT_EQ(pool.publish(planner::Roadmap(base)), 1u);
  auto ref = pool.acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->epoch, 1u);
  EXPECT_EQ(ref->roadmap.num_vertices(), base.num_vertices());
  EXPECT_EQ(ref->roadmap.num_edges(), base.num_edges());
  EXPECT_EQ(pool.current_readers(), 1u);
  ref.release();
  EXPECT_EQ(pool.current_readers(), 0u);
}

TEST(SnapshotPool, PinnedReaderSurvivesThreeNewerEpochs) {
  const auto base = small_maze_roadmap();
  service::SnapshotPool pool;
  pool.publish(planner::Roadmap(base));
  auto pinned = pool.acquire();
  ASSERT_TRUE(pinned);
  ASSERT_EQ(pinned->epoch, 1u);

  // Publish epochs 2..4 while epoch 1 stays pinned. The pinned snapshot
  // must remain byte-for-byte readable throughout.
  for (std::uint64_t ep = 2; ep <= 4; ++ep) {
    EXPECT_EQ(pool.publish(planner::Roadmap(base)), ep);
    EXPECT_EQ(pool.current_epoch(), ep);
    EXPECT_EQ(pinned->epoch, 1u);
    EXPECT_EQ(pinned->roadmap.num_vertices(), base.num_vertices());
    EXPECT_EQ(pinned->roadmap.num_edges(), base.num_edges());
  }

  // Unpinned intermediate epochs 2 and 3 were retired and reclaimed as
  // epoch 3 and 4 published; alive now: pinned epoch 1 + current epoch 4.
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), 2u);
  EXPECT_EQ(pool.reclaimed_total(), 2u);
  EXPECT_EQ(pool.live_slots(), 2u);

  // Dropping the last pin on the retired epoch 1 reclaims it immediately.
  pinned.release();
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), 1u);
  EXPECT_EQ(pool.reclaimed_total(), 3u);
  EXPECT_EQ(pool.live_slots(), 1u);
}

TEST(SnapshotPool, RetiredSnapshotMemoryIsActuallyFreed) {
  const auto base = small_maze_roadmap();
  service::SnapshotPool pool;
  pool.publish(planner::Roadmap(base));

  const std::int64_t before = outstanding_allocations();
  {
    auto pinned = pool.acquire();
    ASSERT_TRUE(pinned);
    pool.publish(planner::Roadmap(base));  // retires epoch 1, still pinned
    EXPECT_GT(outstanding_allocations(), before);
  }  // last reader drops -> epoch 1 reclaimed here

  // Epoch 2's snapshot is the only growth left; freeing it must return the
  // outstanding-allocation count to the baseline.
  pool.publish(planner::Roadmap());  // retires + reclaims epoch 2
  auto cur = pool.acquire();
  ASSERT_TRUE(cur);
  EXPECT_EQ(cur->epoch, 3u);
  EXPECT_EQ(cur->roadmap.num_vertices(), 0u);
  cur.release();
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), 1u);
  // Allow the empty epoch-3 snapshot's own handful of allocations.
  EXPECT_LT(outstanding_allocations() - before, 64);
}

TEST(SnapshotPool, SevenOldEpochsCanStayPinnedAtOnce) {
  // kSlots = 8: seven retired epochs pinned by laggard readers plus the
  // current epoch occupy the whole pool; every pinned epoch stays intact.
  service::SnapshotPool pool;
  std::vector<service::SnapshotRef> pins;
  for (std::uint64_t ep = 1; ep <= service::SnapshotPool::kSlots - 1; ++ep) {
    planner::Roadmap g;
    const auto e = env::maze_2d();
    Xoshiro256ss rng(ep);
    for (std::uint64_t v = 0; v < ep; ++v)
      g.add_vertex({e->space().sample(rng), 0});
    EXPECT_EQ(pool.publish(std::move(g)), ep);
    pins.push_back(pool.acquire());
    ASSERT_TRUE(pins.back());
  }
  EXPECT_EQ(pool.publish(planner::Roadmap()), 8u);
  EXPECT_EQ(pool.live_slots(), service::SnapshotPool::kSlots);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pins[i]->epoch, i + 1);
    EXPECT_EQ(pins[i]->roadmap.num_vertices(), i + 1);
  }
  pins.clear();
  EXPECT_EQ(pool.live_slots(), 1u);  // only the current epoch remains
}

TEST(SnapshotPool, DestructorReclaimsEverything) {
  const std::uint64_t live_before = service::RoadmapSnapshot::live_count();
  {
    service::SnapshotPool pool;
    pool.publish(small_maze_roadmap());
    pool.publish(small_maze_roadmap());
  }
  EXPECT_EQ(service::RoadmapSnapshot::live_count(), live_before);
}

TEST(SnapshotPool, AcquireReleaseRaceWithPublishChurn) {
  // The TSan target for the reader protocol: hammer acquire/read/release
  // from several threads while a publisher keeps swapping epochs. Readers
  // must never observe a torn snapshot (epoch and vertex count are
  // published together and checked for consistency).
  const auto base = small_maze_roadmap(200, 3);
  service::SnapshotPool pool;
  pool.publish(planner::Roadmap(base));

  constexpr int kReaders = 4;
  constexpr int kPublishes = 40;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto ref = pool.acquire();
        if (!ref) continue;
        // Every published roadmap has exactly base vertices + epoch extras.
        const std::uint64_t extra =
            ref->roadmap.num_vertices() - base.num_vertices();
        if (extra != (ref->epoch - 1) % 5) torn.store(true);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto e = env::maze_2d();
  Xoshiro256ss rng(11);
  for (int p = 0; p < kPublishes; ++p) {
    planner::Roadmap g(base);
    for (std::uint64_t v = 0; v < static_cast<std::uint64_t>((p + 1) % 5);
         ++v)
      g.add_vertex({e->space().sample(rng), 0});
    pool.publish(std::move(g));
  }
  // Let readers overlap the final epoch before stopping.
  while (reads.load(std::memory_order_relaxed) < 100) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GE(reads.load(), 100u);
  EXPECT_EQ(pool.published_total(), static_cast<std::uint64_t>(kPublishes) + 1);
  // With no readers left, everything but the current epoch is reclaimed.
  EXPECT_EQ(pool.live_slots(), 1u);
  EXPECT_EQ(pool.reclaimed_total(), static_cast<std::uint64_t>(kPublishes));
}

TEST(SnapshotPool, DensifyAndPublishIsDeterministic) {
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;

  service::SnapshotPool a, b;
  a.publish(small_maze_roadmap());
  b.publish(small_maze_roadmap());
  planner::PlannerStats sa, sb;
  EXPECT_EQ(service::densify_and_publish(a, *e, params, 300, 21, &sa), 2u);
  EXPECT_EQ(service::densify_and_publish(b, *e, params, 300, 21, &sb), 2u);

  auto ra = a.acquire();
  auto rb = b.acquire();
  ASSERT_TRUE(ra);
  ASSERT_TRUE(rb);
  EXPECT_GT(ra->roadmap.num_vertices(), small_maze_roadmap().num_vertices());
  EXPECT_EQ(ra->roadmap.num_vertices(), rb->roadmap.num_vertices());
  EXPECT_EQ(ra->roadmap.num_edges(), rb->roadmap.num_edges());
  EXPECT_EQ(sa.cd.queries, sb.cd.queries);
}

// --- query engine ----------------------------------------------------------

std::vector<service::QueryRequest> valid_requests(const env::Environment& e,
                                                  std::size_t n,
                                                  std::uint64_t seed,
                                                  std::size_t k) {
  Xoshiro256ss rng(seed);
  std::vector<service::QueryRequest> reqs;
  while (reqs.size() < n) {
    service::QueryRequest q;
    q.start = e.space().sample(rng);
    q.goal = e.space().sample(rng);
    if (!e.validity().valid(q.start) || !e.validity().valid(q.goal)) continue;
    q.k = k;
    reqs.push_back(std::move(q));
  }
  return reqs;
}

struct ServiceFixture : ::testing::Test {
  void SetUp() override {
    e = env::maze_2d();
    params.k_neighbors = 8;
    params.resolution = 0.5;
    planner::Prm prm(*e, params);
    prm.build(2500, 17);
    roadmap = prm.roadmap();
    pool.publish(planner::Roadmap(roadmap));
  }

  std::vector<service::QueryRequest> make_requests(std::size_t n,
                                                   std::uint64_t seed) const {
    return valid_requests(*e, n, seed, params.k_neighbors);
  }

  std::unique_ptr<env::Environment> e;
  planner::PrmParams params;
  planner::Roadmap roadmap;
  service::SnapshotPool pool;
};

bool same_path(const std::vector<cspace::Config>& a,
               const std::vector<cspace::Config>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t d = 0; d < a[i].size(); ++d)
      if (a[i][d] != b[i][d]) return false;  // bit-identical, not approx
  }
  return true;
}

TEST_F(ServiceFixture, EngineAnswersMatchSequentialQueryRoadmapBitwise) {
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  const auto reqs = make_requests(12, 99);
  const auto results = engine.run_batch(reqs);
  ASSERT_EQ(results.size(), reqs.size());

  std::size_t solved = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto baseline =
        planner::query_roadmap(*e, roadmap, reqs[i].start, reqs[i].goal,
                               reqs[i].k, params.resolution);
    if (results[i].status == service::QueryStatus::kSolved) {
      ++solved;
      ASSERT_TRUE(baseline.has_value()) << "query " << i;
      EXPECT_TRUE(same_path(results[i].path, *baseline)) << "query " << i;
      EXPECT_FALSE(results[i].degraded);
      EXPECT_EQ(results[i].epoch, 1u);
      EXPECT_GT(results[i].length, 0.0);
    } else {
      EXPECT_EQ(results[i].status, service::QueryStatus::kUnreachable);
      EXPECT_FALSE(baseline.has_value()) << "query " << i;
    }
  }
  EXPECT_GE(solved, reqs.size() / 2) << "maze roadmap too sparse for test";
}

TEST_F(ServiceFixture, BatchResultsAreBitIdenticalAcrossWorkerCounts) {
  const auto reqs = make_requests(10, 123);
  std::vector<std::vector<service::QueryResult>> runs;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    service::QueryEngineConfig cfg;
    cfg.workers = workers;
    cfg.resolution = params.resolution;
    runtime::MetricsRegistry metrics;
    cfg.metrics = &metrics;
    service::QueryEngine engine(*e, pool, cfg);
    runs.push_back(engine.run_batch(reqs));
    // Re-running the same batch on the same engine must also be identical.
    const auto again = engine.run_batch(reqs);
    ASSERT_EQ(again.size(), runs.back().size());
    for (std::size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i].status, runs.back()[i].status);
      EXPECT_TRUE(same_path(again[i].path, runs.back()[i].path));
    }
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].status, runs[1][i].status) << "query " << i;
    EXPECT_EQ(runs[0][i].length, runs[1][i].length) << "query " << i;
    EXPECT_TRUE(same_path(runs[0][i].path, runs[1][i].path)) << "query " << i;
  }
}

TEST_F(ServiceFixture, ExpiredDeadlineMissesWithinOneGranuleAndIsDegraded) {
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  // A mixed batch: one already-expired deadline among healthy queries.
  // The expired query must come back kDeadlineMiss + degraded without
  // poisoning its neighbors, and fast (it is cancelled at a stage
  // boundary, never run to completion).
  auto reqs = make_requests(4, 321);
  reqs[1].deadline = runtime::Deadline::after_s(-1.0);
  const auto results = engine.run_batch(reqs);
  ASSERT_EQ(results.size(), reqs.size());

  EXPECT_EQ(results[1].status, service::QueryStatus::kDeadlineMiss);
  EXPECT_TRUE(results[1].degraded);
  EXPECT_TRUE(results[1].path.empty());
  EXPECT_LT(results[1].latency_s, 1.0);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}})
    EXPECT_NE(results[i].status, service::QueryStatus::kDeadlineMiss)
        << "query " << i;

  EXPECT_EQ(metrics.counter("service/deadline_missed").value(), 1u);
  EXPECT_EQ(metrics.counter("service/queries_total").value(), reqs.size());
}

TEST_F(ServiceFixture, InvalidEndpointsAndEmptyPoolAreReported) {
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  auto reqs = make_requests(1, 5);
  service::QueryRequest bad = reqs[0];
  Xoshiro256ss rng(6);
  do {  // draw a start inside an obstacle
    bad.start = e->space().sample(rng);
  } while (e->validity().valid(bad.start));
  const auto r = engine.run_batch(std::vector<service::QueryRequest>{bad});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].status, service::QueryStatus::kInvalidEndpoint);

  service::SnapshotPool empty;
  service::QueryEngine cold(*e, empty, cfg);
  const auto r2 = cold.run_batch(reqs);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].status, service::QueryStatus::kNoSnapshot);
}

TEST_F(ServiceFixture, QueriesNeverMutateTheSnapshotRoadmap) {
  const auto vertices = roadmap.num_vertices();
  const auto edges = roadmap.num_edges();

  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);
  engine.run_batch(make_requests(6, 777));

  auto ref = pool.acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->roadmap.num_vertices(), vertices);
  EXPECT_EQ(ref->roadmap.num_edges(), edges);

  // Same property for the sequential path on a local const roadmap.
  const auto reqs = make_requests(2, 778);
  planner::query_roadmap(*e, roadmap, reqs[0].start, reqs[0].goal, 8,
                         params.resolution);
  EXPECT_EQ(roadmap.num_vertices(), vertices);
  EXPECT_EQ(roadmap.num_edges(), edges);
}

TEST_F(ServiceFixture, SubmitDrainPreservesAdmissionOrderAndIds) {
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  const auto reqs = make_requests(5, 42);
  std::vector<std::uint64_t> ids;
  ids.reserve(reqs.size());
  for (const auto& q : reqs) ids.push_back(engine.submit(q));
  const auto drained = engine.drain();
  ASSERT_EQ(drained.size(), reqs.size());
  const auto batch = engine.run_batch(reqs);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].first, ids[i]);
    EXPECT_EQ(drained[i].second.status, batch[i].status);
    EXPECT_TRUE(same_path(drained[i].second.path, batch[i].path));
  }
  EXPECT_TRUE(engine.drain().empty());
}

TEST_F(ServiceFixture, EngineServesConsistentlyAcrossEpochSwap) {
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  const auto reqs = make_requests(4, 1234);
  const auto before = engine.run_batch(reqs);
  service::densify_and_publish(pool, *e, params, 400, 55);
  const auto after = engine.run_batch(reqs);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(before[i].epoch, 1u);
    if (after[i].status == service::QueryStatus::kSolved) {
      EXPECT_EQ(after[i].epoch, 2u);
    }
    // Densification only adds vertices/edges: reachability never regresses.
    if (before[i].status == service::QueryStatus::kSolved) {
      EXPECT_EQ(after[i].status, service::QueryStatus::kSolved) << i;
    }
  }
  // Epoch 1 was published whole, so its index was built from scratch;
  // epoch 2 added fewer than a quarter of the indexed vertices, so its
  // index extends epoch 1's tree and the counter does not move.
  auto cur = pool.acquire();
  ASSERT_TRUE(cur);
  EXPECT_FALSE(cur->index_rebuilt);
  EXPECT_EQ(metrics.counter("service/finder_rebuilds").value(), 1u);
}

TEST_F(ServiceFixture, MetricsPublishUnderDeterministicKeys) {
  runtime::MetricsRegistry metrics;
  service::QueryEngineConfig cfg;
  cfg.resolution = params.resolution;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);
  engine.run_batch(make_requests(3, 9));
  engine.publish_pool_metrics();

  const std::string json = metrics.to_json();
  for (const char* key :
       {"service/queries_total", "service/queries_solved",
        "service/queries_unreachable", "service/queries_invalid",
        "service/deadline_missed", "service/finder_rebuilds",
        "service/latency_us", "service/epoch", "service/snapshots_live",
        "service/snapshot_readers", "service/snapshots_published",
        "service/snapshots_reclaimed", "service/snapshots_recycled"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << "missing metrics key: " << key;
  }
  EXPECT_EQ(metrics.counter("service/queries_total").value(), 3u);
  EXPECT_EQ(metrics.histogram("service/latency_us").count(), 3u);

  const auto lat = engine.latency();
  EXPECT_EQ(lat.count, 3u);
  EXPECT_GT(lat.p50_us, 0.0);
  EXPECT_LE(lat.p50_us, lat.p99_us);
  EXPECT_LE(lat.p99_us, lat.p999_us);
}

TEST(ServiceLatency, QuantilesReportLog2BucketUpperBounds) {
  runtime::Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(3.0);   // bucket [2,4)
  h.observe(1000.0);                             // bucket [512,1024)
  const auto q = service::summarize_latency(h);
  EXPECT_EQ(q.count, 100u);
  EXPECT_DOUBLE_EQ(q.p50_us, 4.0);
  EXPECT_DOUBLE_EQ(q.p99_us, 4.0);
  EXPECT_DOUBLE_EQ(q.p999_us, 1024.0);

  runtime::Histogram empty;
  const auto z = service::summarize_latency(empty);
  EXPECT_EQ(z.count, 0u);
  EXPECT_DOUBLE_EQ(z.p50_us, 0.0);
}

TEST_F(ServiceFixture, ConcurrentBatchesAgainstChurningPoolStayValid) {
  // End-to-end RCU pressure: a background thread keeps densifying and
  // publishing new epochs while the engine serves waves. Every solved
  // answer must be a valid path whose epoch tag is one the pool actually
  // published.
  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t seed = 1000;
    while (!stop.load(std::memory_order_acquire))
      service::densify_and_publish(pool, *e, params, 50, seed++);
  });

  const auto reqs = make_requests(4, 2024);
  std::size_t solved = 0;
  for (int wave = 0; wave < 6; ++wave) {
    for (const auto& r : engine.run_batch(reqs)) {
      if (r.status != service::QueryStatus::kSolved) continue;
      ++solved;
      EXPECT_GE(r.epoch, 1u);
      EXPECT_LE(r.epoch, pool.published_total());
      EXPECT_TRUE(planner::path_valid(*e, r.path, params.resolution));
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_GT(solved, 0u);
}

// --- per-epoch k-NN index --------------------------------------------------

bool same_neighbors(std::span<const planner::Neighbor> a,
                    std::span<const planner::Neighbor> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  return true;
}

bool same_tree(const std::weak_ptr<const void>& a,
               const std::weak_ptr<const void>& b) {
  return !a.owner_before(b) && !b.owner_before(a);
}

/// `snap`'s own index against a fresh kd-tree and a brute-force scan over
/// its roadmap: every query at every k must agree bit for bit.
::testing::AssertionResult index_matches_fresh_finders(
    const service::RoadmapSnapshot& snap, const cspace::CSpace& space,
    const std::vector<cspace::Config>& queries) {
  const planner::KdTreeKnn& index = snap.index(space);
  if (index.size() != snap.roadmap.num_vertices())
    return ::testing::AssertionFailure()
           << "epoch " << snap.epoch << " indexes " << index.size() << " of "
           << snap.roadmap.num_vertices() << " vertices";
  planner::KdTreeKnn fresh(space);
  planner::BruteForceKnn brute(space);
  const auto n = static_cast<graph::VertexId>(snap.roadmap.num_vertices());
  for (graph::VertexId v = 0; v < n; ++v) {
    fresh.insert(v, snap.roadmap.vertex(v).cfg);
    brute.insert(v, snap.roadmap.vertex(v).cfg);
  }
  planner::KdTreeKnn::Scratch scratch;
  for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{25}})
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto got = index.nearest(queries[i], k, scratch);
      if (!same_neighbors(got, fresh.nearest(queries[i], k)) ||
          !same_neighbors(got, brute.nearest(queries[i], k)))
        return ::testing::AssertionFailure()
               << "epoch " << snap.epoch << ", k " << k << ", query " << i;
    }
  return ::testing::AssertionSuccess();
}

/// Random configurations plus some roadmap vertices (exact hits).
std::vector<cspace::Config> knn_probe_queries(const env::Environment& e,
                                              const planner::Roadmap& g,
                                              std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<cspace::Config> qs;
  for (int i = 0; i < 24; ++i) qs.push_back(e.space().sample(rng));
  for (std::size_t v = 0; v < g.num_vertices(); v += 37)
    qs.push_back(g.vertex(static_cast<graph::VertexId>(v)).cfg);
  return qs;
}

TEST(SnapshotIndex, ExtendedIndexesStayExactAcrossFortyEpochs) {
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;
  service::SnapshotPool pool;
  pool.publish(small_maze_roadmap(300, 7));

  service::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.resolution = params.resolution;
  runtime::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  service::QueryEngine engine(*e, pool, cfg);
  const auto reqs = valid_requests(*e, 3, 77, params.k_neighbors);

  std::weak_ptr<const void> prev_tree;
  std::size_t prev_indexed = 0;
  {
    auto first = pool.acquire();
    ASSERT_TRUE(first);
    ASSERT_TRUE(first->index_rebuilt);
    prev_tree = first->index(e->space()).tree_handle();
    prev_indexed = first->index(e->space()).indexed_size();
    ASSERT_GT(prev_indexed, 0u);
  }

  constexpr std::uint64_t kEpochs = 45;
  std::size_t rebuilds = 0;
  std::size_t solved = 0;
  std::vector<service::SnapshotRef> pinned;
  std::vector<cspace::Config> queries;
  for (std::uint64_t i = 0; i < kEpochs; ++i) {
    const std::uint64_t epoch =
        service::densify_and_publish(pool, *e, params, 40, 900 + i);
    auto cur = pool.acquire();
    ASSERT_TRUE(cur);
    ASSERT_EQ(cur->epoch, epoch);
    const planner::KdTreeKnn& index = cur->index(e->space());

    // A rebuild folds every vertex into a new tree; an extension keeps the
    // previous epoch's tree and only buffers this epoch's vertices.
    if (cur->index_rebuilt) {
      ++rebuilds;
      EXPECT_GT(index.indexed_size(), prev_indexed) << "epoch " << epoch;
      EXPECT_EQ(index.indexed_size(), cur->roadmap.num_vertices());
      EXPECT_FALSE(same_tree(index.tree_handle(), prev_tree));
    } else {
      EXPECT_EQ(index.indexed_size(), prev_indexed) << "epoch " << epoch;
      EXPECT_TRUE(same_tree(index.tree_handle(), prev_tree));
    }
    prev_indexed = index.indexed_size();
    prev_tree = index.tree_handle();

    queries = knn_probe_queries(*e, cur->roadmap, 404 + i);
    EXPECT_TRUE(index_matches_fresh_finders(*cur, e->space(), queries));

    const auto results = engine.run_batch(reqs);
    for (std::size_t j = 0; j < reqs.size(); ++j) {
      const auto baseline =
          planner::query_roadmap(*e, cur->roadmap, reqs[j].start,
                                 reqs[j].goal, reqs[j].k, params.resolution);
      if (results[j].status == service::QueryStatus::kSolved) {
        ++solved;
        EXPECT_EQ(results[j].epoch, epoch);
        ASSERT_TRUE(baseline.has_value()) << "epoch " << epoch << " q " << j;
        EXPECT_TRUE(same_path(results[j].path, *baseline))
            << "epoch " << epoch << " q " << j;
      } else {
        EXPECT_EQ(results[j].status, service::QueryStatus::kUnreachable);
        EXPECT_FALSE(baseline.has_value()) << "epoch " << epoch << " q " << j;
      }
    }
    if (i % 10 == 3) pinned.push_back(std::move(cur));
  }
  EXPECT_GE(rebuilds, 2u);
  EXPECT_LE(rebuilds, kEpochs / 2);
  EXPECT_GT(solved, 0u);
  // The engine served epochs 2 onward and counted only the ones whose
  // index was built from scratch.
  EXPECT_EQ(metrics.counter("service/finder_rebuilds").value(), rebuilds);

  // Old epochs stay exact after every newer publish, and a tree lives
  // exactly as long as some epoch still refers to it.
  ASSERT_EQ(pinned.size(), 5u);
  std::vector<std::weak_ptr<const void>> trees;
  for (const auto& p : pinned) {
    EXPECT_TRUE(index_matches_fresh_finders(*p, e->space(), queries));
    trees.push_back(p->index(e->space()).tree_handle());
  }
  const auto current_tree = pool.acquire()->index(e->space()).tree_handle();
  pinned.clear();
  for (const auto& t : trees)
    EXPECT_EQ(t.expired(), !same_tree(t, current_tree));
}

TEST(SnapshotIndex, SharedTreeIsFreedWithTheLastEpochReferringToIt) {
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;
  service::SnapshotPool pool;
  pool.publish(small_maze_roadmap());

  // Epoch 1 builds its index on first use; the insertion buffer moves into
  // the tree, so what that use leaves allocated is exactly the tree.
  auto first = pool.acquire();
  ASSERT_TRUE(first);
  std::int64_t mark = outstanding_allocations();
  const planner::KdTreeKnn& index = first->index(e->space());
  const std::int64_t tree_allocs = outstanding_allocations() - mark;
  ASSERT_GT(index.indexed_size(), 0u);
  ASSERT_EQ(index.size(), index.indexed_size());
  ASSERT_GT(tree_allocs, 0);

  // Zero attempts: epoch 2 holds a copy of epoch 1's roadmap and an index
  // sharing epoch 1's tree with an empty buffer, so the two epochs own the
  // same allocations apart from the tree.
  EXPECT_EQ(service::densify_and_publish(pool, *e, params, 0, 1), 2u);
  auto second = pool.acquire();
  ASSERT_TRUE(second);
  EXPECT_FALSE(second->index_rebuilt);
  EXPECT_EQ(second->roadmap.num_vertices(), first->roadmap.num_vertices());
  EXPECT_EQ(second->roadmap.num_edges(), first->roadmap.num_edges());
  EXPECT_TRUE(same_tree(second->index(e->space()).tree_handle(),
                        first->index(e->space()).tree_handle()));
  pool.publish(planner::Roadmap());  // retires epoch 2

  // Reclaiming epoch 1 frees its roadmap and snapshot but not the tree
  // epoch 2 still refers to; reclaiming epoch 2 frees the tree as well.
  mark = outstanding_allocations();
  first.release();
  const std::int64_t freed_first = mark - outstanding_allocations();
  mark = outstanding_allocations();
  second.release();
  const std::int64_t freed_second = mark - outstanding_allocations();
  EXPECT_EQ(pool.reclaimed_total(), 2u);
  EXPECT_GT(freed_first, 0);
  EXPECT_EQ(freed_second - freed_first, tree_allocs);
}

TEST(SnapshotIndex, ReadersQueryAPinnedIndexWhileThePublisherExtendsIt) {
  // The TSan target for the shared index: readers run the const traversal
  // on one pinned epoch's index, each with its own scratch, while the
  // publisher copies that index, extends the copy and rebuilds its tree.
  const auto e = env::maze_2d();
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;
  service::SnapshotPool pool;
  pool.publish(small_maze_roadmap(300, 7));
  service::densify_and_publish(pool, *e, params, 40, 31);
  auto pinned = pool.acquire();
  ASSERT_TRUE(pinned);
  const planner::KdTreeKnn& index = pinned->index(e->space());
  ASSERT_GT(index.indexed_size(), 0u);
  ASSERT_GT(index.size(), index.indexed_size());  // tree plus buffer

  constexpr std::size_t kK = 8;
  const auto queries = knn_probe_queries(*e, pinned->roadmap, 5);
  std::vector<std::vector<planner::Neighbor>> expected;
  {
    planner::BruteForceKnn brute(e->space());
    const auto n = static_cast<graph::VertexId>(pinned->roadmap.num_vertices());
    for (graph::VertexId v = 0; v < n; ++v)
      brute.insert(v, pinned->roadmap.vertex(v).cfg);
    for (const auto& q : queries) {
      const auto r = brute.nearest(q, kK);
      expected.emplace_back(r.begin(), r.end());
    }
  }

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      planner::KdTreeKnn::Scratch scratch;
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t i = 0; i < queries.size(); ++i)
          if (!same_neighbors(index.nearest(queries[i], kK, scratch),
                              expected[i]))
            mismatch.store(true);
        rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  bool rebuilt = false;
  for (std::uint64_t i = 0; i < 12; ++i) {
    service::densify_and_publish(pool, *e, params, 40, 600 + i);
    rebuilt = rebuilt || pool.acquire()->index_rebuilt;
  }
  while (rounds.load(std::memory_order_relaxed) < 2 * kReaders)
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(mismatch.load());
  EXPECT_TRUE(rebuilt);
  EXPECT_TRUE(index_matches_fresh_finders(*pinned, e->space(), queries));
}

// --- recycled epoch storage ------------------------------------------------

/// Bit-level equality of two roadmaps: vertex bytes, adjacency order and
/// edge lengths, edge count.
::testing::AssertionResult same_roadmap(const planner::Roadmap& a,
                                        const planner::Roadmap& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges())
    return ::testing::AssertionFailure()
           << a.num_vertices() << "/" << a.num_edges() << " vs "
           << b.num_vertices() << "/" << b.num_edges() << " vertices/edges";
  const auto n = static_cast<graph::VertexId>(a.num_vertices());
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto& ca = a.vertex(v).cfg;
    const auto& cb = b.vertex(v).cfg;
    if (ca.size() != cb.size() || a.vertex(v).region != b.vertex(v).region ||
        std::memcmp(ca.data(), cb.data(), sizeof(double) * ca.size()) != 0)
      return ::testing::AssertionFailure() << "vertex " << v;
    const auto ea = a.edges_of(v);
    const auto eb = b.edges_of(v);
    if (ea.size() != eb.size())
      return ::testing::AssertionFailure() << "degree of vertex " << v;
    for (std::size_t i = 0; i < ea.size(); ++i)
      if (ea[i].to != eb[i].to ||
          std::memcmp(&ea[i].prop.length, &eb[i].prop.length,
                      sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "edge " << i << " of vertex " << v;
  }
  return ::testing::AssertionSuccess();
}

/// FNV-1a over the bytes same_roadmap compares.
std::uint64_t roadmap_hash(const planner::Roadmap& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 1099511628211ull;
  };
  const auto n = static_cast<graph::VertexId>(g.num_vertices());
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto& c = g.vertex(v).cfg;
    mix(c.data(), sizeof(double) * c.size());
    mix(&g.vertex(v).region, sizeof(std::uint32_t));
    for (const auto& edge : g.edges_of(v)) {
      mix(&edge.to, sizeof edge.to);
      mix(&edge.prop.length, sizeof edge.prop.length);
    }
  }
  const std::size_t edges = g.num_edges();
  mix(&edges, sizeof edges);
  return h;
}

planner::PrmParams recycling_params() {
  planner::PrmParams params;
  params.k_neighbors = 6;
  params.resolution = 0.5;
  return params;
}

TEST(SnapshotRecycling, RecycledEpochsMatchCopiedEpochsBitForBit) {
  // Three pools run the same densify chain. `recycled` has no readers, so
  // every epoch after the first is built on the previous-but-one epoch's
  // roadmap, caught up by one epoch. `copied` has a reader pinning every
  // epoch, so there is no spare and the epoch is built from an empty
  // roadmap (a full copy), except once per window of six pins, when the
  // reader drops all but the current epoch. `lagging` releases only its
  // oldest pin, so every epoch is caught up from five epochs back.
  const auto e = env::maze_2d();
  const auto params = recycling_params();
  const auto base = small_maze_roadmap(300, 7);
  service::SnapshotPool recycled, copied, lagging;
  for (auto* pool : {&recycled, &copied, &lagging})
    pool->publish(planner::Roadmap(base));
  std::vector<service::SnapshotRef> copied_pins, lagging_pins;
  copied_pins.push_back(copied.acquire());
  lagging_pins.push_back(lagging.acquire());

  constexpr std::uint64_t kEpochs = 45;
  for (std::uint64_t i = 0; i < kEpochs; ++i) {
    for (auto* pool : {&recycled, &copied, &lagging})
      ASSERT_EQ(service::densify_and_publish(*pool, *e, params, 40, 300 + i),
                i + 2);
    const auto a = recycled.acquire();
    const auto b = copied.acquire();
    const auto c = lagging.acquire();
    EXPECT_TRUE(same_roadmap(a->roadmap, b->roadmap)) << "epoch " << i + 2;
    EXPECT_TRUE(same_roadmap(a->roadmap, c->roadmap)) << "epoch " << i + 2;
    EXPECT_GT(a->roadmap.num_vertices(), base.num_vertices());

    copied_pins.push_back(copied.acquire());
    if (copied_pins.size() == 6)
      copied_pins.erase(copied_pins.begin(), copied_pins.end() - 1);
    lagging_pins.push_back(lagging.acquire());
    if (lagging_pins.size() == 6) lagging_pins.erase(lagging_pins.begin());
  }
  // The first densify epoch has no retired predecessor to recycle.
  EXPECT_EQ(recycled.recycled_total(), kEpochs - 1);
  EXPECT_EQ(lagging.recycled_total(), kEpochs - 5);
  EXPECT_GE(copied.recycled_total(), 1u);
  EXPECT_LE(copied.recycled_total(), kEpochs / 5);

  runtime::MetricsRegistry metrics;
  recycled.publish_metrics(metrics);
  EXPECT_EQ(metrics.counter("service/snapshots_recycled").value(),
            kEpochs - 1);
  recycled.publish_metrics(metrics);  // deltas: no new recycling
  EXPECT_EQ(metrics.counter("service/snapshots_recycled").value(),
            kEpochs - 1);
}

TEST(SnapshotRecycling, PinnedEpochsStayUnchangedWhileSuccessorsRecycle) {
  const auto e = env::maze_2d();
  const auto params = recycling_params();
  service::SnapshotPool pool;
  pool.publish(small_maze_roadmap(300, 7));
  std::vector<std::pair<service::SnapshotRef, std::uint64_t>> pinned;
  for (std::uint64_t i = 0; i < 42; ++i) {
    service::densify_and_publish(pool, *e, params, 40, 500 + i);
    if (i % 10 == 3) {
      auto ref = pool.acquire();
      const std::uint64_t h = roadmap_hash(ref->roadmap);
      pinned.emplace_back(std::move(ref), h);
    }
  }
  EXPECT_GE(pool.recycled_total(), 35u);
  ASSERT_EQ(pinned.size(), 4u);
  for (const auto& [ref, h] : pinned)
    EXPECT_EQ(roadmap_hash(ref->roadmap), h) << "epoch " << ref->epoch;
}

TEST(SnapshotRecycling, WholePublishStartsANewLineage) {
  // A chain on roadmap A, then A' published whole in its middle. The spare
  // left by A's chain, and an A epoch pinned across the switch and released
  // after it, must never seed an epoch of the A' chain: every A' epoch
  // equals the same chain run in a pool that only ever saw A'.
  const auto e = env::maze_2d();
  const auto params = recycling_params();
  service::SnapshotPool pool, reference;
  pool.publish(small_maze_roadmap(300, 7));
  for (std::uint64_t i = 0; i < 6; ++i)
    service::densify_and_publish(pool, *e, params, 40, 700 + i);
  auto old_epoch = pool.acquire();
  const std::uint64_t old_lineage = old_epoch->lineage;

  const auto switched = small_maze_roadmap(250, 8);
  pool.publish(planner::Roadmap(switched));
  reference.publish(planner::Roadmap(switched));
  const std::uint64_t recycled_before = pool.recycled_total();
  for (std::uint64_t i = 0; i < 6; ++i) {
    service::densify_and_publish(pool, *e, params, 40, 800 + i);
    service::densify_and_publish(reference, *e, params, 40, 800 + i);
    if (i == 1) old_epoch.release();  // reclaims an epoch of the old chain
    const auto a = pool.acquire();
    const auto b = reference.acquire();
    EXPECT_NE(a->lineage, old_lineage);
    EXPECT_TRUE(same_roadmap(a->roadmap, b->roadmap)) << "step " << i;
  }
  // The first epoch after the switch found no spare: the old chain's was
  // dropped. Each later one recycled the new chain's previous-but-one.
  EXPECT_EQ(pool.recycled_total() - recycled_before, 5u);
  EXPECT_EQ(reference.recycled_total(), 5u);
}

TEST(SnapshotRecycling, UnpinnedChainHoldsAboutTwoRoadmaps) {
  const auto e = env::maze_2d();
  const auto params = recycling_params();
  const auto base = small_maze_roadmap(300, 7);
  {  // first use of the planner code paths, outside the measurement
    service::SnapshotPool warm;
    warm.publish(planner::Roadmap(base));
    service::densify_and_publish(warm, *e, params, 40, 1);
  }

  const std::int64_t baseline = outstanding_allocations();
  {
    service::SnapshotPool pool;
    pool.publish(planner::Roadmap(base));
    for (std::uint64_t i = 0; i < 40; ++i) {
      service::densify_and_publish(pool, *e, params, 40, 1100 + i);
      const std::int64_t held = outstanding_allocations() - baseline;
      // Allocations of one roadmap of the current size.
      std::int64_t one_roadmap = 0;
      {
        auto cur = pool.acquire();
        const std::int64_t mark = outstanding_allocations();
        const planner::Roadmap copy(cur->roadmap);
        one_roadmap = outstanding_allocations() - mark;
      }
      // The current epoch and the spare, plus the current snapshot and its
      // index (a few dozen allocations).
      EXPECT_LE(held, 2 * one_roadmap + 64) << "epoch " << i + 2;
    }
    EXPECT_EQ(pool.recycled_total(), 39u);
    EXPECT_EQ(pool.live_slots(), 1u);
  }
  EXPECT_EQ(outstanding_allocations(), baseline);
}

TEST(SnapshotRecycling, ReaderThreadsRecycleWhileThePublisherDensifies) {
  // The TSan target for recycling: readers pin, read and unpin the current
  // epoch in a loop, so the last unpin of a retired epoch, and with it the
  // move of its roadmap into the spare, often happens on a reader thread
  // while the publisher takes the spare and extends it.
  const auto e = env::maze_2d();
  const auto params = recycling_params();
  service::SnapshotPool pool;
  pool.publish(small_maze_roadmap(300, 7));

  constexpr std::uint64_t kPublishes = 30;
  std::vector<std::uint64_t> expected(kPublishes + 2, 0);
  expected[1] = roadmap_hash(pool.acquire()->roadmap);

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> seen(
      kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        auto ref = pool.acquire();
        seen[t].emplace_back(ref->epoch, roadmap_hash(ref->roadmap));
      }
    });
  }
  for (std::uint64_t i = 0; i < kPublishes; ++i) {
    const std::uint64_t epoch =
        service::densify_and_publish(pool, *e, params, 30, 1300 + i);
    expected[epoch] = roadmap_hash(pool.acquire()->roadmap);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  std::size_t reads = 0;
  for (const auto& per_thread : seen)
    for (const auto& [epoch, h] : per_thread) {
      ++reads;
      ASSERT_LT(epoch, expected.size());
      EXPECT_EQ(h, expected[epoch]) << "epoch " << epoch;
    }
  EXPECT_GT(reads, 0u);
  EXPECT_GT(pool.recycled_total(), 0u);
  EXPECT_EQ(pool.live_slots(), 1u);
  EXPECT_EQ(pool.reclaimed_total(), kPublishes);
}

}  // namespace
}  // namespace pmpl
