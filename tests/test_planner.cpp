// Tests for planner/: k-NN structures, sequential PRM, sequential RRT,
// roadmap queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cspace/local_planner.hpp"
#include "env/builders.hpp"
#include "graph/tree_utils.hpp"
#include "graph/union_find.hpp"
#include "planner/knn.hpp"
#include "planner/prm.hpp"
#include "planner/query.hpp"
#include "planner/rrt.hpp"
#include "util/rng.hpp"

namespace pmpl::planner {
namespace {

using cspace::Config;
using cspace::CSpace;

// --- k-NN --------------------------------------------------------------

class KnnProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(KnnProperty, KdTreeMatchesBruteForce) {
  const auto [n, seed] = GetParam();
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(seed);
  KdTreeKnn tree(space);
  BruteForceKnn brute(space);
  for (int i = 0; i < n; ++i) {
    const Config c = space.sample(rng);
    tree.insert(static_cast<graph::VertexId>(i), c);
    brute.insert(static_cast<graph::VertexId>(i), c);
  }
  for (int q = 0; q < 25; ++q) {
    const Config query = space.sample(rng);
    for (const std::size_t k : {1u, 4u, 8u}) {
      auto a = tree.nearest(query, k);
      auto b = brute.nearest(query, k);
      ASSERT_EQ(a.size(), b.size());
      // Canonical order (distance, id) makes results bit-identical, not
      // merely close: both finders must agree exactly.
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id)
            << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
        EXPECT_EQ(a[i].distance, b[i].distance)
            << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, KnnProperty,
    ::testing::Combine(::testing::Values(1, 5, 33, 128, 500),
                       ::testing::Values(1u, 7u, 99u)));

TEST(Knn, EmptyStructureReturnsNothing) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {10, 10, 10}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(1);
  EXPECT_TRUE(tree.nearest(space.sample(rng), 3).empty());
}

TEST(Knn, FewerPointsThanK) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {10, 10, 10}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(2);
  tree.insert(0, space.sample(rng));
  tree.insert(1, space.sample(rng));
  EXPECT_EQ(tree.nearest(space.sample(rng), 10).size(), 2u);
}

TEST(Knn, ResultsSortedAscending) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(3);
  for (int i = 0; i < 200; ++i)
    tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  const auto result = tree.nearest(space.sample(rng), 10);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end(),
                             [](const Neighbor& a, const Neighbor& b) {
                               return a.distance < b.distance;
                             }));
}

TEST(Knn, ExactSelfQuery) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  Xoshiro256ss rng(4);
  std::vector<Config> configs;
  for (int i = 0; i < 64; ++i) {
    configs.push_back(space.sample(rng));
    tree.insert(static_cast<graph::VertexId>(i), configs.back());
  }
  for (int i = 0; i < 64; ++i) {
    const auto nn = tree.nearest(configs[i], 1);
    ASSERT_EQ(nn.size(), 1u);
    EXPECT_EQ(nn[0].id, static_cast<graph::VertexId>(i));
    EXPECT_NEAR(nn[0].distance, 0.0, 1e-12);
  }
}

TEST(Knn, StatsCountCandidates) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  BruteForceKnn brute(space);
  Xoshiro256ss rng(5);
  for (int i = 0; i < 50; ++i)
    brute.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  PlannerStats stats;
  brute.nearest(space.sample(rng), 3, &stats);
  EXPECT_EQ(stats.knn_queries, 1u);
  EXPECT_EQ(stats.knn_candidates, 50u);
}

TEST(Knn, FactorySelectsImplementation) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {10, 10, 10}});
  EXPECT_NE(dynamic_cast<KdTreeKnn*>(make_neighbor_finder(space).get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<BruteForceKnn*>(make_neighbor_finder(space, true).get()),
      nullptr);
}

// Randomized cross-check over every space kind with adversarial point sets:
// duplicates (exact distance ties), collinear points (symmetric ties),
// k > n, and the empty structure. Results must match bit-for-bit, including
// tie order — the canonical (distance, id) order totally orders candidates,
// so kd-tree traversal order must not leak into results.
TEST(Knn, RandomizedCrossCheckAllSpaces) {
  const CSpace spaces[] = {
      CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}, {-3, 3}, {-3, 3}}),
      CSpace::se2({{0, 0, 0}, {100, 100, 0}}),
      CSpace::se3({{0, 0, 0}, {100, 100, 100}}),
  };
  std::size_t total_queries = 0;
  for (const CSpace& space : spaces) {
    for (const std::size_t n : {0u, 3u, 17u, 150u, 400u}) {
      Xoshiro256ss rng(1000 + n);
      KdTreeKnn tree(space);
      BruteForceKnn brute(space);
      std::vector<Config> pts;
      for (std::size_t i = 0; i < n; ++i) {
        // ~1 in 6 points duplicates an earlier one: exact distance ties.
        const Config c = (!pts.empty() && rng.uniform_u64(6) == 0)
                             ? pts[rng.uniform_u64(pts.size())]
                             : space.sample(rng);
        pts.push_back(c);
        tree.insert(static_cast<graph::VertexId>(i), c);
        brute.insert(static_cast<graph::VertexId>(i), c);
      }
      for (int q = 0; q < 30; ++q) {
        // Half the queries sit exactly on stored points.
        const Config query = (!pts.empty() && q % 2 == 0)
                                 ? pts[rng.uniform_u64(pts.size())]
                                 : space.sample(rng);
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{3}, std::size_t{8}, n + 5}) {
          const auto a = tree.nearest(query, k);
          const auto b = brute.nearest(query, k);
          ++total_queries;
          ASSERT_EQ(a.size(), b.size()) << "n=" << n << " k=" << k;
          for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].id, b[i].id)
                << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
            ASSERT_EQ(a[i].distance, b[i].distance)
                << "n=" << n << " q=" << q << " k=" << k << " i=" << i;
          }
        }
      }
    }
  }
  EXPECT_GE(total_queries, 1000u);
}

TEST(Knn, CollinearPointsExactTieOrder) {
  // Points on a line; querying between two of them yields symmetric ties
  // at every radius. Ties must come back ordered by ascending id.
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  BruteForceKnn brute(space);
  for (int i = 0; i < 12; ++i) {
    const Config c{static_cast<double>(i), 0.0, 0.0};
    tree.insert(static_cast<graph::VertexId>(i), c);
    brute.insert(static_cast<graph::VertexId>(i), c);
  }
  const Config query{5.5, 0.0, 0.0};
  const auto a = tree.nearest(query, 6);
  const auto b = brute.nearest(query, 6);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
  // Pairs (5,6), (4,7), (3,8) tie at 0.5, 1.5, 2.5; smaller id first.
  EXPECT_EQ(a[0].id, 5u);
  EXPECT_EQ(a[1].id, 6u);
  EXPECT_EQ(a[2].id, 4u);
  EXPECT_EQ(a[3].id, 7u);
  EXPECT_EQ(a[4].id, 3u);
  EXPECT_EQ(a[5].id, 8u);
}

TEST(Knn, DuplicatePositionsOrderedById) {
  const CSpace space = CSpace::euclidean({{0, 100}, {0, 100}, {0, 100}});
  KdTreeKnn tree(space);
  const Config dup{10, 10, 10};
  // Insert the duplicate under deliberately unsorted ids.
  for (const graph::VertexId id : {7u, 2u, 9u, 4u}) tree.insert(id, dup);
  tree.insert(1, Config{90, 90, 90});
  const auto nn = tree.nearest(dup, 4);
  ASSERT_EQ(nn.size(), 4u);
  EXPECT_EQ(nn[0].id, 2u);
  EXPECT_EQ(nn[1].id, 4u);
  EXPECT_EQ(nn[2].id, 7u);
  EXPECT_EQ(nn[3].id, 9u);
  for (const auto& n : nn) EXPECT_EQ(n.distance, 0.0);
}

TEST(Knn, NearestBatchMatchesSingleQueries) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(31);
  KdTreeKnn tree(space);
  for (int i = 0; i < 300; ++i)
    tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  std::vector<Config> queries;
  for (int q = 0; q < 40; ++q) queries.push_back(space.sample(rng));

  PlannerStats batch_stats;
  KnnBatch batch;
  tree.nearest_batch(queries, 7, batch, &batch_stats);
  ASSERT_EQ(batch.query_count(), queries.size());

  PlannerStats single_stats;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single = tree.nearest(queries[q], 7, &single_stats);
    const auto got = batch.of(q);
    ASSERT_EQ(got.size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(got[i].id, single[i].id);
      EXPECT_EQ(got[i].distance, single[i].distance);
    }
  }
  EXPECT_EQ(batch_stats.knn_queries, single_stats.knn_queries);
  EXPECT_EQ(batch_stats.knn_candidates, single_stats.knn_candidates);
}

TEST(Knn, LazyRebuildWhenBufferDominates) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(32);
  KdTreeKnn tree(space);
  // Inserts only buffer: a bulk insert builds no tree at all.
  for (int i = 0; i < 686; ++i)
    tree.insert(static_cast<graph::VertexId>(i), space.sample(rng));
  EXPECT_EQ(tree.size(), 686u);
  EXPECT_EQ(tree.indexed_size(), 0u);
  // The first query notices the buffer dominating and builds the tree
  // over every point, once.
  tree.nearest(space.sample(rng), 4);
  EXPECT_EQ(tree.indexed_size(), 686u);
  tree.nearest(space.sample(rng), 4);
  EXPECT_EQ(tree.indexed_size(), 686u);

  // One insert, one query (the RRT pattern). The query-time guard (buffer
  // >= 32 and 4*buffer >= indexed) fires before a rebuild at insert time
  // (buffer >= 32 and 2*buffer >= indexed) could, so without the latter
  // every query sees the tree it saw when both policies applied.
  KdTreeKnn rrt_tree(space);
  std::size_t both_policies = 0;
  std::vector<std::size_t> rebuilt_at;
  for (std::size_t n = 1; n <= 700; ++n) {
    rrt_tree.insert(static_cast<graph::VertexId>(n), space.sample(rng));
    std::size_t buffered = n - both_policies;
    if (buffered >= 32 && buffered * 2 >= both_policies) both_policies = n;
    buffered = n - both_policies;
    if (buffered >= 32 && buffered * 4 >= both_policies) both_policies = n;
    rrt_tree.nearest(space.sample(rng), 1);
    ASSERT_EQ(rrt_tree.indexed_size(), both_policies) << "after insert " << n;
    if (rebuilt_at.empty() || rebuilt_at.back() != both_policies)
      rebuilt_at.push_back(both_policies);
  }
  const std::vector<std::size_t> expected = {
      0, 32, 64, 96, 128, 160, 200, 250, 313, 392, 490, 613};
  EXPECT_EQ(rebuilt_at, expected);
}

TEST(Knn, CopiedIndexSharesTreeAndExtendsIndependently) {
  const CSpace space = CSpace::se3({{0, 0, 0}, {100, 100, 100}});
  Xoshiro256ss rng(33);
  std::vector<Config> points;
  for (int i = 0; i < 300; ++i) points.push_back(space.sample(rng));

  KdTreeKnn base(space);
  for (graph::VertexId i = 0; i < 200; ++i) base.insert(i, points[i]);
  EXPECT_TRUE(base.refresh());
  EXPECT_FALSE(base.refresh());
  // 40 buffered points are under a quarter of 200: no rebuild.
  for (graph::VertexId i = 200; i < 240; ++i) base.insert(i, points[i]);
  EXPECT_FALSE(base.refresh());
  EXPECT_EQ(base.indexed_size(), 200u);
  EXPECT_EQ(base.size(), 240u);

  // A copy shares the built tree and copies the buffer; growing it past
  // the rule rebuilds the copy's tree and leaves the original's intact.
  KdTreeKnn grown = base;
  const auto base_tree = base.tree_handle();
  EXPECT_FALSE(base_tree.owner_before(grown.tree_handle()) ||
               grown.tree_handle().owner_before(base_tree));
  for (graph::VertexId i = 240; i < 300; ++i) grown.insert(i, points[i]);
  EXPECT_TRUE(grown.refresh());
  EXPECT_EQ(grown.indexed_size(), 300u);
  EXPECT_TRUE(base_tree.owner_before(grown.tree_handle()) ||
              grown.tree_handle().owner_before(base_tree));
  EXPECT_FALSE(base_tree.expired());
  EXPECT_EQ(base.indexed_size(), 200u);
  EXPECT_EQ(base.size(), 240u);

  BruteForceKnn brute_base(space), brute_grown(space);
  for (graph::VertexId i = 0; i < 300; ++i) {
    if (i < 240) brute_base.insert(i, points[i]);
    brute_grown.insert(i, points[i]);
  }
  KdTreeKnn::Scratch scratch;
  for (int q = 0; q < 60; ++q) {
    const Config c = q % 3 == 0 ? points[static_cast<std::size_t>(q * 5)]
                                : space.sample(rng);
    for (const auto& [index, brute] :
         {std::pair<const KdTreeKnn*, BruteForceKnn*>{&base, &brute_base},
          {&grown, &brute_grown}}) {
      const auto got = index->nearest(c, 9, scratch);
      const auto want = brute->nearest(c, 9);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "query " << q;
        EXPECT_EQ(got[i].distance, want[i].distance) << "query " << q;
      }
    }
  }
}

// --- PRM free functions ----------------------------------------------------

TEST(PrmPhases, SampleRegionKeepsValidOnly) {
  const auto e = env::med_cube();
  PlannerStats stats;
  Xoshiro256ss rng(11);
  // A region straddling the obstacle: some attempts must be rejected.
  const geo::Aabb box{{10, 40, 40}, {40, 60, 60}};
  const auto samples = planner::sample_region(*e, box, 300, rng, stats);
  EXPECT_EQ(stats.samples_attempted, 300u);
  EXPECT_EQ(stats.samples_valid, samples.size());
  EXPECT_LT(samples.size(), 300u);
  EXPECT_GT(samples.size(), 0u);
  for (const auto& c : samples) {
    EXPECT_TRUE(box.contains(e->space().position(c)));
    EXPECT_TRUE(e->validity().valid(c));
  }
}

TEST(PrmPhases, SampleRegionDeterministic) {
  const auto e = env::med_cube();
  const geo::Aabb box{{0, 0, 0}, {30, 30, 30}};
  PlannerStats s1, s2;
  Xoshiro256ss r1(9), r2(9);
  const auto a = planner::sample_region(*e, box, 100, r1, s1);
  const auto b = planner::sample_region(*e, box, 100, r2, s2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(PrmPhases, ConnectWithinAddsValidEdges) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  Xoshiro256ss rng(12);
  const geo::Aabb box{{0, 0, 0}, {40, 40, 40}};
  const auto samples = planner::sample_region(*e, box, 60, rng, stats);
  std::vector<graph::VertexId> ids;
  for (const auto& c : samples) ids.push_back(g.add_vertex({c, 0}));
  graph::UnionFind cc(g.num_vertices());
  PrmParams params;
  planner::connect_within(*e, g, ids, params, stats, &cc);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_GT(stats.lp_success, 0u);
  // In a free environment every local plan succeeds.
  EXPECT_EQ(stats.lp_success, stats.lp_attempts);
  // Component skipping keeps the roadmap a forest.
  EXPECT_LE(g.num_edges(), g.num_vertices() - 1);
}

TEST(PrmPhases, ConnectWithinWithoutSkipAddsRedundantEdges) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  Xoshiro256ss rng(13);
  const auto samples = planner::sample_region(
      *e, geo::Aabb{{0, 0, 0}, {40, 40, 40}}, 60, rng, stats);
  std::vector<graph::VertexId> ids;
  for (const auto& c : samples) ids.push_back(g.add_vertex({c, 0}));
  PrmParams params;
  params.skip_same_component = false;
  planner::connect_within(*e, g, ids, params, stats, nullptr);
  EXPECT_GT(g.num_edges(), g.num_vertices() - 1);
}

TEST(PrmPhases, ConnectBetweenBridgesRegions) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  Xoshiro256ss rng(14);
  std::vector<graph::VertexId> left, right;
  for (const auto& c : planner::sample_region(
           *e, geo::Aabb{{0, 0, 0}, {20, 40, 40}}, 40, rng, stats))
    left.push_back(g.add_vertex({c, 0}));
  for (const auto& c : planner::sample_region(
           *e, geo::Aabb{{20, 0, 0}, {40, 40, 40}}, 40, rng, stats))
    right.push_back(g.add_vertex({c, 1}));
  PrmParams params;
  const auto added = planner::connect_between(*e, g, left, right, params,
                                              stats, nullptr, 8);
  EXPECT_GT(added, 0u);
  EXPECT_EQ(g.num_edges(), added);
}

TEST(PrmPhases, ConnectBetweenEmptySidesNoOp) {
  const auto e = env::free_env();
  Roadmap g;
  PlannerStats stats;
  PrmParams params;
  EXPECT_EQ(planner::connect_between(*e, g, {}, {}, params, stats), 0u);
}

// --- connect_between against the full-query reference ----------------------

/// Region connection as it ran before bound ordering: query every vertex of
/// the smaller side, stable-sort all candidate pairs by distance (so ties
/// keep smaller-side position, then neighbor rank), attempt in that order.
std::size_t reference_connect_between(const env::Environment& e, Roadmap& g,
                                      std::span<const graph::VertexId> ids_a,
                                      std::span<const graph::VertexId> ids_b,
                                      const PrmParams& params,
                                      PlannerStats& stats,
                                      graph::UnionFind* cc,
                                      std::size_t max_attempts) {
  if (ids_a.empty() || ids_b.empty()) return 0;
  std::span<const graph::VertexId> from = ids_a;
  std::span<const graph::VertexId> to = ids_b;
  if (from.size() > to.size()) std::swap(from, to);
  BruteForceKnn finder(e.space());
  for (graph::VertexId id : to) finder.insert(id, g.vertex(id).cfg);
  struct Candidate {
    double distance;
    graph::VertexId a, b;
  };
  std::vector<Candidate> candidates;
  for (graph::VertexId id : from)
    for (const Neighbor& n : finder.nearest(g.vertex(id).cfg, 2))
      candidates.push_back({n.distance, id, n.id});
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.distance < y.distance;
                   });
  const cspace::LocalPlanner lp(e.space(), e.validity(), params.resolution);
  std::size_t edges_added = 0;
  std::size_t attempts = 0;
  for (const Candidate& c : candidates) {
    if (attempts >= max_attempts) break;
    if (g.has_edge(c.a, c.b)) continue;
    if (params.skip_same_component && cc != nullptr &&
        cc->connected(c.a, c.b))
      continue;
    ++attempts;
    ++stats.lp_attempts;
    const auto r = lp.plan(g.vertex(c.a).cfg, g.vertex(c.b).cfg, &stats.cd);
    stats.lp_steps += r.steps_checked;
    if (r.success) {
      ++stats.lp_success;
      g.add_edge(c.a, c.b, {r.length});
      if (cc != nullptr) cc->unite(c.a, c.b);
      ++edges_added;
    }
  }
  return edges_added;
}

void expect_same_edges(const Roadmap& a, const Roadmap& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ea = a.edges_of(v);
    const auto eb = b.edges_of(v);
    ASSERT_EQ(ea.size(), eb.size()) << "vertex " << v;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].to, eb[i].to) << "vertex " << v << " edge " << i;
      EXPECT_EQ(ea[i].prop.length, eb[i].prop.length)
          << "vertex " << v << " edge " << i;
    }
  }
}

/// One randomized region pair: two boxes side by side along x (touching,
/// or apart by `gap` of the extent), optional exact duplicates, optional
/// pre-existing cross edges and pre-united components.
struct BetweenCase {
  Roadmap g;
  std::vector<graph::VertexId> a, b;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> unions;
};

BetweenCase make_between_case(const env::Environment& e, std::uint64_t seed,
                              std::size_t na, std::size_t nb, double gap,
                              bool duplicates, bool cross_edges) {
  BetweenCase out;
  Xoshiro256ss rng(seed);
  const CSpace& space = e.space();
  const geo::Aabb& bounds = space.position_bounds();
  const double w = bounds.hi.x - bounds.lo.x;
  geo::Aabb box_a = bounds, box_b = bounds;
  box_a.hi.x = bounds.lo.x + 0.5 * w;
  box_b.lo.x = bounds.lo.x + (0.5 + gap) * w;
  for (std::size_t i = 0; i < na; ++i)
    out.a.push_back(out.g.add_vertex({space.sample_in(box_a, rng), 0}));
  for (std::size_t i = 0; i < nb; ++i) {
    // Duplicates: repeat an earlier vertex of either side, so equal
    // distances tie across smaller-side positions and neighbor ranks.
    Config c = space.sample_in(box_b, rng);
    if (duplicates && rng.uniform() < 0.3) {
      const bool from_a = !out.a.empty() && rng.uniform() < 0.5;
      if (from_a) c = out.g.vertex(out.a[rng.index(out.a.size())]).cfg;
      else if (!out.b.empty())
        c = out.g.vertex(out.b[rng.index(out.b.size())]).cfg;
    }
    out.b.push_back(out.g.add_vertex({c, 1}));
  }
  if (duplicates)
    for (std::size_t i = 1; i < out.a.size(); i += 3)
      out.g.vertex(out.a[i]).cfg = out.g.vertex(out.a[i - 1]).cfg;
  if (!out.a.empty() && !out.b.empty()) {
    if (cross_edges)
      for (int i = 0; i < 6; ++i) {
        const auto u = out.a[rng.index(out.a.size())];
        const auto v = out.b[rng.index(out.b.size())];
        if (!out.g.has_edge(u, v)) out.g.add_edge(u, v, {1.0});
      }
    for (int i = 0; i < 8; ++i) {
      const auto& side = rng.uniform() < 0.5 ? out.a : out.b;
      out.unions.emplace_back(out.a[rng.index(out.a.size())],
                              side[rng.index(side.size())]);
    }
  }
  return out;
}

/// Run both algorithms on copies of one case and require identical
/// roadmaps, return values and local-planning counters.
void expect_matches_reference(const env::Environment& e, const BetweenCase& c,
                              const PrmParams& params, bool use_cc,
                              std::size_t max_attempts, bool swap_sides) {
  SCOPED_TRACE(::testing::Message()
               << "|a|=" << c.a.size() << " |b|=" << c.b.size()
               << " cc=" << use_cc << " max=" << max_attempts
               << " swap=" << swap_sides << " exact=" << params.exact_knn);
  Roadmap g_new = c.g, g_ref = c.g;
  graph::UnionFind cc_new(c.g.num_vertices()), cc_ref(c.g.num_vertices());
  for (const auto& [u, v] : c.unions) {
    cc_new.unite(u, v);
    cc_ref.unite(u, v);
  }
  std::span<const graph::VertexId> x = c.a, y = c.b;
  if (swap_sides) std::swap(x, y);
  PlannerStats s_new, s_ref;
  const auto added_new = connect_between(e, g_new, x, y, params, s_new,
                                         use_cc ? &cc_new : nullptr,
                                         max_attempts);
  const auto added_ref = reference_connect_between(
      e, g_ref, x, y, params, s_ref, use_cc ? &cc_ref : nullptr,
      max_attempts);
  EXPECT_EQ(added_new, added_ref);
  EXPECT_EQ(s_new.lp_attempts, s_ref.lp_attempts);
  EXPECT_EQ(s_new.lp_success, s_ref.lp_success);
  EXPECT_EQ(s_new.lp_steps, s_ref.lp_steps);
  EXPECT_EQ(s_new.cd.queries, s_ref.cd.queries);
  EXPECT_LE(s_new.knn_queries, std::min(c.a.size(), c.b.size()));
  expect_same_edges(g_new, g_ref);
}

class ConnectBetweenReference
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  static std::unique_ptr<env::Environment> make_env(int kind) {
    switch (kind) {
      case 0: return env::model_2d(0.25);  // Euclidean point robot
      case 1: return env::maze_2d();       // SE(2)
      default: return env::med_cube();     // SE(3)
    }
  }
};

TEST_P(ConnectBetweenReference, RandomRegionPairsMatch) {
  const auto [kind, seed] = GetParam();
  const auto e = make_env(kind);
  const double extent =
      e->space().position_bounds().hi.x - e->space().position_bounds().lo.x;
  Xoshiro256ss rng(seed * 977 + static_cast<std::uint64_t>(kind));
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t na = 1 + rng.index(40);
    const std::size_t nb = 1 + rng.index(40);
    const double gap = rng.uniform() < 0.5 ? 0.0 : 0.1;
    const bool dups = rng.uniform() < 0.5;
    const auto c = make_between_case(*e, rng(), na, nb, gap, dups,
                                     rng.uniform() < 0.5);
    PrmParams params;
    params.resolution = extent / 100.0;
    params.exact_knn = rng.uniform() < 0.3;
    const std::size_t max_attempts =
        std::array<std::size_t, 4>{1, 4, 16, 1000}[rng.index(4)];
    for (const bool use_cc : {false, true})
      expect_matches_reference(*e, c, params, use_cc, max_attempts,
                               rng.uniform() < 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpacesAndSeeds, ConnectBetweenReference,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(ConnectBetween, PinnedCasesMatchReference) {
  const auto e = env::med_cube();
  PrmParams params;
  // Pre-existing cross edges and pre-united components, with and without
  // skipping: the skip checks must see candidates in the reference order.
  {
    const auto c = make_between_case(*e, 501, 30, 45, 0.0, false, true);
    for (const bool skip : {false, true}) {
      params.skip_same_component = skip;
      expect_matches_reference(*e, c, params, true, 16, false);
    }
    params.skip_same_component = true;
  }
  // More attempts allowed than candidates exist: every pair is tried.
  {
    const auto c = make_between_case(*e, 502, 12, 20, 0.0, false, false);
    expect_matches_reference(*e, c, params, false, 1000, false);
    expect_matches_reference(*e, c, params, true, 1000, true);
  }
  // One empty side, either way round.
  {
    const auto c = make_between_case(*e, 503, 0, 20, 0.0, false, false);
    expect_matches_reference(*e, c, params, false, 16, false);
    expect_matches_reference(*e, c, params, false, 16, true);
  }
  // Equal-size sides: the first argument is the queried side.
  {
    const auto c = make_between_case(*e, 504, 25, 25, 0.0, true, false);
    expect_matches_reference(*e, c, params, false, 16, false);
    expect_matches_reference(*e, c, params, true, 16, true);
  }
  // Duplicated configurations: exact distance ties everywhere.
  {
    const auto c = make_between_case(*e, 505, 30, 30, 0.0, true, true);
    for (const std::size_t max_attempts : {1u, 8u, 1000u})
      expect_matches_reference(*e, c, params, true, max_attempts, false);
  }
}

TEST(ConnectBetween, BoundEqualToBestDistanceIsQueried) {
  // Euclidean unit square (obstacle-free below y = 0.25). The other side's
  // box is x in [0.5, 1], y in [0, 0.2]. Y = (0.75, 0.2) lies inside it
  // (bound 0) and pairs with (1, 0.2) at exactly 0.25. X = (0.25, 0) has
  // bound exactly 0.25 and pairs with (0.5, 0) at exactly 0.25. X comes
  // first on its side, so its pair must be attempted first: a vertex
  // whose bound ties the best pending distance still has to be queried.
  const auto e = env::model_2d(0.25);
  BetweenCase c;
  c.a.push_back(c.g.add_vertex({Config{0.25, 0.0}, 0}));  // X
  c.a.push_back(c.g.add_vertex({Config{0.75, 0.2}, 0}));  // Y
  c.b.push_back(c.g.add_vertex({Config{0.5, 0.0}, 1}));
  c.b.push_back(c.g.add_vertex({Config{1.0, 0.2}, 1}));
  PrmParams params;
  params.resolution = 0.01;
  expect_matches_reference(*e, c, params, false, 1, false);
  Roadmap g = c.g;
  PlannerStats stats;
  ASSERT_EQ(connect_between(*e, g, c.a, c.b, params, stats, nullptr, 1), 1u);
  EXPECT_TRUE(g.has_edge(c.a[0], c.b[0]));
  EXPECT_EQ(stats.knn_queries, 2u);
}

TEST(ConnectBetween, SeparatedBoxesQueryOnlyTheBoundary) {
  const auto e = env::free_env();
  const auto c = make_between_case(*e, 506, 300, 300, 0.2, false, false);
  PrmParams params;
  PlannerStats stats;
  Roadmap g = c.g;
  connect_between(*e, g, c.a, c.b, params, stats, nullptr, 16);
  EXPECT_EQ(stats.lp_attempts, 16u);
  EXPECT_GT(stats.knn_queries, 0u);
  EXPECT_LT(stats.knn_queries, c.a.size());
}

// --- Prm end to end -----------------------------------------------------

TEST(Prm, BuildsConnectedRoadmapInFreeSpace) {
  const auto e = env::free_env();
  Prm prm(*e);
  prm.build(400, 21);
  EXPECT_GT(prm.roadmap().num_vertices(), 300u);
  EXPECT_GT(prm.roadmap().num_edges(), 0u);
}

TEST(Prm, SolvesQueryAroundObstacle) {
  const auto e = env::med_cube();
  PrmParams params;
  params.k_neighbors = 8;
  Prm prm(*e, params);
  prm.build(1500, 22);
  Xoshiro256ss rng(23);
  const Config start = e->space().at_position({8, 8, 8}, rng);
  const Config goal = e->space().at_position({92, 92, 92}, rng);
  ASSERT_TRUE(e->validity().valid(start));
  ASSERT_TRUE(e->validity().valid(goal));
  const auto path = prm.query(start, goal);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size(), 2u);
  EXPECT_EQ(path->front(), start);
  EXPECT_EQ(path->back(), goal);
  EXPECT_TRUE(path_valid(*e, *path, 1.0));
}

TEST(Prm, QueryFailsForInvalidEndpoints) {
  const auto e = env::med_cube();
  Prm prm(*e);
  prm.build(200, 24);
  Xoshiro256ss rng(25);
  const Config inside_obstacle = e->space().at_position({50, 50, 50}, rng);
  const Config valid_goal = e->space().at_position({5, 5, 5}, rng);
  EXPECT_FALSE(prm.query(inside_obstacle, valid_goal).has_value());
}

TEST(Prm, DeterministicAcrossRuns) {
  const auto e = env::small_cube();
  Prm a(*e), b(*e);
  a.build(300, 77);
  b.build(300, 77);
  EXPECT_EQ(a.roadmap().num_vertices(), b.roadmap().num_vertices());
  EXPECT_EQ(a.roadmap().num_edges(), b.roadmap().num_edges());
}

// --- path helpers -----------------------------------------------------

TEST(Query, PathLengthSumsSegments) {
  const auto e = env::free_env();
  const std::vector<Config> path{Config{0, 0, 0, 1, 0, 0, 0},
                                 Config{10, 0, 0, 1, 0, 0, 0},
                                 Config{10, 5, 0, 1, 0, 0, 0}};
  EXPECT_NEAR(path_length(*e, path), 15.0, 1e-9);
}

TEST(Query, PathValidDetectsCollision) {
  const auto e = env::med_cube();
  Xoshiro256ss rng(26);
  // Straight line through the central cube is invalid.
  const std::vector<Config> bad{e->space().at_position({5, 50, 50}, rng),
                                e->space().at_position({95, 50, 50}, rng)};
  EXPECT_FALSE(path_valid(*e, bad, 1.0));
  // A short edge in the free corner is valid.
  const std::vector<Config> good{e->space().at_position({5, 5, 5}, rng),
                                 e->space().at_position({10, 5, 5}, rng)};
  EXPECT_TRUE(path_valid(*e, good, 1.0));
}

// --- RRT ---------------------------------------------------------------

TEST(RrtBranch, GrowsTowardTarget) {
  const auto e = env::free_env();
  Roadmap tree;
  Xoshiro256ss rng(31);
  const Config root = e->space().at_position({50, 50, 50}, rng);
  RrtParams params;
  params.max_nodes = 50;
  params.max_iterations = 500;
  RrtBranch branch(*e, tree, root, 3, params);
  PlannerStats stats;
  const geo::Vec3 target{90, 50, 50};
  branch.grow([&](Xoshiro256ss& g) { return e->space().at_position(target, g); },
              rng, stats);
  EXPECT_EQ(branch.num_nodes(), 50u);
  EXPECT_EQ(tree.num_vertices(), 50u);
  EXPECT_TRUE(graph::is_forest(tree));
  // Growth must have advanced toward the target.
  double best = 1e9;
  for (const auto id : branch.node_ids()) {
    const double d = (e->space().position(tree.vertex(id).cfg) - target).norm();
    best = std::min(best, d);
  }
  EXPECT_LT(best, 20.0);
  // Region tag recorded on every vertex.
  for (const auto id : branch.node_ids())
    EXPECT_EQ(tree.vertex(id).region, 3u);
}

TEST(RrtBranch, RespectsStepSize) {
  const auto e = env::free_env();
  Roadmap tree;
  Xoshiro256ss rng(32);
  const Config root = e->space().at_position({50, 50, 50}, rng);
  RrtParams params;
  params.step = 3.0;
  params.max_nodes = 30;
  params.max_iterations = 300;
  RrtBranch branch(*e, tree, root, 0, params);
  PlannerStats stats;
  branch.grow([&](Xoshiro256ss& g) { return e->space().sample(g); }, rng,
              stats);
  for (graph::VertexId v = 0; v < tree.num_vertices(); ++v)
    for (const auto& he : tree.edges_of(v))
      EXPECT_LE(he.prop.length, params.step + 1e-9);
}

TEST(RrtBranch, BlockedRegionGrowsLess) {
  const auto e = env::mixed(0.60);
  RrtParams params;
  params.max_nodes = 60;
  params.max_iterations = 240;
  PlannerStats s_free, s_blocked;
  Xoshiro256ss rng(33);
  const Config root = e->space().at_position({50, 50, 50}, rng);
  // Free direction: -x (the mixed builder skews clutter toward +x).
  Roadmap t1;
  RrtBranch free_branch(*e, t1, root, 0, params);
  Xoshiro256ss r1(34);
  free_branch.grow(
      [&](Xoshiro256ss& g) {
        return e->space().at_position(
            {g.uniform(2, 40), g.uniform(20, 80), g.uniform(20, 80)}, g);
      },
      r1, s_free);
  Roadmap t2;
  RrtBranch blocked_branch(*e, t2, root, 0, params);
  Xoshiro256ss r2(34);
  blocked_branch.grow(
      [&](Xoshiro256ss& g) {
        return e->space().at_position(
            {g.uniform(60, 98), g.uniform(20, 80), g.uniform(20, 80)}, g);
      },
      r2, s_blocked);
  EXPECT_GE(free_branch.num_nodes(), blocked_branch.num_nodes());
  // Blocked growth has a lower extension success rate.
  const double free_rate =
      static_cast<double>(s_free.rrt_extends_success) /
      static_cast<double>(s_free.rrt_extends);
  const double blocked_rate =
      static_cast<double>(s_blocked.rrt_extends_success) /
      static_cast<double>(s_blocked.rrt_extends);
  EXPECT_GT(free_rate, blocked_rate);
}

TEST(Rrt, PlansThroughFreeSpace) {
  const auto e = env::free_env();
  RrtParams params;
  params.max_nodes = 2000;
  params.max_iterations = 8000;
  params.step = 8.0;
  Rrt rrt(*e, params);
  Xoshiro256ss rng(35);
  const Config start = e->space().at_position({10, 10, 10}, rng);
  const Config goal = e->space().at_position({90, 90, 90}, rng);
  const auto path = rrt.plan(start, goal, 36, 0.2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), start);
  EXPECT_EQ(path->back(), goal);
  EXPECT_TRUE(path_valid(*e, *path, 1.0));
}

TEST(Rrt, FailsGracefullyWhenGoalInvalid) {
  const auto e = env::med_cube();
  Rrt rrt(*e);
  Xoshiro256ss rng(37);
  const Config start = e->space().at_position({5, 5, 5}, rng);
  const Config goal = e->space().at_position({50, 50, 50}, rng);  // inside
  EXPECT_FALSE(rrt.plan(start, goal, 38).has_value());
}

}  // namespace
}  // namespace pmpl::planner
