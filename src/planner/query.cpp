#include "planner/query.hpp"

#include <algorithm>
#include <functional>

#include "cspace/local_planner.hpp"
#include "planner/knn.hpp"

namespace pmpl::planner {

namespace {

/// A* state of one vertex. Valid only while `stamp` equals the current
/// query's; otherwise the vertex is untouched (dist infinite, no prev).
struct AstarNode {
  double dist;
  double h;  ///< heuristic, computed once when the vertex is first touched
  graph::VertexId prev;
  std::uint32_t stamp;
};

/// Per-thread A* storage reused across queries: a query stamps the nodes
/// it touches instead of filling n + 2 entries, and the heap keeps its
/// capacity.
struct AstarScratch {
  std::vector<AstarNode> nodes;
  std::vector<std::pair<double, graph::VertexId>> heap;
  std::uint32_t stamp = 0;

  void begin(std::size_t size) {
    if (nodes.size() < size) nodes.resize(size, AstarNode{0.0, 0.0, 0, 0});
    if (++stamp == 0) {  // wrapped: every node is stale again
      for (AstarNode& x : nodes) x.stamp = 0;
      stamp = 1;
    }
    heap.clear();
  }
};

}  // namespace

std::optional<std::vector<cspace::Config>> find_path_with_attachments(
    const env::Environment& e, const Roadmap& g, const cspace::Config& start,
    const cspace::Config& goal, std::span<const AttachEdge> start_edges,
    std::span<const AttachEdge> goal_edges) {
  if (start_edges.empty() || goal_edges.empty()) return std::nullopt;

  // Virtual ids: n = start, n + 1 = goal. The overlay is two extra A*
  // nodes; the roadmap is only ever read.
  const auto n = static_cast<graph::VertexId>(g.num_vertices());
  const graph::VertexId s = n;
  const graph::VertexId t = n + 1;
  constexpr double kInf = 1e300;

  const auto& space = e.space();
  const auto cfg_of = [&](graph::VertexId v) -> const cspace::Config& {
    if (v == s) return start;
    if (v == t) return goal;
    return g.vertex(v).cfg;
  };
  const auto heuristic = [&](graph::VertexId v) {
    return v == t ? 0.0 : space.distance(cfg_of(v), goal);
  };

  thread_local AstarScratch scratch;
  scratch.begin(n + 2);
  const auto node = [&](graph::VertexId v) -> AstarNode& {
    AstarNode& x = scratch.nodes[v];
    if (x.stamp != scratch.stamp)
      x = {kInf, heuristic(v), graph::kInvalidVertex, scratch.stamp};
    return x;
  };
  // Min-heap on (f = g + h, vertex), driven exactly like a
  // std::priority_queue with std::greater: pair comparison breaks f ties
  // by ascending vertex id, same as graph::astar — expansion order is
  // deterministic.
  auto& open = scratch.heap;
  const auto push = [&](double f, graph::VertexId v) {
    open.emplace_back(f, v);
    std::push_heap(open.begin(), open.end(), std::greater<>{});
  };

  const auto relax = [&](graph::VertexId from, graph::VertexId to, double w) {
    const double nd = node(from).dist + w;
    AstarNode& x = node(to);
    if (nd < x.dist) {
      x.dist = nd;
      x.prev = from;
      push(nd + x.h, to);
    }
  };

  node(s).dist = 0.0;
  push(node(s).h, s);
  while (!open.empty()) {
    const auto [f, u] = open.front();
    std::pop_heap(open.begin(), open.end(), std::greater<>{});
    open.pop_back();
    if (u == t) break;
    const AstarNode& nu = node(u);
    if (f - nu.h > nu.dist + 1e-12) continue;  // stale entry
    if (u == s) {
      for (const AttachEdge& a : start_edges) relax(s, a.to, a.length);
      continue;
    }
    for (const auto& edge : g.edges_of(u)) relax(u, edge.to, edge.prop.length);
    // Overlay edges into the goal: the lists are k-sized, so a linear scan
    // per expansion costs less than building a lookup table would.
    for (const AttachEdge& a : goal_edges)
      if (a.to == u) relax(u, t, a.length);
  }

  if (node(t).dist >= kInf) return std::nullopt;
  std::vector<graph::VertexId> vertices;
  for (graph::VertexId v = t; v != graph::kInvalidVertex; v = node(v).prev)
    vertices.push_back(v);
  std::reverse(vertices.begin(), vertices.end());

  std::vector<cspace::Config> configs;
  configs.reserve(vertices.size());
  for (graph::VertexId v : vertices) configs.push_back(cfg_of(v));
  return configs;
}

std::optional<std::vector<cspace::Config>> query_roadmap(
    const env::Environment& e, const Roadmap& g, const cspace::Config& start,
    const cspace::Config& goal, std::size_t k_neighbors, double resolution,
    PlannerStats* stats) {
  PlannerStats local;
  PlannerStats& st = stats != nullptr ? *stats : local;

  if (!e.validity().valid(start, &st.cd) || !e.validity().valid(goal, &st.cd))
    return std::nullopt;

  const cspace::LocalPlanner lp(e.space(), e.validity(), resolution);

  // Direct start->goal shot first (trivial queries).
  {
    ++st.lp_attempts;
    const auto r = lp.plan(start, goal, &st.cd);
    st.lp_steps += r.steps_checked;
    if (r.success) {
      ++st.lp_success;
      return std::vector<cspace::Config>{start, goal};
    }
  }

  auto finder = make_neighbor_finder(e.space(), /*exact=*/false);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    finder->insert(v, g.vertex(v).cfg);

  const auto attach = [&](const cspace::Config& c,
                          std::vector<AttachEdge>& out) {
    for (const Neighbor& nb : finder->nearest(c, k_neighbors, &st)) {
      ++st.lp_attempts;
      const auto r = lp.plan(c, g.vertex(nb.id).cfg, &st.cd);
      st.lp_steps += r.steps_checked;
      if (r.success) {
        ++st.lp_success;
        out.push_back({nb.id, r.length});
      }
    }
    return !out.empty();
  };

  std::vector<AttachEdge> start_edges, goal_edges;
  if (!attach(start, start_edges) || !attach(goal, goal_edges))
    return std::nullopt;
  return find_path_with_attachments(e, g, start, goal, start_edges,
                                    goal_edges);
}

double path_length(const env::Environment& e,
                   const std::vector<cspace::Config>& path) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    total += e.space().distance(path[i], path[i + 1]);
  return total;
}

bool path_valid(const env::Environment& e,
                const std::vector<cspace::Config>& path, double resolution,
                PlannerStats* stats) {
  if (path.empty()) return false;
  PlannerStats local;
  PlannerStats& st = stats != nullptr ? *stats : local;
  const cspace::LocalPlanner lp(e.space(), e.validity(), resolution);
  for (const auto& c : path)
    if (!e.validity().valid(c, &st.cd)) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto r = lp.plan(path[i], path[i + 1], &st.cd);
    st.lp_steps += r.steps_checked;
    if (!r.success) return false;
  }
  return true;
}

}  // namespace pmpl::planner
