#pragma once
/// \file adjacency_graph.hpp
/// Undirected adjacency-list graph template.
///
/// Used for both graphs in the paper's algorithms: the *region graph*
/// (vertices = subdivision regions, edges = adjacency) and the *roadmap*
/// (vertices = configurations, edges = validated local plans). This is the
/// sequential core of our STAPL pGraph substitute; distribution is layered
/// on top by the runtime (region -> location maps), matching the paper's
/// ownership-transfer model.

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace pmpl::graph {

using VertexId = std::uint32_t;
inline constexpr VertexId kInvalidVertex = 0xffffffffu;

/// Undirected graph with vertex and edge payloads.
/// Vertices are dense ids; edges are stored per-endpoint.
template <typename VertexProp, typename EdgeProp>
class AdjacencyGraph {
 public:
  struct HalfEdge {
    VertexId to;
    EdgeProp prop;
  };

  VertexId add_vertex(VertexProp p = {}) {
    vertices_.push_back(std::move(p));
    adjacency_.emplace_back();
    return static_cast<VertexId>(vertices_.size() - 1);
  }

  std::size_t num_vertices() const noexcept { return vertices_.size(); }
  std::size_t num_edges() const noexcept { return edge_count_; }

  VertexProp& vertex(VertexId v) {
    assert(v < vertices_.size());
    return vertices_[v];
  }
  const VertexProp& vertex(VertexId v) const {
    assert(v < vertices_.size());
    return vertices_[v];
  }

  std::span<const HalfEdge> edges_of(VertexId v) const {
    assert(v < adjacency_.size());
    return adjacency_[v];
  }

  bool has_edge(VertexId a, VertexId b) const {
    for (const auto& e : adjacency_[a])
      if (e.to == b) return true;
    return false;
  }

  /// Add an undirected edge; returns false (no-op) if it already exists
  /// or is a self-loop.
  bool add_edge(VertexId a, VertexId b, EdgeProp p = {}) {
    assert(a < vertices_.size() && b < vertices_.size());
    if (a == b || has_edge(a, b)) return false;
    adjacency_[a].push_back({b, p});
    adjacency_[b].push_back({a, std::move(p)});
    ++edge_count_;
    return true;
  }

  /// Remove an undirected edge; returns false if absent.
  bool remove_edge(VertexId a, VertexId b) {
    const bool removed = remove_half(a, b);
    if (removed) {
      remove_half(b, a);
      --edge_count_;
    }
    return removed;
  }

  std::size_t degree(VertexId v) const { return adjacency_[v].size(); }

  void reserve_vertices(std::size_t n) {
    vertices_.reserve(n);
    adjacency_.reserve(n);
  }

  /// Make this graph equal to `newer`, of which it must be an older state
  /// reached by appends only: no more vertices than `newer`, each vertex's
  /// payload equal, and each adjacency list a prefix of `newer`'s list for
  /// that vertex (no `remove_edge` in between). Appends the missing
  /// vertices and adjacency-list tails, keeping the storage this graph
  /// already has; on an empty graph it is a copy of `newer`. Cost: the
  /// appended entries plus one size comparison per vertex.
  void extend_to(const AdjacencyGraph& newer) {
    const std::size_t n = newer.vertices_.size();
    assert(vertices_.size() <= n);
    vertices_.insert(vertices_.end(),
                     newer.vertices_.begin() +
                         static_cast<std::ptrdiff_t>(vertices_.size()),
                     newer.vertices_.end());
    adjacency_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      auto& mine = adjacency_[v];
      const auto& theirs = newer.adjacency_[v];
      assert(mine.size() <= theirs.size());
      if (mine.size() != theirs.size())
        mine.insert(mine.end(),
                    theirs.begin() + static_cast<std::ptrdiff_t>(mine.size()),
                    theirs.end());
    }
    edge_count_ = newer.edge_count_;
  }

 private:
  bool remove_half(VertexId from, VertexId to) {
    auto& adj = adjacency_[from];
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (adj[i].to == to) {
        adj[i] = adj.back();
        adj.pop_back();
        return true;
      }
    }
    return false;
  }

  std::vector<VertexProp> vertices_;
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace pmpl::graph
