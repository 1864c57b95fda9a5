#include "planner/knn.hpp"

#include <algorithm>
#include <cmath>

namespace pmpl::planner {

namespace {

/// Max-heap on the canonical order, so the *worst* kept neighbor is at the
/// front; sort_heap then yields ascending canonical order.
struct WorstFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const noexcept {
    return neighbor_before(a, b);
  }
};

void heap_consider(std::vector<Neighbor>& heap, std::size_t k, Neighbor n) {
  if (heap.size() < k) {
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), WorstFirst{});
  } else if (neighbor_before(n, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), WorstFirst{});
    heap.back() = n;
    std::push_heap(heap.begin(), heap.end(), WorstFirst{});
  }
}

/// Pack one query's results after another into `out` (cleared first).
template <class Nearest>
void fill_batch(std::span<const cspace::Config> queries, KnnBatch& out,
                Nearest&& nearest) {
  out.neighbors.clear();
  out.offsets.clear();
  out.offsets.reserve(queries.size() + 1);
  out.offsets.push_back(0);
  for (const auto& q : queries) {
    const auto r = nearest(q);
    out.neighbors.insert(out.neighbors.end(), r.begin(), r.end());
    out.offsets.push_back(static_cast<std::uint32_t>(out.neighbors.size()));
  }
}

}  // namespace

void NeighborFinder::nearest_batch(std::span<const cspace::Config> queries,
                                   std::size_t k, KnnBatch& out,
                                   PlannerStats* stats) {
  fill_batch(queries, out,
             [&](const cspace::Config& q) { return nearest(q, k, stats); });
}

std::span<const Neighbor> BruteForceKnn::nearest(const cspace::Config& q,
                                                 std::size_t k,
                                                 PlannerStats* stats) {
  if (stats) ++stats->knn_queries;
  heap_.clear();
  if (k == 0) return {};
  heap_.reserve(k + 1);
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (stats) ++stats->knn_candidates;
    heap_consider(heap_, k, {ids_[i], space_->distance(q, configs_[i])});
  }
  std::sort_heap(heap_.begin(), heap_.end(), WorstFirst{});
  return {heap_.data(), heap_.size()};
}

void KdTreeKnn::insert(graph::VertexId id, const cspace::Config& c) {
  ids_.push_back(id);
  cfgs_.push_back(c);
  pos_.push_back(space_->position(c));
}

bool KdTreeKnn::refresh() {
  // The one rebuild policy (see the class comment): fold a buffer of at
  // least 32 points and a quarter of the indexed count into a fresh tree
  // instead of paying an O(buffer) scan on every query.
  const std::size_t buffered = ids_.size();
  if (buffered < 32 || buffered * 4 < indexed_size()) return false;
  rebuild();
  return true;
}

void KdTreeKnn::rebuild() {
  // A new tree over the old tree's points followed by the buffer; the old
  // tree stays intact for every index copy that still shares it.
  auto t = std::make_shared<Tree>();
  if (tree_ == nullptr) {
    t->ids = std::move(ids_);
    t->cfgs = std::move(cfgs_);
    t->pos = std::move(pos_);
  } else {
    const auto append = [](auto& to, const auto& head, const auto& tail) {
      to.reserve(head.size() + tail.size());
      to.assign(head.begin(), head.end());
      to.insert(to.end(), tail.begin(), tail.end());
    };
    append(t->ids, tree_->ids, ids_);
    append(t->cfgs, tree_->cfgs, cfgs_);
    append(t->pos, tree_->pos, pos_);
  }
  ids_.clear();
  cfgs_.clear();
  pos_.clear();

  const std::size_t n = t->ids.size();
  t->nodes.reserve(leaf_size_ ? 2 * n / leaf_size_ + 2 : n);
  t->perm.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    t->perm[i] = static_cast<std::uint32_t>(i);
  t->root = build_subtree(*t, leaf_size_, 0, n);
  // The recursion only permutes within its own subrange, so perm ends up
  // leaf-contiguous; mirror it into the SoA coordinate arrays.
  t->px.resize(n);
  t->py.resize(n);
  t->pz.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec3& p = t->pos[t->perm[i]];
    t->px[i] = p.x;
    t->py[i] = p.y;
    t->pz[i] = p.z;
  }
  tree_ = std::move(t);
}

std::uint32_t KdTreeKnn::build_subtree(Tree& t, std::size_t leaf_size,
                                       std::size_t lo, std::size_t hi) {
  const auto idx = static_cast<std::uint32_t>(t.nodes.size());
  t.nodes.emplace_back();
  if (hi - lo <= leaf_size) {
    t.nodes[idx] = {0.0, static_cast<std::uint32_t>(lo),
                    static_cast<std::uint32_t>(hi - lo), kLeafAxis};
    return idx;
  }
  // Split along the axis of widest positional spread; a degenerate
  // zero-width spread still partitions, its split plane just never prunes.
  const auto& pos = t.pos;
  geo::Vec3 cmin = pos[t.perm[lo]];
  geo::Vec3 cmax = cmin;
  for (std::size_t i = lo + 1; i < hi; ++i) {
    const geo::Vec3& p = pos[t.perm[i]];
    cmin = geo::min(cmin, p);
    cmax = geo::max(cmax, p);
  }
  const geo::Vec3 extent = cmax - cmin;
  std::uint8_t axis = 0;
  if (extent.y > extent[axis]) axis = 1;
  if (extent.z > extent[axis]) axis = 2;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::nth_element(t.perm.begin() + static_cast<long>(lo),
                   t.perm.begin() + static_cast<long>(mid),
                   t.perm.begin() + static_cast<long>(hi),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return pos[a][axis] < pos[b][axis];
                   });
  // Median point goes to the right half: left holds coords <= split,
  // right holds coords >= split, which is what the |delta| bound assumes.
  const double split = pos[t.perm[mid]][axis];
  const std::uint32_t left = build_subtree(t, leaf_size, lo, mid);
  const std::uint32_t right = build_subtree(t, leaf_size, mid, hi);
  t.nodes[idx] = {split, left, right, axis};
  return idx;
}

std::span<const Neighbor> KdTreeKnn::nearest(const cspace::Config& q,
                                             std::size_t k,
                                             PlannerStats* stats) {
  refresh();
  return nearest(q, k, scratch_, stats);
}

std::span<const Neighbor> KdTreeKnn::nearest(const cspace::Config& q,
                                             std::size_t k, Scratch& scratch,
                                             PlannerStats* stats) const {
  if (stats) ++stats->knn_queries;
  std::vector<Neighbor>& heap = scratch.heap_;
  heap.clear();
  if (k == 0) return {};
  heap.reserve(k + 1);
  const geo::Vec3 qp = space_->position(q);

  if (tree_ != nullptr) {
    const Tree& t = *tree_;
    std::vector<Visit>& stack = scratch.stack_;
    stack.clear();
    stack.push_back({t.root, 0.0});
    while (!stack.empty()) {
      const Visit v = stack.back();
      stack.pop_back();
      // Strict >: an equal bound may still hide an equal-distance point
      // with a smaller id, which beats the current worst under canonical
      // order.
      if (heap.size() >= k && v.bound > heap.front().distance) continue;
      const Node& n = t.nodes[v.node];
      if (n.axis == kLeafAxis) {
        const std::size_t first = n.a;
        const std::size_t count = n.b;
        for (std::size_t s = first; s < first + count; ++s) {
          if (stats) ++stats->knn_candidates;
          const double dx = qp.x - t.px[s];
          const double dy = qp.y - t.py[s];
          const double dz = qp.z - t.pz[s];
          // Left-associative sum, matching Vec3::dot/norm bit-for-bit so
          // this positional bound can never exceed the full metric (which
          // only adds a non-negative rotation term on top of it).
          const double pd = std::sqrt((dx * dx + dy * dy) + dz * dz);
          if (heap.size() >= k && pd > heap.front().distance) continue;
          const std::uint32_t m = t.perm[s];
          heap_consider(heap, k, {t.ids[m], space_->distance(q, t.cfgs[m])});
        }
        continue;
      }
      const double delta = qp[n.axis] - n.split;
      const std::uint32_t near_child = delta < 0.0 ? n.a : n.b;
      const std::uint32_t far_child = delta < 0.0 ? n.b : n.a;
      // Depth-first into the near child: push the far side (with its
      // tightened bound) first so the near side pops next.
      stack.push_back({far_child, std::max(v.bound, std::fabs(delta))});
      stack.push_back({near_child, v.bound});
    }
  }

  // Points inserted since the last rebuild live in the linear buffer; the
  // same positional lower bound skips the full metric where it cannot win.
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (stats) ++stats->knn_candidates;
    const double dx = qp.x - pos_[i].x;
    const double dy = qp.y - pos_[i].y;
    const double dz = qp.z - pos_[i].z;
    const double pd = std::sqrt((dx * dx + dy * dy) + dz * dz);
    if (heap.size() >= k && pd > heap.front().distance) continue;
    heap_consider(heap, k, {ids_[i], space_->distance(q, cfgs_[i])});
  }
  std::sort_heap(heap.begin(), heap.end(), WorstFirst{});
  return {heap.data(), heap.size()};
}

void KdTreeKnn::nearest_batch(std::span<const cspace::Config> queries,
                              std::size_t k, KnnBatch& out, Scratch& scratch,
                              PlannerStats* stats) const {
  fill_batch(queries, out, [&](const cspace::Config& q) {
    return nearest(q, k, scratch, stats);
  });
}

std::unique_ptr<NeighborFinder> make_neighbor_finder(
    const cspace::CSpace& space, bool exact) {
  if (exact) return std::make_unique<BruteForceKnn>(space);
  return std::make_unique<KdTreeKnn>(space);
}

}  // namespace pmpl::planner
