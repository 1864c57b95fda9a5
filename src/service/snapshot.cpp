#include "service/snapshot.hpp"

#include <thread>
#include <utility>

#include "cspace/local_planner.hpp"

namespace pmpl::service {

namespace {
std::atomic<std::uint64_t> g_live_snapshots{0};
}  // namespace

RoadmapSnapshot::RoadmapSnapshot(planner::Roadmap g) : roadmap(std::move(g)) {
  g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

RoadmapSnapshot::RoadmapSnapshot(planner::Roadmap g, planner::KdTreeKnn index,
                                 bool rebuilt)
    : roadmap(std::move(g)), index_rebuilt(rebuilt), index_(std::move(index)) {
  g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

RoadmapSnapshot::~RoadmapSnapshot() {
  g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

const planner::KdTreeKnn& RoadmapSnapshot::index(
    const cspace::CSpace& space) const {
  std::call_once(index_once_, [&] {
    if (index_.has_value()) return;
    planner::KdTreeKnn idx(space);
    const auto n = static_cast<graph::VertexId>(roadmap.num_vertices());
    for (graph::VertexId v = 0; v < n; ++v) idx.insert(v, roadmap.vertex(v).cfg);
    idx.refresh();
    index_.emplace(std::move(idx));
  });
  return *index_;
}

std::uint64_t RoadmapSnapshot::live_count() noexcept {
  return g_live_snapshots.load(std::memory_order_relaxed);
}

void SnapshotRef::release() noexcept {
  if (pool_ != nullptr) {
    pool_->unpin(slot_);
    pool_ = nullptr;
    snap_ = nullptr;
  }
}

SnapshotPool::~SnapshotPool() {
  // Destruction contract: no outstanding refs, no concurrent publishers.
  for (Slot& s : slots_) delete s.snap.exchange(nullptr);
}

SnapshotRef SnapshotPool::acquire() noexcept {
  for (;;) {
    const std::uint32_t ix = current_.load(std::memory_order_acquire);
    if (ix == kNoSlot) return {};
    Slot& s = slots_[ix];
    s.pins.fetch_add(1, std::memory_order_seq_cst);
    if (s.state.load(std::memory_order_seq_cst) == kLive) {
      // The pin landed while the slot was live, so the reclaimer (which
      // flips the state away from kLive before re-checking pins) is now
      // excluded: the snapshot pointer is stable until we unpin.
      return SnapshotRef(this, ix, s.snap.load(std::memory_order_acquire));
    }
    // Lost the race with a publish/reclaim of this slot: back out without
    // ever dereferencing and retry on the fresh current index.
    unpin(ix);
  }
}

void SnapshotPool::unpin(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.pins.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Possibly the last reader of a retired epoch: reclaim it now rather
    // than waiting for the next publish to sweep.
    if (s.state.load(std::memory_order_seq_cst) == kRetired)
      try_reclaim(slot);
  }
}

void SnapshotPool::try_reclaim(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.pins.load(std::memory_order_seq_cst) != 0) return;
  std::uint32_t expected = kRetired;
  if (!s.state.compare_exchange_strong(expected, kReclaiming,
                                       std::memory_order_seq_cst))
    return;  // someone else is reclaiming, or the slot is not retired
  // Readers that pinned between our pins check and the CAS observe a
  // non-kLive state and unpin without dereferencing; wait out those
  // transient pins (bounded: no reader holds a pin on a non-live slot).
  while (s.pins.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  RoadmapSnapshot* snap = s.snap.exchange(nullptr, std::memory_order_acq_rel);
  recycle(*snap);
  delete snap;
  reclaimed_.fetch_add(1, std::memory_order_relaxed);
  s.state.store(kEmpty, std::memory_order_seq_cst);
}

std::uint32_t SnapshotPool::claim_empty_slot() noexcept {
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    std::uint32_t expected = kEmpty;
    if (slots_[i].state.compare_exchange_strong(expected, kFilling,
                                                std::memory_order_seq_cst))
      return i;
  }
  return kNoSlot;
}

void SnapshotPool::recycle(RoadmapSnapshot& snap) noexcept {
  planner::Roadmap older;  // a spare this one replaces; freed after unlock
  std::lock_guard lock(spare_mutex_);
  if (snap.lineage != lineage_ || snap.epoch < spare_epoch_) return;
  older = std::exchange(spare_, std::move(snap.roadmap));
  spare_epoch_ = snap.epoch;
}

planner::Roadmap SnapshotPool::take_spare(const RoadmapSnapshot& base) {
  std::lock_guard lock(spare_mutex_);
  // A spare of base's lineage is an older state of base's roadmap unless it
  // is newer than base (another publisher got ahead of this one).
  if (spare_epoch_ == 0 || base.lineage != lineage_ ||
      spare_epoch_ > base.epoch)
    return {};
  spare_epoch_ = 0;
  recycled_.fetch_add(1, std::memory_order_relaxed);
  return std::exchange(spare_, {});
}

std::uint64_t SnapshotPool::publish(planner::Roadmap roadmap) {
  return install(std::make_unique<RoadmapSnapshot>(std::move(roadmap)),
                 kNewLineage);
}

std::uint64_t SnapshotPool::install(std::unique_ptr<RoadmapSnapshot> owned,
                                    std::uint64_t parent) {
  planner::Roadmap dropped;  // an ended lineage's spare; freed after unlock
  std::lock_guard lock(publish_mutex_);
  const std::uint64_t epoch =
      next_epoch_.fetch_add(1, std::memory_order_relaxed);
  owned->epoch = epoch;
  {
    std::lock_guard spare_lock(spare_mutex_);
    if (parent != current_epoch_.load(std::memory_order_relaxed)) {
      ++lineage_;
      dropped = std::exchange(spare_, {});
      spare_epoch_ = 0;
    }
    owned->lineage = lineage_;
  }
  RoadmapSnapshot* snap = owned.release();

  std::uint32_t ix = claim_empty_slot();
  while (ix == kNoSlot) {
    // Every slot holds a pinned epoch. Sweep retired slots whose readers
    // have since dropped, then yield to them; publication waits, queries
    // never do.
    for (std::uint32_t i = 0; i < kSlots; ++i) try_reclaim(i);
    if ((ix = claim_empty_slot()) != kNoSlot) break;
    std::this_thread::yield();
  }

  Slot& s = slots_[ix];
  s.snap.store(snap, std::memory_order_release);
  s.state.store(kLive, std::memory_order_seq_cst);

  const std::uint32_t prev = current_.exchange(ix, std::memory_order_seq_cst);
  current_epoch_.store(epoch, std::memory_order_release);
  published_.fetch_add(1, std::memory_order_relaxed);

  if (prev != kNoSlot) {
    slots_[prev].state.store(kRetired, std::memory_order_seq_cst);
    try_reclaim(prev);
  }
  return epoch;
}

std::uint64_t SnapshotPool::live_slots() const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) {
    const std::uint32_t st = s.state.load(std::memory_order_acquire);
    if (st == kLive || st == kRetired || st == kFilling) ++n;
  }
  return n;
}

std::uint64_t SnapshotPool::current_readers() const noexcept {
  const std::uint32_t ix = current_.load(std::memory_order_acquire);
  if (ix == kNoSlot) return 0;
  return slots_[ix].pins.load(std::memory_order_acquire);
}

void SnapshotPool::publish_metrics(runtime::MetricsRegistry& reg,
                                   const std::string& prefix) {
  reg.set(prefix + "epoch", static_cast<double>(current_epoch()));
  reg.set(prefix + "snapshots_live", static_cast<double>(live_slots()));
  reg.set(prefix + "snapshot_readers",
          static_cast<double>(current_readers()));
  const std::uint64_t pub = published_total();
  const std::uint64_t rec = reclaimed_total();
  const std::uint64_t rcy = recycled_total();
  reg.add(prefix + "snapshots_published", pub - metrics_published_base_);
  reg.add(prefix + "snapshots_reclaimed", rec - metrics_reclaimed_base_);
  reg.add(prefix + "snapshots_recycled", rcy - metrics_recycled_base_);
  metrics_published_base_ = pub;
  metrics_reclaimed_base_ = rec;
  metrics_recycled_base_ = rcy;
}

std::uint64_t densify_and_publish(SnapshotPool& pool,
                                  const env::Environment& e,
                                  const planner::PrmParams& params,
                                  std::size_t attempts, std::uint64_t seed,
                                  planner::PlannerStats* stats,
                                  const runtime::CancelToken* cancel) {
  planner::PlannerStats local;
  planner::PlannerStats& st = stats != nullptr ? *stats : local;

  // Readers keep the current epoch; we densify a private roadmap brought
  // up to it (the recycled spare, or an empty roadmap, which makes this a
  // copy) and extend a copy of its index, which shares the built tree and
  // copies only the insertion buffer.
  planner::Roadmap next;
  planner::KdTreeKnn index(e.space());
  bool rebuilt = true;
  std::uint64_t parent = 0;
  if (SnapshotRef cur = pool.acquire()) {
    next = pool.take_spare(*cur);
    next.extend_to(cur->roadmap);
    index = cur->index(e.space());
    rebuilt = false;
    parent = cur->epoch;
  }

  Xoshiro256ss rng(seed);
  const auto samples = planner::sample_region(
      e, e.space().position_bounds(), attempts, rng, st, cancel);
  std::vector<graph::VertexId> fresh;
  fresh.reserve(samples.size());
  for (const auto& c : samples) {
    fresh.push_back(next.add_vertex({c, 0}));
    index.insert(fresh.back(), c);
  }
  if (index.refresh()) rebuilt = true;

  if (!fresh.empty()) {
    // Connect each fresh vertex into the *whole* graph (old + new), unlike
    // connect_within which only searches inside one id set. k-NN runs as
    // one batch; edge validation goes through the cross-edge window so the
    // wide validity lanes stay full across short or early-rejecting edges.
    planner::KnnBatch batch;
    planner::KdTreeKnn::Scratch scratch;
    index.nearest_batch(samples, params.k_neighbors + 1, batch, scratch, &st);

    cspace::EdgeBatchPlanner ebp(e.space(), e.validity(), params.resolution,
                                 params.edge_window);
    const auto commit_one = [&] {
      const auto out = ebp.next(&st.cd);
      const auto a = static_cast<graph::VertexId>(out.tag >> 32);
      const auto b = static_cast<graph::VertexId>(out.tag & 0xffffffffu);
      if (next.has_edge(a, b)) return;
      ++st.lp_attempts;
      st.lp_steps += out.result.steps_checked;
      st.cd.queries += out.result.steps_checked;
      if (out.result.success) {
        ++st.lp_success;
        next.add_edge(a, b, {out.result.length});
      }
    };
    for (std::size_t qi = 0; qi < fresh.size(); ++qi) {
      const graph::VertexId id = fresh[qi];
      if (runtime::stop_requested(cancel)) break;
      for (const planner::Neighbor& n : batch.of(qi)) {
        if (n.id == id) continue;
        if (next.has_edge(id, n.id)) continue;
        if (!ebp.can_admit()) commit_one();
        ebp.admit(next.vertex(id).cfg, next.vertex(n.id).cfg,
                  (static_cast<std::uint64_t>(id) << 32) | n.id);
      }
    }
    while (ebp.pending()) commit_one();
  }

  return pool.install(std::make_unique<RoadmapSnapshot>(
                          std::move(next), std::move(index), rebuilt),
                      parent);
}

}  // namespace pmpl::service
