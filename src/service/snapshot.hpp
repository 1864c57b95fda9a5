#pragma once
/// \file snapshot.hpp
/// Epoch/RCU-style pool of immutable roadmap snapshots.
///
/// The service layer decouples *query* traffic from *construction*: queries
/// run against a pinned, immutable snapshot of the roadmap while a
/// background rebuild densifies a copy and publishes the result as the next
/// epoch with a single atomic index swap. Readers never block on
/// construction, construction never blocks on readers, and a retired
/// snapshot is reclaimed exactly when its last reader drops.
///
/// Reader protocol (lock-free; two atomic ops to pin):
///   1. load the current slot index,
///   2. fetch_add the slot's pin count,
///   3. re-check the slot state — if it is not kLive (the slot was retired
///      or is being refilled between steps 1 and 2), unpin and retry.
/// A pinned slot cannot be reclaimed: the reclaimer only frees a slot it
/// has moved kRetired -> kReclaiming, and it re-waits for transient pins
/// (readers between steps 2 and 3, who will observe the non-live state and
/// unpin without ever dereferencing the snapshot) to drain first.
///
/// Publication claims an empty slot, fills it, marks it kLive, swings the
/// current index, then retires the previous slot. With `kSlots` slots, up
/// to kSlots - 1 old epochs can stay pinned by long-running readers while
/// new epochs keep publishing; `publish` only waits when every slot is
/// still pinned (pathological reader hoarding), never the other way round.
///
/// Each snapshot carries an immutable k-NN index over its own vertices
/// (`RoadmapSnapshot::index`). Densify epochs only append vertices, so
/// `densify_and_publish` extends the current epoch's index instead of
/// building a new one: the built kd-tree is shared between consecutive
/// epochs, each epoch adds its fresh vertices to an insertion buffer, and
/// the tree is rebuilt only when KdTreeKnn's rebuild rule fires. A shared
/// tree is freed with the last epoch that refers to it.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "planner/knn.hpp"
#include "planner/prm.hpp"
#include "planner/roadmap.hpp"
#include "runtime/cancel.hpp"
#include "runtime/metrics_registry.hpp"

namespace pmpl::service {

/// One immutable published roadmap and its k-NN index. Never mutated after
/// publication; safe to read from any number of threads.
struct RoadmapSnapshot {
  planner::Roadmap roadmap;
  std::uint64_t epoch = 0;
  /// The index was built from scratch for this epoch (a roadmap published
  /// whole, or a densify epoch whose rebuild rule fired), not extended
  /// from the previous epoch's tree.
  bool index_rebuilt = true;

  /// Index built from `g` on first use.
  explicit RoadmapSnapshot(planner::Roadmap g);
  /// `index` must hold exactly the vertices of `g`, under their ids.
  RoadmapSnapshot(planner::Roadmap g, planner::KdTreeKnn index,
                  bool rebuilt);
  ~RoadmapSnapshot();
  RoadmapSnapshot(const RoadmapSnapshot&) = delete;
  RoadmapSnapshot& operator=(const RoadmapSnapshot&) = delete;

  /// k-NN index over this epoch's vertices (neighbor id = vertex id).
  /// Query it through the const `nearest`/`nearest_batch` with caller-owned
  /// scratch, from any number of threads. A snapshot published without an
  /// index builds it here once, on first use, over `space` — the space the
  /// roadmap was planned in, which every caller must pass.
  const planner::KdTreeKnn& index(const cspace::CSpace& space) const;

  /// Snapshots currently alive in the process (reclamation tests).
  static std::uint64_t live_count() noexcept;

 private:
  mutable std::once_flag index_once_;
  mutable std::optional<planner::KdTreeKnn> index_;
};

class SnapshotPool;

/// RAII pin on one published snapshot. While a ref is held the snapshot
/// (and its epoch's roadmap) stays valid no matter how many newer epochs
/// publish; dropping the last ref of a retired epoch reclaims it.
class SnapshotRef {
 public:
  SnapshotRef() noexcept = default;
  ~SnapshotRef() { release(); }

  SnapshotRef(SnapshotRef&& o) noexcept
      : pool_(o.pool_), slot_(o.slot_), snap_(o.snap_) {
    o.pool_ = nullptr;
    o.snap_ = nullptr;
  }
  SnapshotRef& operator=(SnapshotRef&& o) noexcept {
    if (this != &o) {
      release();
      pool_ = o.pool_;
      slot_ = o.slot_;
      snap_ = o.snap_;
      o.pool_ = nullptr;
      o.snap_ = nullptr;
    }
    return *this;
  }
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  explicit operator bool() const noexcept { return snap_ != nullptr; }
  const RoadmapSnapshot* get() const noexcept { return snap_; }
  const RoadmapSnapshot* operator->() const noexcept { return snap_; }
  const RoadmapSnapshot& operator*() const noexcept { return *snap_; }

  /// Drop the pin early (idempotent).
  void release() noexcept;

 private:
  friend class SnapshotPool;
  SnapshotRef(SnapshotPool* pool, std::uint32_t slot,
              const RoadmapSnapshot* snap) noexcept
      : pool_(pool), slot_(slot), snap_(snap) {}

  SnapshotPool* pool_ = nullptr;
  std::uint32_t slot_ = 0;
  const RoadmapSnapshot* snap_ = nullptr;
};

/// Fixed-slot snapshot pool. One logical publisher at a time (publish is
/// internally serialized); any number of concurrent readers.
class SnapshotPool {
 public:
  static constexpr std::size_t kSlots = 8;

  SnapshotPool() = default;
  ~SnapshotPool();
  SnapshotPool(const SnapshotPool&) = delete;
  SnapshotPool& operator=(const SnapshotPool&) = delete;

  /// Publish `roadmap` as the next epoch; returns that epoch (1-based).
  /// Readers pinned on older epochs are unaffected. Waits only when all
  /// kSlots slots are pinned by readers. The epoch's index is built from
  /// scratch (on first use, see RoadmapSnapshot::index).
  std::uint64_t publish(planner::Roadmap roadmap);

  /// Publish `roadmap` with a ready index over exactly its vertices;
  /// `rebuilt` records whether that index's tree is new to this epoch.
  std::uint64_t publish(planner::Roadmap roadmap, planner::KdTreeKnn index,
                        bool rebuilt);

  /// Pin the current snapshot. Empty ref iff nothing has been published.
  /// Lock-free: retries only while racing a concurrent publish/reclaim.
  SnapshotRef acquire() noexcept;

  /// Epoch of the current snapshot; 0 before the first publish.
  std::uint64_t current_epoch() const noexcept {
    return current_epoch_.load(std::memory_order_acquire);
  }

  std::uint64_t published_total() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }
  std::uint64_t reclaimed_total() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  /// Slots holding a snapshot (live + retired-but-pinned).
  std::uint64_t live_slots() const noexcept;
  /// Readers currently pinning the current slot.
  std::uint64_t current_readers() const noexcept;

  /// Gauges `<prefix>epoch`, `<prefix>snapshots_live`,
  /// `<prefix>snapshot_readers` and counters `<prefix>snapshots_published`,
  /// `<prefix>snapshots_reclaimed` (counters are set as deltas since the
  /// last call on this pool — call from one collection thread).
  void publish_metrics(runtime::MetricsRegistry& reg,
                       const std::string& prefix = "service/");

 private:
  friend class SnapshotRef;

  enum : std::uint32_t { kEmpty = 0, kFilling = 1, kLive = 2, kRetired = 3,
                         kReclaiming = 4 };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    std::atomic<std::uint32_t> state{kEmpty};
    std::atomic<std::uint64_t> pins{0};
    std::atomic<const RoadmapSnapshot*> snap{nullptr};
  };

  std::uint64_t install(std::unique_ptr<RoadmapSnapshot> snap);
  void unpin(std::uint32_t slot) noexcept;
  void try_reclaim(std::uint32_t slot) noexcept;
  std::uint32_t claim_empty_slot() noexcept;  ///< kNoSlot when none free

  std::array<Slot, kSlots> slots_;
  std::atomic<std::uint32_t> current_{kNoSlot};
  std::atomic<std::uint64_t> current_epoch_{0};
  std::atomic<std::uint64_t> next_epoch_{1};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::mutex publish_mutex_;  ///< serializes publishers, never readers
  std::uint64_t metrics_published_base_ = 0;
  std::uint64_t metrics_reclaimed_base_ = 0;
};

/// Incremental densification: copy the pool's current roadmap (or start
/// empty), add `attempts` worth of new PRM samples, connect them into the
/// whole graph through batched k-NN + the cross-edge batching planner, and
/// publish the result as the next epoch. Returns the published epoch.
/// The k-NN runs on the current epoch's index extended by the fresh
/// vertices, and that extended index is published with the epoch; it is
/// always a KdTreeKnn (`params.exact_knn` would pick a finder with the same
/// answers). Deterministic given (current epoch contents, seed). A fired
/// `cancel` publishes whatever was densified so far (bounded overrun: one
/// window).
std::uint64_t densify_and_publish(SnapshotPool& pool,
                                  const env::Environment& e,
                                  const planner::PrmParams& params,
                                  std::size_t attempts, std::uint64_t seed,
                                  planner::PlannerStats* stats = nullptr,
                                  const runtime::CancelToken* cancel =
                                      nullptr);

}  // namespace pmpl::service
