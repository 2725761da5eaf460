// The one superstep loop. Every engine — ICM, VCM, GoFFish's inner
// snapshot loop and Chlonos's inner batch loop — runs the paper's BSP
// superstep (§VII-A4: compute, then messaging, then barrier) through
// SuperstepDriver::Run. The driver owns everything that loop shares:
//
//   * the SuperstepRuntime (thread pool + chunk table), the transport and
//     the [chunk][dst_worker] wire matrix;
//   * the active-unit walk — a dense scan of the chunk's owned units or
//     the plane's sorted FrontierSlice, with the next unit's inbox span
//     prefetched behind the current one;
//   * the fault-kill check (ckpt/fault_injector.h);
//   * folding per-chunk counters into SuperstepMetrics;
//   * Barrier, Route, CountFrontier, Accumulate and the halting rule;
//   * checkpoint restore at start-up and checkpoint commit at the barrier.
//
// An engine is reduced to the frontier + operator hooks it passes as a
// compile-time Hooks type (member calls, never std::function or virtual
// dispatch per unit). Required:
//
//   void Process(const ChunkLane& lane, uint32_t unit);
//       Runs the user operator on one active unit; sends go into
//       lane.wire (or an engine outbox indexed by lane.chunk), counts
//       into lane.counters.
//   void Decode(Reader& reader, int dst);
//       Reads ONE wire message and Delivers it to worker dst's inbox.
//
// Optional, detected at compile time:
//
//   bool Admit(const ChunkLane& lane, uint32_t unit);
//       Activation filter over the walk's candidates (GoFFish snapshot
//       liveness and InitialActive, Chlonos unit existence, VCM's warm
//       seed). Candidates are every owned unit in superstep 0 and
//       always-active runs, the mailed units otherwise.
//   void Stage(SuperstepMetrics* ss);
//       Moves engine outboxes into wire_row(c) before Route (GoFFish's
//       temporal mailboxes, Chlonos's share grouping).
//   void ResetScratch();
//       Per-thread scratch reset at the barrier (ICM's warp arenas).
//   std::string EncodeSection(int worker);
//   void DecodeSection(int worker, const std::string& bytes);
//       One logical worker's checkpoint section. Hooks without them
//       cannot checkpoint or resume.
//
// Determinism: chunks split each worker's unit list contiguously and the
// walk visits a chunk's units in order, so wire rows concatenated in chunk
// order equal the sequential per-worker buffers byte for byte
// (engine/parallel.h, engine/delivery.h).
#ifndef GRAPHITE_ENGINE_SUPERSTEP_DRIVER_H_
#define GRAPHITE_ENGINE_SUPERSTEP_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "ckpt/fault_injector.h"
#include "engine/delivery.h"
#include "engine/metrics.h"
#include "engine/parallel.h"
#include "engine/transport.h"
#include "graph/temporal_graph.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/timer.h"

namespace graphite {

/// What one chunk's compute did. The driver folds these into the
/// superstep's metrics per logical worker; engines bump what applies.
struct ChunkCounters {
  int64_t compute_calls = 0;
  int64_t scatter_calls = 0;
  int64_t messages = 0;
  int64_t warp_slices = 0;
  int64_t warp_merge_hits = 0;
  /// Carried across checkpoints (ICM only; see CarryCounters).
  int64_t active_compute_calls = 0;
  int64_t suppressed_vertices = 0;
};

/// Where a Process/Admit call runs: the chunk's output slots and lanes.
struct ChunkLane {
  int superstep = 0;
  int chunk = 0;   ///< Index of the chunk's wire row (and engine outbox).
  int worker = 0;  ///< Logical worker owning the chunk.
  int thread = 0;  ///< OS lane: index of per-thread scratch.
  /// Batch layer of the unit: units are layer * map units + owned unit
  /// when the plane's inbox universe is batch-expanded (Chlonos
  /// snapshots); 0 elsewhere.
  uint32_t layer = 0;
  std::vector<Writer>* wire = nullptr;  ///< Per-destination rows.
  ChunkCounters* counters = nullptr;
};

template <typename H>
concept CheckpointHooks = requires(H& h, int w, const std::string& bytes) {
  { h.EncodeSection(w) } -> std::convertible_to<std::string>;
  h.DecodeSection(w, bytes);
};

template <typename Item>
class SuperstepDriver {
 public:
  /// Binds `plane` to a fresh runtime built for its owned-unit lists.
  /// Supersteps accumulate into *metrics. `head` identifies the graph
  /// the run executes against; checkpoint frames record it and a resume
  /// against another head starts cold.
  SuperstepDriver(DeliveryPlane<Item>* plane, RunMetrics* metrics,
                  bool use_threads, const RuntimeOptions& options,
                  const RecoveryContext& recovery = {}, GraphHead head = {})
      : plane_(*plane),
        metrics_(metrics),
        options_(options),
        recovery_(recovery),
        head_(head),
        rt_(plane->num_workers(), use_threads, options,
            plane->map().worker_sizes()),
        transport_(MakeTransport(options.transport, plane->num_workers())) {
    plane_.set_frontier_density(options.frontier_density);
    plane_.Bind(&rt_);
    const size_t map_units = plane_.map().num_units();
    stride_ = static_cast<uint32_t>(map_units);
    layers_ = map_units == 0
                  ? 1
                  : static_cast<uint32_t>(plane_.num_units() / map_units);
    const int num_chunks = rt_.num_chunks();
    wire_.resize(num_chunks);
    for (auto& row : wire_) row.resize(plane_.num_workers());
    row_src_.resize(num_chunks);
    for (int c = 0; c < num_chunks; ++c) row_src_[c] = rt_.chunk(c).worker;
    counters_.resize(num_chunks);
    chunk_ns_.assign(num_chunks, 0);
  }

  const SuperstepRuntime& runtime() const { return rt_; }
  /// Chunk c's per-destination wire row, for Stage hooks.
  std::vector<Writer>& wire_row(int c) { return wire_[c]; }
  /// ICM's carried counters (0 for the other engines).
  int64_t active_compute_calls() const { return active_compute_calls_; }
  int64_t suppressed_vertices() const { return suppressed_vertices_; }

  /// Restores the checkpoint recovery asks for (newest valid, or
  /// recovery.resume_from): states via DecodeSection, mail flags and
  /// sealed inboxes, and the carried counters. Returns the superstep to
  /// start at, 0 for a cold start. A frame that does not describe this
  /// run — undecodable, or taken against another head, unit count or
  /// worker count — counts as no valid checkpoint.
  template <typename Hooks>
  int Resume(Hooks& hooks) {
    if constexpr (!CheckpointHooks<Hooks>) {
      // Programs without wire traits can run, but cannot checkpoint.
      GRAPHITE_CHECK(recovery_.store == nullptr && !recovery_.resume);
      return 0;
    } else {
      CheckpointStore* store = recovery_.store;
      if (store == nullptr || !recovery_.resume) return 0;
      Result<CheckpointBlob> blob =
          recovery_.resume_from >= 0 ? store->Load(recovery_.resume_from)
                                     : store->LoadLatestValid();
      if (!blob.ok()) return 0;
      Result<CheckpointFrame> frame = DecodeFrame(blob.value().payload);
      if (!frame.ok()) return 0;
      const CheckpointFrame& f = frame.value();
      const int num_workers = plane_.num_workers();
      if (f.superstep < 1 || f.base_epoch != head_.base_epoch ||
          f.delta_watermark != head_.delta_watermark ||
          f.num_units != plane_.map().num_units() ||
          f.sections.size() != static_cast<size_t>(num_workers)) {
        return 0;
      }
      // Sections cover disjoint owned-unit sets: decode in parallel. Each
      // lane Delivers into its own worker's inbox (rebuilding the mailed
      // list in section order, which is owner order) and Seals.
      std::vector<int64_t> unused_ns;  // lint:allow(vector: recovery decode only, not superstep-rate)
      rt_.ParallelFor(num_workers, &unused_ns, [&](int w, int) {
        hooks.DecodeSection(w, f.sections[w]);
        plane_.Seal(w);
      });
      metrics_->resumed_from = f.superstep;
      metrics_->supersteps = f.counters.supersteps;
      metrics_->compute_calls = f.counters.compute_calls;
      metrics_->scatter_calls = f.counters.scatter_calls;
      metrics_->messages = f.counters.messages;
      metrics_->message_bytes = f.counters.message_bytes;
      active_compute_calls_ = f.counters.active_compute_calls;
      suppressed_vertices_ = f.counters.suppressed_vertices;
      return f.superstep;
    }
  }

  /// Runs supersteps [first, max_supersteps) until one sends no message
  /// (unless always_active, which runs to the bound). A fault kill
  /// returns with metrics->interrupted set: nothing from the killed
  /// superstep is accumulated, checkpointed or trusted, exactly as a
  /// dead process would look to a restarting one.
  template <typename Hooks>
  void Run(Hooks& hooks, int first, int max_supersteps, bool always_active) {
    const int num_workers = plane_.num_workers();
    [[maybe_unused]] int64_t last_checkpoint_t = NowNanos();
    for (int superstep = first; superstep < max_supersteps; ++superstep) {
      SuperstepMetrics ss;
      ss.worker_compute_ns.assign(num_workers, 0);
      ss.worker_in_bytes.assign(num_workers, 0);
      ss.worker_compute_calls.assign(num_workers, 0);
      std::fill(counters_.begin(), counters_.end(), ChunkCounters{});

      const bool every_unit = superstep == 0 || always_active;
      ss.steals = rt_.ComputePhase(
          &ss.thread_compute_ns,
          [&](int c, const WorkChunk& chunk, int thread) {
            if (killed_.load(std::memory_order_relaxed)) return;
            if (recovery_.fault != nullptr &&
                recovery_.fault->Fire(superstep, chunk.worker)) {
              killed_.store(true, std::memory_order_relaxed);
              return;
            }
            const int64_t t0 = NowNanos();
            ChunkLane lane;
            lane.superstep = superstep;
            lane.chunk = c;
            lane.worker = chunk.worker;
            lane.thread = thread;
            lane.wire = &wire_[c];
            lane.counters = &counters_[c];
            Walk(hooks, &lane, chunk, every_unit);
            chunk_ns_[c] = NowNanos() - t0;
          });
      if (killed_.load(std::memory_order_relaxed)) {
        metrics_->interrupted = true;
        return;
      }
      Fold(&ss);

      // Barrier: drop the consumed inboxes (spans for exactly the mailed
      // units — no O(n) scan) and reset every superstep arena. This is
      // the ONLY point where arenas reset (DESIGN.md §4f): compute has
      // consumed the inboxes, and messaging below refills them for
      // superstep+1, so a checkpoint encoded after messaging may still
      // reference arena-backed storage.
      const int64_t barrier_t = NowNanos();
      plane_.Barrier();
      if constexpr (requires { hooks.ResetScratch(); }) hooks.ResetScratch();
      ss.barrier_ns = NowNanos() - barrier_t;

      // Messaging: the plane carries every wire row through the transport
      // and each destination lane decodes its own frames.
      const int64_t msg_t = NowNanos();
      if constexpr (requires { hooks.Stage(&ss); }) hooks.Stage(&ss);
      const bool any_message = plane_.Route(
          *transport_, std::span<std::vector<Writer>>(wire_), row_src_, &ss,
          [&hooks](Reader& reader, int dst) { hooks.Decode(reader, dst); });
      ss.messaging_ns = NowNanos() - msg_t;
      // The mailed lists now hold superstep+1's activation set; record
      // its size before the next barrier clears it.
      plane_.CountFrontier(&ss.frontier_units, &ss.frontier_dense_workers);

      metrics_->Accumulate(ss);
      const bool halting = !any_message && !always_active;
      if constexpr (CheckpointHooks<Hooks>) {
        // The messaging phase has delivered superstep+1's inboxes, so the
        // frame captures exactly that superstep's input. The final
        // barrier is never checkpointed: nothing is left to resume.
        if (recovery_.store != nullptr && !halting &&
            superstep + 1 < max_supersteps &&
            options_.checkpoint.ShouldCheckpoint(
                superstep, NowNanos() - last_checkpoint_t)) {
          Commit(hooks, superstep + 1, &last_checkpoint_t);
        }
      }
      if (halting) break;
    }
  }

 private:
  // The active-unit walk over one chunk: every candidate the Admit hook
  // keeps is processed in owned-unit order, once per batch layer.
  template <typename Hooks>
  void Walk(Hooks& hooks, ChunkLane* lane, const WorkChunk& chunk,
            bool every_unit) {
    const int w = chunk.worker;
    const std::vector<uint32_t>& mine = plane_.map().units_of(w);
    const auto admit = [&](uint32_t u) {
      if constexpr (requires { hooks.Admit(*lane, u); }) {
        return hooks.Admit(*lane, u);
      } else {
        return true;
      }
    };
    for (uint32_t layer = 0; layer < layers_; ++layer) {
      lane->layer = layer;
      const uint32_t base = layer * stride_;
      if (every_unit || plane_.FrontierIsDense(w)) {
        // Dense scan: all owned units (superstep 0 / always-active) or a
        // mail-flag sweep when the frontier exceeded the density
        // threshold.
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          const uint32_t u = base + mine[i];
          if (!every_unit && !plane_.HasMail(u)) continue;
          if (!admit(u)) continue;
          if (i + 1 < chunk.end) plane_.Prefetch(w, base + mine[i + 1]);
          hooks.Process(*lane, u);
        }
      } else {
        // Frontier path: the sorted mailed-unit list sliced to this
        // chunk's unit range — exactly the units the dense scan would
        // find, in the same order.
        const uint32_t lo = base + mine[chunk.begin];
        const uint32_t hi =
            base + (chunk.end < mine.size() ? mine[chunk.end] : stride_);
        const std::span<const uint32_t> fs = plane_.FrontierSlice(w, lo, hi);
        for (size_t i = 0; i < fs.size(); ++i) {
          if (!admit(fs[i])) continue;
          if (i + 1 < fs.size()) plane_.Prefetch(w, fs[i + 1]);
          hooks.Process(*lane, fs[i]);
        }
      }
    }
  }

  void Fold(SuperstepMetrics* ss) {
    for (int c = 0; c < rt_.num_chunks(); ++c) {
      const int w = rt_.chunk(c).worker;
      const ChunkCounters& k = counters_[c];
      ss->worker_compute_ns[w] += chunk_ns_[c];
      ss->worker_compute_calls[w] += k.compute_calls;
      ss->compute_calls += k.compute_calls;
      ss->scatter_calls += k.scatter_calls;
      ss->messages += k.messages;
      ss->warp_slices += k.warp_slices;
      ss->warp_merge_hits += k.warp_merge_hits;
      active_compute_calls_ += k.active_compute_calls;
      suppressed_vertices_ += k.suppressed_vertices;
    }
  }

  // Barrier checkpoint for the input of `next_superstep`. A failed commit
  // (disk full, unwritable directory) leaves the run going without that
  // checkpoint; it is not counted.
  template <typename Hooks>
  void Commit(Hooks& hooks, int next_superstep, int64_t* last_checkpoint_t) {
    const int64_t t0 = NowNanos();
    CheckpointFrame frame;
    frame.superstep = next_superstep;
    frame.num_units = plane_.map().num_units();
    frame.base_epoch = head_.base_epoch;
    frame.delta_watermark = head_.delta_watermark;
    frame.counters = {metrics_->supersteps,    metrics_->compute_calls,
                      metrics_->scatter_calls, metrics_->messages,
                      metrics_->message_bytes, active_compute_calls_,
                      suppressed_vertices_};
    frame.sections.resize(plane_.num_workers());
    // Sections cover disjoint owned-unit sets: encode in parallel.
    std::vector<int64_t> unused_ns;  // lint:allow(vector: checkpoint barrier only, not superstep-rate)
    rt_.ParallelFor(plane_.num_workers(), &unused_ns, [&](int w, int) {
      frame.sections[w] = hooks.EncodeSection(w);
    });
    CheckpointStore* store = recovery_.store;
    if (!store->Commit(frame.superstep, EncodeFrame(frame)).ok()) return;
    *last_checkpoint_t = NowNanos();
    SuperstepMetrics& back = metrics_->per_superstep.back();
    back.checkpoint_ns = *last_checkpoint_t - t0;
    back.checkpoint_bytes = store->last_commit_bytes();
    ++metrics_->checkpoints;
    metrics_->checkpoint_ns += back.checkpoint_ns;
    metrics_->checkpoint_bytes += back.checkpoint_bytes;
  }

  DeliveryPlane<Item>& plane_;
  RunMetrics* metrics_;
  RuntimeOptions options_;
  RecoveryContext recovery_;
  GraphHead head_;
  SuperstepRuntime rt_;
  std::unique_ptr<Transport> transport_;
  uint32_t stride_ = 0;  ///< Owned-unit universe size (the map's).
  uint32_t layers_ = 1;  ///< Inbox universe / map universe.
  std::vector<std::vector<Writer>> wire_;  // lint:allow(vector: per-run wire matrix; Writer::Clear reuses capacity)
  std::vector<int> row_src_;  // lint:allow(vector: per-run chunk map, sized once)
  std::vector<ChunkCounters> counters_;  // lint:allow(vector: per-run counters, sized once)
  std::vector<int64_t> chunk_ns_;  // lint:allow(vector: per-run timings, sized once)
  std::atomic<bool> killed_{false};
  int64_t active_compute_calls_ = 0;
  int64_t suppressed_vertices_ = 0;
};

}  // namespace graphite

#endif  // GRAPHITE_ENGINE_SUPERSTEP_DRIVER_H_
