// GoFFish-TS (GOF) baseline (paper §VII-A3, [12]): models the temporal
// graph as a sequence of snapshots. An OUTER loop walks the snapshots (in
// time order, or reverse for LD) delivering temporal messages; an INNER
// loop of VCM supersteps operates on one snapshot at a time. Vertex state
// is persistent across snapshots, and the user logic explicitly passes
// state forward as self-messages to the next snapshot — so neither compute
// nor messaging is shared across time, which is the baseline's cost.
#ifndef GRAPHITE_BASELINES_GOFFISH_H_
#define GRAPHITE_BASELINES_GOFFISH_H_

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/common.h"
#include "baselines/msb.h"
#include "engine/delivery.h"
#include "engine/message_traits.h"
#include "engine/parallel.h"
#include "engine/superstep_driver.h"
#include "graph/partitioner.h"
#include "graph/snapshot.h"
#include "util/timer.h"

namespace graphite {

struct GoffishOptions {
  int num_workers = 4;
  bool use_threads = false;
  /// Threads, chunking, transport and frontier density
  /// (engine/parallel.h).
  RuntimeOptions runtime;
  /// Process snapshots from horizon-1 down to 0 (LD's reverse traversal).
  bool reverse_time = false;
  /// Vertex->worker placement policy (graph/partitioner.h).
  Placement placement;
};

/// Send-side context for one (snapshot, worker). Same-snapshot sends are
/// delivered in the next inner superstep; other targets become temporal
/// messages delivered when the outer loop reaches that snapshot.
template <typename Message>
class GofContext {
 public:
  struct Pending {
    uint32_t dst;
    TimePoint t;
    Message payload;
  };

  GofContext(int inner_superstep, TimePoint t, std::vector<Pending>* outbox)
      : inner_superstep_(inner_superstep), t_(t), outbox_(outbox) {}

  /// Inner (within-snapshot) superstep number.
  int superstep() const { return inner_superstep_; }
  /// The snapshot currently being processed.
  TimePoint time() const { return t_; }

  /// Sends `msg` to vertex `dst` at snapshot `t` (any time, including the
  /// current snapshot). Messages outside [0, horizon) are dropped by the
  /// engine after being counted — they can never be delivered.
  void SendTemporal(uint32_t dst, TimePoint t, const Message& msg) {
    outbox_->push_back({dst, t, msg});
  }

 private:
  int inner_superstep_;
  TimePoint t_;
  std::vector<Pending>* outbox_;
};

/// Runs a GoFFish program over all snapshots. The per-(vertex, time)
/// result records the persistent value after each snapshot's inner loop.
///
/// Program contract:
///   using Value / Message;
///   Value Init(VertexIdx) const;
///   bool InitialActive(VertexIdx v, TimePoint t,
///                      const SnapshotView&) const;    // seed activation
///   void Compute(GofContext<Message>&, VertexIdx, Value&,
///                std::span<const Message>, const SnapshotView&);
template <typename Program>
BaselineOutcome<typename Program::Value> RunGoffish(
    const TemporalGraph& g, Program& program, const GoffishOptions& options) {
  using Value = typename Program::Value;
  using Message = typename Program::Message;
  using Pending = typename GofContext<Message>::Pending;

  const size_t n = g.num_vertices();
  const TimePoint T = g.horizon();

  // Delivery plane (engine/delivery.h): placement, flat per-worker
  // inboxes and mail tracking, shared by every snapshot's inner loop.
  DeliveryPlane<Message> plane(WorkerMap(
      n, options.num_workers, options.placement,
      [&g](uint32_t v) { return g.vertex_id(v); }));

  std::vector<Value> values(n);
  for (VertexIdx v = 0; v < n; ++v) values[v] = program.Init(v);
  // Temporal mailboxes, one per future snapshot.
  std::vector<std::vector<std::pair<VertexIdx, Message>>> temporal(
      static_cast<size_t>(T));

  BaselineOutcome<Value> out;
  out.result.resize(n);
  const int64_t run_start = NowNanos();

  // One driver (pool, chunk table, wire matrix) for every snapshot's inner
  // loop. Outboxes are per chunk: concatenating them in chunk order equals
  // sequential mode's per-worker outbox order exactly.
  SuperstepDriver<Message> driver(&plane, &out.metrics, options.use_threads,
                                  options.runtime);
  std::vector<std::vector<Pending>> outbox(driver.runtime().num_chunks());

  struct Hooks {
    Program& program;
    std::vector<Value>& values;
    DeliveryPlane<Message>& plane;
    SuperstepDriver<Message>& driver;
    std::vector<std::vector<Pending>>& outbox;
    std::vector<std::vector<std::pair<VertexIdx, Message>>>& temporal;
    const SnapshotView& view;
    TimePoint t;
    TimePoint horizon;

    void Process(const ChunkLane& lane, VertexIdx v) {
      GofContext<Message> ctx(lane.superstep, t, &outbox[lane.chunk]);
      program.Compute(ctx, v, values[v], plane.MessagesFor(lane.worker, v),
                      view);
      ++lane.counters->compute_calls;
    }
    // Snapshot-live vertices only (a vertex can be mailed by a neighbor
    // even where the snapshot excludes it); inner superstep 0 also wakes
    // the program's InitialActive seeds.
    bool Admit(const ChunkLane& lane, VertexIdx v) const {
      return view.VertexActive(v) &&
             (plane.HasMail(v) ||
              (lane.superstep == 0 && program.InitialActive(v, t, view)));
    }
    // Serialize everything (bytes metric). Same-snapshot messages travel
    // as wire rows through the plane and reappear in the next inner
    // superstep; cross-snapshot ones are byte-counted with the identical
    // encoding, then queued typed in the temporal mailboxes. Chunk
    // outboxes are walked in chunk order, which is the sequential
    // per-worker order.
    void Stage(SuperstepMetrics* ss) {
      Writer scratch;
      const SuperstepRuntime& rt = driver.runtime();
      for (int c = 0; c < rt.num_chunks(); ++c) {
        const int src_w = rt.chunk(c).worker;
        for (Pending& p : outbox[c]) {
          const int dst_w = plane.map().WorkerOf(p.dst);
          ss->messages += 1;
          if (p.t == t) {
            Writer& row = driver.wire_row(c)[dst_w];
            row.WriteU64(p.dst);
            row.WriteI64(p.t);
            MessageTraits<Message>::Write(row, p.payload);
            // Bytes are accounted by the plane's Route.
            continue;
          }
          scratch.Clear();
          scratch.WriteU64(p.dst);
          scratch.WriteI64(p.t);
          MessageTraits<Message>::Write(scratch, p.payload);
          ss->message_bytes += static_cast<int64_t>(scratch.size());
          if (dst_w != src_w) {
            ss->worker_in_bytes[dst_w] += static_cast<int64_t>(scratch.size());
          }
          if (p.t >= 0 && p.t < horizon) {
            temporal[static_cast<size_t>(p.t)].emplace_back(
                p.dst, std::move(p.payload));
          }
          // Else: addressed beyond the horizon; counted, undeliverable.
        }
        outbox[c].clear();
      }
    }
    void Decode(Reader& reader, int dst) {
      const uint32_t dv = static_cast<uint32_t>(reader.ReadU64());
      const TimePoint mt = reader.ReadI64();
      GRAPHITE_CHECK(mt == t);
      plane.Deliver(dst, dv, MessageTraits<Message>::Read(reader));
    }
  };

  for (TimePoint step = 0; step < T; ++step) {
    const TimePoint t = options.reverse_time ? T - 1 - step : step;
    const SnapshotView view(&g, t);

    // Snapshot boundary: drop whatever the previous snapshot left sealed,
    // then seed this snapshot's inboxes from its temporal mailbox.
    plane.Barrier();
    for (auto& [v, m] : temporal[static_cast<size_t>(t)]) {
      plane.Deliver(plane.map().WorkerOf(v), v, std::move(m));
    }
    temporal[static_cast<size_t>(t)].clear();
    plane.SealAll();

    // Inner VCM loop over this snapshot.
    Hooks hooks{program, values, plane, driver, outbox, temporal, view, t, T};
    driver.Run(hooks, 0, std::numeric_limits<int>::max(),
               /*always_active=*/false);

    for (VertexIdx v = 0; v < n; ++v) {
      if (view.VertexActive(v)) {
        out.result[v].Set(Interval(t, t + 1), values[v]);
      }
    }
  }

  out.metrics.makespan_ns = NowNanos() - run_start;
  for (auto& map : out.result) map.Coalesce();
  return out;
}

}  // namespace graphite

#endif  // GRAPHITE_BASELINES_GOFFISH_H_
