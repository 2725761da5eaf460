// Vertex-centric (Pregel-style) BSP engine. This is the stand-in for stock
// Apache Giraph: every baseline platform in the paper (MSB, Chlonos, TGB,
// GoFFish) is implemented over this engine, so — as in the paper — "the
// primitives are the key distinction and not the ... engine" (§VII-A3).
//
// A Program defines:
//   using Value   = ...;   // per-unit state
//   using Message = ...;   // payload (needs MessageTraits<Message>)
//   Value Init(uint32_t unit) const;
//   void Compute(VcmContext<...>& ctx, uint32_t unit, Value& value,
//                std::span<const Message> msgs);
//
// An Adapter abstracts the graph view the programs run on — a snapshot of
// the temporal graph (MSB/Chlonos/GoFFish) or the transformed graph (TGB):
//   size_t NumUnits() const;
//   bool UnitExists(uint32_t unit) const;
//   int64_t PartitionId(uint32_t unit) const;   // id hashed for placement
//
// Execution follows the paper's activation rule (§IV-A2): units implicitly
// vote to halt after every superstep and reactivate on message receipt. In
// superstep 0 every existing unit runs once with no messages (Pregel's
// initialization superstep). `always_active` keeps every unit live for
// fixed-iteration algorithms like PageRank.
#ifndef GRAPHITE_VCM_VCM_ENGINE_H_
#define GRAPHITE_VCM_VCM_ENGINE_H_

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "engine/delivery.h"
#include "engine/message_traits.h"
#include "engine/metrics.h"
#include "engine/parallel.h"
#include "engine/superstep_driver.h"
#include "graph/partitioner.h"
#include "util/serde.h"
#include "util/timer.h"

namespace graphite {

struct VcmOptions {
  int num_workers = 4;
  bool use_threads = false;
  /// Threads, chunking, transport, frontier density and checkpoint policy
  /// (engine/parallel.h).
  RuntimeOptions runtime;
  bool always_active = false;
  int max_supersteps = std::numeric_limits<int>::max();
  /// Unit->worker placement policy (graph/partitioner.h): hash of the
  /// adapter's PartitionId by default, or any strategy/explicit map.
  Placement placement;
};

/// Per-worker send-side context handed to Program::Compute.
template <typename Message>
class VcmContext {
 public:
  VcmContext(int superstep, int my_worker, const std::vector<int>& worker_of,
             std::vector<Writer>* wire, int64_t* messages_sent)
      : superstep_(superstep),
        my_worker_(my_worker),
        worker_of_(worker_of),
        wire_(wire),
        messages_sent_(messages_sent) {}

  /// Current superstep, starting at 0.
  int superstep() const { return superstep_; }

  /// Sends `msg` to unit `dst`, delivered at the start of the next
  /// superstep. Serialized immediately into the destination worker's wire
  /// buffer so byte metrics reflect the wire format.
  void Send(uint32_t dst, const Message& msg) {
    Writer& w = (*wire_)[worker_of_[dst]];
    w.WriteU64(dst);
    MessageTraits<Message>::Write(w, msg);
    ++*messages_sent_;
  }

  int my_worker() const { return my_worker_; }

 private:
  int superstep_;
  int my_worker_;
  const std::vector<int>& worker_of_;
  std::vector<Writer>* wire_;
  int64_t* messages_sent_;
};

/// Adapters over a mutable time-axis graph (DESIGN.md §4l) may expose the
/// head they were built against; checkpoints then record it and a resume
/// against a different head (edges appended or compacted since) silently
/// skips the frame. Headless adapters checkpoint as {0, 0}.
template <typename A>
concept VcmAdapterHasHead = requires(const A& a) {
  { a.head().base_epoch } -> std::convertible_to<uint64_t>;
  { a.head().delta_watermark } -> std::convertible_to<uint64_t>;
};

// lint:region(ingest-seed)
/// Warm-start input for RunVcm (DESIGN.md §4l): the converged values of a
/// previous run on the pre-append view, plus the units superstep 0 must
/// re-run — the append's fresh units and touched sources (derive from
/// AppendReceipt). Every other unit keeps its converged value and stays
/// quiet until a message arrives. Requires a monotone program: Compute
/// must fold toward a unique fixed point, and its superstep-0 (empty
/// inbox) body must be re-runnable from a converged value.
template <typename Program>
struct VcmWarmStart {
  /// Converged values from the previous run; size must equal the unit
  /// count the previous run saw (fresh units get Init()).
  std::vector<typename Program::Value> values;
  std::vector<uint32_t> seed_units;  ///< Sorted ascending.
};
// lint:endregion(ingest-seed)

/// RunVcm's SuperstepDriver hooks (engine/superstep_driver.h): one
/// Compute per active unit, the warm-seed activation filter, the wire
/// message codec and, when Value has wire traits, the checkpoint section.
template <typename Program>
struct VcmHooks {
  using Value = typename Program::Value;
  using Message = typename Program::Message;

  Program& program;
  std::vector<Value>& values;  // lint:allow(vector: reference to the run's values)
  DeliveryPlane<Message>& plane;
  const VcmWarmStart<Program>* warm;
  bool warm_seeded = false;

  void Process(const ChunkLane& lane, uint32_t u) {
    VcmContext<Message> ctx(lane.superstep, lane.worker,
                            plane.map().worker_of(), lane.wire,
                            &lane.counters->messages);
    program.Compute(ctx, u, values[u], plane.MessagesFor(lane.worker, u));
    ++lane.counters->compute_calls;
  }
  // Incremental superstep 0: only the append's seed units (and units
  // holding initial_messages) run; everything else keeps its converged
  // warm value and stays quiet.
  bool Admit(const ChunkLane& lane, uint32_t u) const {
    return !warm_seeded || lane.superstep != 0 || plane.HasMail(u) ||
           std::binary_search(warm->seed_units.begin(),
                              warm->seed_units.end(), u);
  }
  void Decode(Reader& reader, int dst) {
    const uint32_t unit = static_cast<uint32_t>(reader.ReadU64());
    plane.Deliver(dst, unit, MessageTraits<Message>::Read(reader));
  }
  // A VCM worker section: per owned unit, the mail flag, the value and
  // the undelivered inbox for the next superstep.
  std::string EncodeSection(int w) const requires HasWireTraits<Value> {
    Writer enc;
    for (const uint32_t u : plane.map().units_of(w)) {
      enc.WriteU64(u);
      enc.WriteByte(plane.MailFlag(u));
      MessageTraits<Value>::Write(enc, values[u]);
      enc.WriteU64(plane.InboxCountFor(w, u));
      for (const Message& m : plane.MessagesFor(w, u)) {
        MessageTraits<Message>::Write(enc, m);
      }
    }
    return enc.Release();
  }
  // Inverse; the store's CRC already vouched for the bytes, so reads are
  // the fast aborting kind. Messages are restored through plane.Deliver
  // in section order (owner order), which rebuilds the mail flags and
  // mailed list exactly as the encoding run had them.
  void DecodeSection(int w, const std::string& bytes)
      requires HasWireTraits<Value> {
    Reader r(bytes);
    while (!r.AtEnd()) {
      const uint32_t u = static_cast<uint32_t>(r.ReadU64());
      GRAPHITE_CHECK(u < values.size());
      const uint8_t mail_flag = r.ReadByte();
      values[u] = MessageTraits<Value>::Read(r);
      const uint64_t num_msgs = r.ReadU64();
      GRAPHITE_CHECK((mail_flag != 0) == (num_msgs > 0));
      for (uint64_t i = 0; i < num_msgs; ++i) {
        plane.Deliver(w, u, MessageTraits<Message>::Read(r));
      }
    }
  }
};

/// Runs `program` over `adapter` to convergence (or max_supersteps).
/// Final unit values are moved into *out_values if non-null.
/// `initial_messages` seed the superstep-0 inboxes — used by GoFFish to
/// carry temporal messages from the previous snapshot; units with seed
/// messages receive them in superstep 0 (all existing units run then).
/// `recovery` connects the run to the checkpoint subsystem (ckpt/):
/// checkpoints are written where options.runtime.checkpoint says, into
/// recovery.store; with recovery.resume the run restarts from the newest
/// valid checkpoint (initial_messages are then ignored — the frame holds
/// the delivered inboxes). Requires MessageTraits for Value when used.
/// `warm` turns the run into an incremental recompute (see VcmWarmStart);
/// a successful checkpoint resume takes precedence over the warm seed.
template <typename Program, typename Adapter>
RunMetrics RunVcm(
    const Adapter& adapter, Program& program, const VcmOptions& options,
    std::vector<typename Program::Value>* out_values = nullptr,
    const std::vector<std::pair<uint32_t, typename Program::Message>>&
        initial_messages = {},
    const RecoveryContext& recovery = {},
    const VcmWarmStart<Program>* warm = nullptr) {
  using Value = typename Program::Value;
  using Message = typename Program::Message;

  const size_t n = adapter.NumUnits();

  // Delivery plane (engine/delivery.h): materializes the placement policy
  // over the adapter's unit universe (non-existent units stay off every
  // owner list) and owns inboxes and mail tracking.
  DeliveryPlane<Message> plane(WorkerMap(
      n, options.num_workers, options.placement,
      [&adapter](uint32_t u) { return adapter.PartitionId(u); },
      [&adapter](uint32_t u) { return adapter.UnitExists(u); }));

  // State.
  std::vector<Value> values(n);  // lint:allow(vector: per-run vertex values, live across supersteps)
  // lint:region(ingest-seed)
  // Warm start: adopt the converged pre-append values; only units beyond
  // the pre-append range fall through to Init below.
  uint32_t warm_count = 0;
  if (warm != nullptr) {
    GRAPHITE_CHECK(warm->values.size() <= n);
    warm_count = static_cast<uint32_t>(warm->values.size());
    std::copy(warm->values.begin(), warm->values.end(), values.begin());
  }
  // lint:endregion(ingest-seed)
  for (uint32_t u = warm_count; u < n; ++u) {
    if (adapter.UnitExists(u)) values[u] = program.Init(u);
  }

  // The mutable time-axis head this run executes against; stamped into
  // checkpoint frames and compared on resume.
  GraphHead head;
  if constexpr (VcmAdapterHasHead<Adapter>) {
    head.base_epoch = adapter.head().base_epoch;
    head.delta_watermark = adapter.head().delta_watermark;
  }

  // The superstep hooks; a successful resume skips the warm seed.
  VcmHooks<Program> hooks{program, values, plane, warm};

  RunMetrics metrics;
  SuperstepDriver<Message> driver(&plane, &metrics, options.use_threads,
                                  options.runtime, recovery, head);
  // Recovery (ckpt/): restore the exact input of a checkpointed superstep,
  // or fall through to a cold start (which still seeds initial_messages).
  const int start = driver.Resume(hooks);
  if (start == 0) {
    for (const auto& [unit, msg] : initial_messages) {
      GRAPHITE_CHECK(unit < n && adapter.UnitExists(unit));
      plane.Deliver(plane.map().WorkerOf(unit), unit, msg);
    }
    plane.SealAll();
  }
  // Warm-seed applies only to a genuinely first superstep: a resume from a
  // checkpoint of the incremental run already carries the seeded state.
  hooks.warm_seeded = warm != nullptr && start == 0;
  const int64_t run_start = NowNanos();
  driver.Run(hooks, start, options.max_supersteps, options.always_active);
  metrics.makespan_ns = NowNanos() - run_start;
  if (out_values != nullptr) *out_values = std::move(values);
  return metrics;
}

}  // namespace graphite

#endif  // GRAPHITE_VCM_VCM_ENGINE_H_
