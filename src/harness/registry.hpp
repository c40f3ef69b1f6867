// Construction registry for the harness drivers.
//
// Every synchronization construction the drivers run shares one interface,
// uc.apply(ctx, fn, arg) (sync::UniversalConstruction). The registry holds
// one row per construction — its names, server threads, async support and
// telemetry gauge — and with_construction() builds the selected one in
// place and hands it to a driver body written once, generically over its
// type. Adding a construction takes one row here, one case in
// with_construction() and one fingerprint row in tests/test_determinism.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "ds/counter.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "harness/record.hpp"
#include "harness/workload.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/trace.hpp"
#include "sync/ccsynch.hpp"
#include "sync/dsm_synch.hpp"
#include "sync/flat_combining.hpp"
#include "sync/hsynch.hpp"
#include "sync/hybcomb.hpp"
#include "sync/locks.hpp"
#include "sync/mp_server.hpp"
#include "sync/mp_server_hub.hpp"
#include "sync/oyama.hpp"
#include "sync/shm_server.hpp"
#include "sync/universal.hpp"
#include "sync/vlink_server.hpp"

namespace hmps::harness {

/// Registry row ids: the union of Approach and Construction.
enum class Uc : std::uint8_t {
  kMpServer,
  kHybComb,
  kShmServer,
  kCcSynch,
  kDsmSynch,
  kFlatCombining,
  kHSynch,
  kOyama,
  kMcsLock,
  kClhLock,
  kTicketLock,
  kTasLock,
  kTtasLock,
  kMpServerHub,
  kVlink,
  kSharded,  ///< sync::ShardedServer: built by its own drivers, not here
};

struct UcRow {
  const char* approach;   ///< approach_name(), nullptr if no Approach
  const char* key;        ///< to_string(Construction), nullptr if none
  std::uint32_t servers;  ///< server threads ahead of the clients (per shard)
  bool async;             ///< ticket API: apply_async() / wait()
  const char* gauge;      ///< telemetry gauge of its backlog, nullptr if none
};

inline constexpr UcRow kUcRows[] = {
    {"mp-server", "mp_server", 1, true, "server_inflight"},
    {"HybComb", "hybcomb", 0, true, "combiner_inflight"},
    {"shm-server", "shm_server", 1, true, nullptr},
    {"CC-Synch", "ccsynch", 0, false, nullptr},
    {nullptr, "dsm_synch", 0, false, nullptr},
    {nullptr, "flat_combining", 0, false, nullptr},
    {nullptr, "hsynch", 0, false, nullptr},
    {nullptr, "oyama", 0, false, nullptr},
    {"mcs", "mcs_lock", 0, false, nullptr},
    {"clh", nullptr, 0, false, nullptr},
    {"ticket", nullptr, 0, false, nullptr},
    {"tas", nullptr, 0, false, nullptr},
    {"ttas", nullptr, 0, false, nullptr},
    {nullptr, "mp_server_hub", 1, true, nullptr},
    {"vlink-server", "vlink", 1, true, "server_inflight"},
    {nullptr, "sharded", 1, true, "fleet_inflight"},
};

inline constexpr Uc kApproachUc[] = {
    Uc::kMpServer, Uc::kHybComb,    Uc::kShmServer, Uc::kCcSynch,
    Uc::kMcsLock,  Uc::kClhLock,    Uc::kTicketLock, Uc::kTasLock,
    Uc::kTtasLock, Uc::kVlink,
};
inline constexpr Uc kConstructionUc[kNumConstructions] = {
    Uc::kMpServer, Uc::kHybComb,       Uc::kShmServer, Uc::kCcSynch,
    Uc::kDsmSynch, Uc::kFlatCombining, Uc::kHSynch,    Uc::kOyama,
    Uc::kMcsLock,  Uc::kMpServerHub,   Uc::kSharded,   Uc::kVlink,
};

inline Uc uc_of(Approach a) { return kApproachUc[static_cast<int>(a)]; }
inline Uc uc_of(Construction c) {
  return kConstructionUc[static_cast<int>(c)];
}
inline const UcRow& row_of(Uc id) { return kUcRows[static_cast<int>(id)]; }

/// Construction parameters the drivers set; the defaults are the paper's.
struct UcParams {
  std::uint64_t max_ops = 200;        ///< MAX_OPS (combiners, FC passes)
  bool fixed_combiner = false;        ///< Fig. 4a variant
  std::uint64_t max_inflight = 0;     ///< Section 6 overflow guard
  sim::Cycle stall_timeout = 0;       ///< HybComb combiner-stall knob
  std::uint32_t shm_async_depth = 0;  ///< ShmServer async slots per client
  std::uint64_t hyb_bug_drop_every = 0;  ///< HybComb seeded defect (tests)
};

/// True if `id` is one of `ids`.
constexpr bool listed(const auto& ids, Uc id) {
  for (const Uc x : ids) {
    if (x == id) return true;
  }
  return false;
}

/// The rows the Fig. 5 queue/stack and open-loop service drivers run.
inline constexpr Uc kDelegationUc[] = {Uc::kMpServer, Uc::kHybComb,
                                       Uc::kShmServer, Uc::kCcSynch,
                                       Uc::kVlink};

/// Builds construction `id` over `obj` in place — after the executor, whose
/// Virtual-Link fabric the vlink construction needs — and returns
/// body(uc). Server constructions serve from tid 0. Only the selected
/// construction exists during the run. `body` is instantiated only for the
/// rows in kIds (kApproachUc, kConstructionUc or kDelegationUc); any other
/// id aborts.
template <const auto& kIds, class Body>
decltype(auto) with_construction(Uc id, void* obj, const UcParams& p,
                                 rt::SimExecutor& ex, Body&& body) {
  using rt::SimCtx;
  // The u32 MAX_OPS of the shared-memory combiners.
  const auto mo32 = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(p.max_ops, std::uint64_t{1} << 30));
  switch (id) {
    case Uc::kMpServer:
      if constexpr (listed(kIds, Uc::kMpServer)) {
        sync::MpServer<SimCtx> uc(0, obj, p.max_inflight);
        return body(uc);
      }
      break;
    case Uc::kHybComb:
      if constexpr (listed(kIds, Uc::kHybComb)) {
        sync::HybComb<SimCtx>::Options o;
        o.stall_timeout = p.stall_timeout;
        o.max_inflight = p.max_inflight;
        o.bug_drop_every = p.hyb_bug_drop_every;
        sync::HybComb<SimCtx> uc(obj, p.max_ops, p.fixed_combiner, o);
        return body(uc);
      }
      break;
    case Uc::kShmServer:
      if constexpr (listed(kIds, Uc::kShmServer)) {
        sync::ShmServer<SimCtx> uc(
            0, obj, sync::ShmServer<SimCtx>::kMaxThreads, p.shm_async_depth);
        return body(uc);
      }
      break;
    case Uc::kCcSynch:
      if constexpr (listed(kIds, Uc::kCcSynch)) {
        sync::CcSynch<SimCtx> uc(obj, mo32, p.fixed_combiner);
        return body(uc);
      }
      break;
    case Uc::kDsmSynch:
      if constexpr (listed(kIds, Uc::kDsmSynch)) {
        sync::DsmSynch<SimCtx> uc(obj, mo32);
        return body(uc);
      }
      break;
    case Uc::kFlatCombining:
      if constexpr (listed(kIds, Uc::kFlatCombining)) {
        sync::FlatCombining<SimCtx> uc(obj,
                                       sync::FlatCombining<SimCtx>::kMaxThreads,
                                       std::max<std::uint32_t>(1, mo32 / 2));
        return body(uc);
      }
      break;
    case Uc::kHSynch:
      if constexpr (listed(kIds, Uc::kHSynch)) {
        sync::HSynch<SimCtx> uc(obj, mo32);
        return body(uc);
      }
      break;
    case Uc::kOyama:
      if constexpr (listed(kIds, Uc::kOyama)) {
        sync::OyamaComb<SimCtx> uc(obj);
        return body(uc);
      }
      break;
    case Uc::kMcsLock:
      if constexpr (listed(kIds, Uc::kMcsLock)) {
        sync::LockUc<SimCtx, sync::McsLock<SimCtx>> uc(obj);
        return body(uc);
      }
      break;
    case Uc::kClhLock:
      if constexpr (listed(kIds, Uc::kClhLock)) {
        sync::LockUc<SimCtx, sync::ClhLock<SimCtx>> uc(obj);
        return body(uc);
      }
      break;
    case Uc::kTicketLock:
      if constexpr (listed(kIds, Uc::kTicketLock)) {
        sync::LockUc<SimCtx, sync::TicketLock<SimCtx>> uc(obj);
        return body(uc);
      }
      break;
    case Uc::kTasLock:
      if constexpr (listed(kIds, Uc::kTasLock)) {
        sync::LockUc<SimCtx, sync::TasLock<SimCtx>> uc(obj);
        return body(uc);
      }
      break;
    case Uc::kTtasLock:
      if constexpr (listed(kIds, Uc::kTtasLock)) {
        sync::LockUc<SimCtx, sync::TtasLock<SimCtx>> uc(obj);
        return body(uc);
      }
      break;
    case Uc::kMpServerHub:
      if constexpr (listed(kIds, Uc::kMpServerHub)) {
        // Every CS body a driver can issue, registered before serve().
        sync::FnHub<SimCtx> uc(0, obj,
                               {ds::counter_inc<SimCtx>, ds::q_enqueue<SimCtx>,
                                ds::q_dequeue<SimCtx>, ds::s_push<SimCtx>,
                                ds::s_pop<SimCtx>},
                               p.max_inflight);
        return body(uc);
      }
      break;
    case Uc::kVlink:
      if constexpr (listed(kIds, Uc::kVlink)) {
        sync::VlinkServer<SimCtx> uc(ex.machine().vlink(), /*server_core=*/0,
                                     obj, p.max_inflight);
        return body(uc);
      }
      break;
    case Uc::kSharded:
      break;
  }
  std::fprintf(stderr,
               "hmps fatal: with_construction: row %d is not built here\n",
               static_cast<int>(id));
  std::abort();
}

/// LCRQ behind the CS interface, so the per-op bodies stay one shape:
/// q_enqueue runs the lock-free enqueue, anything else a dequeue (empty
/// reads as ds::kQEmpty).
struct LcrqUc {
  using Fn = sync::CsFn<rt::SimCtx>;
  ds::Lcrq<rt::SimCtx>& q;
  std::uint64_t apply(rt::SimCtx& ctx, Fn fn, std::uint64_t arg) {
    if (fn == &ds::q_enqueue<rt::SimCtx>) {
      q.enqueue(ctx, static_cast<std::uint32_t>(arg));
      return 0;
    }
    const std::uint32_t v = q.dequeue(ctx);
    return v == ds::kLcrqEmpty ? ds::kQEmpty : v;
  }
  sync::SyncStats stats(rt::Tid) const { return {}; }
};

/// Constructions with the ticket API (docs/MODEL.md §9).
template <class U>
concept AsyncUc = requires(U& uc, rt::SimCtx& ctx, sync::CsFn<rt::SimCtx> fn,
                           sync::Ticket& t) {
  uc.apply_async(ctx, fn, std::uint64_t{0});
  uc.wait(ctx, t);
};

/// Server fiber `s` of a construction (tids [0, servers)).
template <class U>
void serve(U& uc, rt::SimCtx& ctx, std::uint32_t s) {
  if constexpr (requires { uc.serve(ctx, s); }) {
    uc.serve(ctx, s);
  } else if constexpr (requires { uc.serve(ctx); }) {
    uc.serve(ctx);
  }
}

/// Construction counters summed over `slots` thread slots.
template <class U>
sync::SyncStats sum_stats(U& uc, std::uint32_t slots = 64) {
  sync::SyncStats sum;
  for (std::uint32_t t = 0; t < slots; ++t) sum.add(uc.stats(t));
  return sum;
}

/// Registers the construction's backlog gauge under `name` (none if null).
template <class U>
void add_gauge(obs::Telemetry& tel, const char* name, U& uc) {
  if (name == nullptr) return;
  if constexpr (requires { uc.combiner_inflight(); }) {
    tel.add_gauge(name, [&uc] { return uc.combiner_inflight(); });
  } else if constexpr (requires { uc.inflight_total(); }) {
    tel.add_gauge(name, [&uc] { return uc.inflight_total(); });
  } else if constexpr (requires { uc.inflight(); }) {
    tel.add_gauge(name, [&uc] { return uc.inflight(); });
  }
}

/// Installs a run's fault plan and tracer before any thread starts, so the
/// first fault windows land deterministically; a disabled plan and a null
/// tracer leave the machine untouched. Tracing only observes: recording
/// never advances simulated time (pinned by tests/test_obs.cpp).
inline void prepare(rt::SimExecutor& ex, const sim::FaultPlan& faults,
                    const RunObs& obs) {
  if (faults.enabled()) ex.machine().install_faults(faults);
  if (obs.trace != nullptr) {
    ex.machine().tracer().enable(obs.trace_max_events);
    ex.machine().tracer().set_process(obs.pid, obs.label);
  }
}

}  // namespace hmps::harness
