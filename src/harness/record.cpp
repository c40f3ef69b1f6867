#include "harness/record.hpp"

#include <algorithm>
#include <optional>

#include "ds/counter.hpp"
#include "ds/elim_stack.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "harness/farm.hpp"
#include "harness/registry.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/perturb.hpp"
#include "sync/sharded.hpp"

namespace hmps::harness {

namespace {

using rt::SimCtx;
using rt::SimExecutor;

constexpr const char* kObjectNames[kNumObjects] = {
    "counter", "queue", "stack", "lcrq", "elim_stack"};

// Empty dequeues and pops already read as kNothing.
static_assert(ds::kQEmpty == kNothing && ds::kStackEmpty == kNothing);

/// The recorded response value of an operation that returned `ret`.
std::uint64_t response_value(OpKind kind, std::uint64_t ret) {
  return kind == OpKind::kEnq || kind == OpKind::kPush ? 0 : ret;
}

/// Random think time between a client's operations.
void think(SimCtx& ctx, const RecordCfg& cfg) {
  if (cfg.think_max > 0) {
    ctx.compute(ctx.rand_below(static_cast<std::uint32_t>(cfg.think_max) + 1));
  }
}

// ---- sharded fleet workload (docs/SHARDING.md) ----

/// Object-farm size for the sharded construction: dense ids [0, 8),
/// rendezvous-hashed over the shard fleet.
constexpr std::uint32_t kFarmObjects = 8;

/// record_history for the sharded construction: `shards` serve fibers on
/// tids [0, shards), clients driving random farm objects — queue runs mix
/// in cross-shard queue_transfer ops, recorded as one deq + one enq record
/// sharing the transfer's invoke/response bracket (per-object checking in
/// src/check/explore.cpp relies on exactly that shape).
RecordResult record_sharded(const RecordCfg& cfg, sim::Perturber* perturber) {
  SimExecutor ex(cfg.params, cfg.seed);
  if (cfg.faults.enabled()) ex.machine().install_faults(cfg.faults);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);

  const std::uint32_t shards = std::min<std::uint32_t>(
      std::max<std::uint32_t>(cfg.shards, 1),
      sync::ShardedServer<SimCtx>::kMaxShards);
  // Only the run's object type is built; the transfer hooks run only in
  // queue runs.
  std::optional<Farm<ds::SeqCounter, kFarmObjects>> counters;
  std::optional<Farm<ds::SeqQueue, kFarmObjects>> queues;
  std::optional<Farm<ds::SeqStack, kFarmObjects>> stacks;
  void* farm = nullptr;
  switch (cfg.object) {
    case Object::kQueue: farm = &queues.emplace(); break;
    case Object::kStack: farm = &stacks.emplace(); break;
    default: farm = &counters.emplace(); break;  // counter, as in draw_op
  }
  sync::ShardedServer<SimCtx>::TransferHooks hooks{farm_deq<kFarmObjects>,
                                                   farm_enq<kFarmObjects>};
  sync::ShardedServer<SimCtx> sh(shards, farm, kFarmObjects, 0, hooks);

  RecordResult res;
  res.total_client_threads = cfg.threads;
  HistoryRecorder rec;

  for (std::uint32_t s = 0; s < shards; ++s) {
    ex.add_thread([&sh, s](SimCtx& ctx) { sh.serve(ctx, s); });
  }

  const std::uint32_t depth =
      cfg.async_depth >= 2 ? std::min<std::uint32_t>(cfg.async_depth, 16) : 0;

  // One drawn operation against the farm; returns up to two history
  // records (a moving transfer yields deq-on-src plus enq-on-dst).
  struct DrawnOp {
    bool transfer = false;
    std::uint32_t obj = 0;   ///< target (or transfer source)
    std::uint32_t dst = 0;   ///< transfer destination
    sync::CsFn<SimCtx> fn = nullptr;
    OpKind kind = OpKind::kInc;
    std::uint64_t arg = 0;
  };
  auto draw_op = [&](SimCtx& ctx, std::uint32_t i,
                     std::uint32_t k) -> DrawnOp {
    DrawnOp d;
    d.obj = static_cast<std::uint32_t>(ctx.rand_below(kFarmObjects));
    const bool produce = ctx.rand_below(1000) < cfg.produce_permille;
    const std::uint64_t val = ((static_cast<std::uint64_t>(i) & 0xFFFF) << 16) |
                              (k & 0xFFFF);
    switch (cfg.object) {
      case Object::kQueue:
        if (produce) {
          d.kind = OpKind::kEnq;
          d.fn = farm_enq<kFarmObjects>;
          d.arg = val;
        } else if (ctx.rand_below(2) == 0 || d.obj + 1 >= kFarmObjects) {
          d.kind = OpKind::kDeq;
          d.fn = farm_deq<kFarmObjects>;
        } else {
          // Transfers only move values to strictly higher-numbered
          // objects: a value's trajectory through the farm is acyclic, so
          // it enters each object's sub-history at most once — the queue
          // checker requires per-object unique enqueue values.
          d.transfer = true;
          d.kind = OpKind::kDeq;
          d.dst = d.obj + 1 +
                  static_cast<std::uint32_t>(
                      ctx.rand_below(kFarmObjects - d.obj - 1));
        }
        break;
      case Object::kStack:
        if (produce) {
          d.kind = OpKind::kPush;
          d.fn = farm_push<kFarmObjects>;
          d.arg = val;
        } else {
          d.kind = OpKind::kPop;
          d.fn = farm_pop<kFarmObjects>;
        }
        break;
      default:  // counter (clamp_cfg maps the direct structures away)
        d.kind = OpKind::kInc;
        d.fn = farm_inc<kFarmObjects>;
        break;
    }
    return d;
  };
  // Completes the records of one drawn op from its result value.
  auto finish_op = [&](const DrawnOp& d, std::uint32_t i, Cycle invoke,
                       Cycle response, std::uint64_t ret) {
    OpRecord r;
    r.thread = i;
    r.obj = d.obj;
    r.kind = d.kind;
    r.arg = d.arg;
    r.invoke = invoke;
    r.response = response;
    if (d.transfer) {
      // deq half on the source object...
      r.ret = ret == sync::kTransferEmpty ? kNothing : ret;
      rec.record(r);
      if (ret == sync::kTransferEmpty) return;
      // ...and the delegated enq half on the destination.
      OpRecord e;
      e.thread = i;
      e.obj = d.dst;
      e.kind = OpKind::kEnq;
      e.arg = ret;
      e.ret = 0;
      e.invoke = invoke;
      e.response = response;
      rec.record(e);
      return;
    }
    r.ret = response_value(d.kind, ret);
    rec.record(r);
  };

  for (std::uint32_t i = 0; i < cfg.threads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      if (depth != 0) {
        // Async trains with reverse reaps, possibly spanning several
        // shards at once (the multi-shard ticket path under test).
        std::uint32_t k = 0;
        while (k < cfg.ops_each) {
          const std::uint32_t n = std::min(depth, cfg.ops_each - k);
          DrawnOp ops[16];
          sync::Ticket tickets[16];
          Cycle invokes[16];
          for (std::uint32_t j = 0; j < n; ++j, ++k) {
            ops[j] = draw_op(ctx, i, k);
            invokes[j] = ctx.now();
            tickets[j] = ops[j].transfer
                             ? sh.transfer_async(ctx, ops[j].obj, ops[j].dst)
                             : sh.apply_async(ctx, ops[j].fn, ops[j].obj,
                                              ops[j].arg);
          }
          for (std::uint32_t j = n; j-- > 0;) {
            const std::uint64_t ret = sh.wait(ctx, tickets[j]);
            finish_op(ops[j], i, invokes[j], ctx.now(), ret);
          }
          think(ctx, cfg);
        }
      } else {
        for (std::uint32_t k = 0; k < cfg.ops_each; ++k) {
          const DrawnOp d = draw_op(ctx, i, k);
          const Cycle invoke = ctx.now();
          const std::uint64_t ret =
              d.transfer ? sh.queue_transfer(ctx, d.obj, d.dst)
                         : sh.apply(ctx, d.fn, d.obj, d.arg);
          finish_op(d, i, invoke, ctx.now(), ret);
          think(ctx, cfg);
        }
      }
      ++res.finished_threads;
      if (res.finished_threads == cfg.threads) sh.request_stop(ctx);
    });
  }

  ex.run_until(cfg.horizon);
  if (perturber != nullptr) ex.sched().set_perturber(nullptr);

  res.completed = res.finished_threads == cfg.threads;
  res.end_time = ex.sched().now();
  res.history = rec.ops();
  return res;
}

}  // namespace

const char* to_string(Construction c) { return row_of(uc_of(c)).key; }

const char* to_string(Object o) {
  return kObjectNames[static_cast<std::uint8_t>(o)];
}

bool construction_from_string(std::string_view s, Construction* out) {
  for (std::uint32_t i = 0; i < kNumConstructions; ++i) {
    if (s == to_string(static_cast<Construction>(i))) {
      *out = static_cast<Construction>(i);
      return true;
    }
  }
  return false;
}

bool object_from_string(std::string_view s, Object* out) {
  for (std::uint32_t i = 0; i < kNumObjects; ++i) {
    if (s == kObjectNames[i]) {
      *out = static_cast<Object>(i);
      return true;
    }
  }
  return false;
}

bool uses_server(Construction c) { return row_of(uc_of(c)).servers > 0; }

std::uint32_t server_threads(Construction c, std::uint32_t shards) {
  if (c == Construction::kSharded) return shards == 0 ? 1 : shards;
  return row_of(uc_of(c)).servers;
}

bool supports_async(Construction c) { return row_of(uc_of(c)).async; }

namespace {

/// Elimination stack behind the CS interface: s_push pushes, anything else
/// pops.
struct ElimUc {
  using Fn = sync::CsFn<SimCtx>;
  ds::ElimStack<SimCtx>& st;
  std::uint64_t apply(SimCtx& ctx, Fn fn, std::uint64_t arg) {
    if (fn == &ds::s_push<SimCtx>) {
      st.push(ctx, static_cast<std::uint32_t>(arg));
      return 0;
    }
    return st.pop(ctx);
  }
};

/// What a recorded operation does on each object: the record kinds and CS
/// bodies of its produce and consume ops. The counter only increments.
struct ObjectOps {
  OpKind produce, consume;
  sync::CsFn<SimCtx> produce_fn, consume_fn;
  bool narrow;  ///< the concurrent structures hold 32-bit values
};
constexpr ObjectOps kObjectOps[kNumObjects] = {
    {OpKind::kInc, OpKind::kInc, ds::counter_inc<SimCtx>,
     ds::counter_inc<SimCtx>, false},
    {OpKind::kEnq, OpKind::kDeq, ds::q_enqueue<SimCtx>, ds::q_dequeue<SimCtx>,
     false},
    {OpKind::kPush, OpKind::kPop, ds::s_push<SimCtx>, ds::s_pop<SimCtx>,
     false},
    {OpKind::kEnq, OpKind::kDeq, ds::q_enqueue<SimCtx>, ds::q_dequeue<SimCtx>,
     true},
    {OpKind::kPush, OpKind::kPop, ds::s_push<SimCtx>, ds::s_pop<SimCtx>,
     true},
};

/// Draws client i's k-th operation: fills the record's kind and argument
/// and returns the CS body that performs it.
sync::CsFn<SimCtx> draw_op(SimCtx& ctx, const RecordCfg& cfg, std::uint32_t i,
                           std::uint32_t k, OpRecord& r) {
  const ObjectOps& o = kObjectOps[static_cast<std::uint8_t>(cfg.object)];
  r.thread = i;
  const bool produce = ctx.rand_below(1000) < cfg.produce_permille;
  if (!produce || o.produce == o.consume) {
    r.kind = o.consume;
    return o.consume_fn;
  }
  r.kind = o.produce;
  r.arg = o.narrow ? ((static_cast<std::uint64_t>(i) & 0x7FFF) << 16) | k
                   : (static_cast<std::uint64_t>(i) << 32) | k;
  return o.produce_fn;
}

/// record_history over construction `uc`: `ns` server fibers (tid 0), then
/// cfg.threads clients. With depth >= 2 the clients issue trains of that
/// many tickets and reap them in REVERSE order (deliberately exercising the
/// out-of-order staging path); invocation is recorded at issue, response at
/// reap, so the interval brackets the linearization point.
template <class U>
void record_clients(const RecordCfg& cfg, SimExecutor& ex, U& uc,
                    std::uint32_t ns, std::uint32_t depth, RecordResult& res,
                    HistoryRecorder& rec) {
  if (ns > 0) ex.add_thread([&uc](SimCtx& ctx) { serve(uc, ctx, 0); });
  for (std::uint32_t i = 0; i < cfg.threads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      if (depth == 0) {
        for (std::uint32_t k = 0; k < cfg.ops_each; ++k) {
          OpRecord r;
          r.invoke = ctx.now();
          const sync::CsFn<SimCtx> fn = draw_op(ctx, cfg, i, k, r);
          r.ret = response_value(r.kind, uc.apply(ctx, fn, r.arg));
          r.response = ctx.now();
          rec.record(r);
          think(ctx, cfg);
        }
      } else if constexpr (AsyncUc<U>) {
        std::uint32_t k = 0;
        while (k < cfg.ops_each) {
          const std::uint32_t n = std::min(depth, cfg.ops_each - k);
          OpRecord recs[16];
          sync::Ticket tickets[16];
          for (std::uint32_t j = 0; j < n; ++j, ++k) {
            const sync::CsFn<SimCtx> fn = draw_op(ctx, cfg, i, k, recs[j]);
            recs[j].invoke = ctx.now();
            tickets[j] = uc.apply_async(ctx, fn, recs[j].arg);
          }
          for (std::uint32_t j = n; j-- > 0;) {
            OpRecord& r = recs[j];
            r.ret = response_value(r.kind, uc.wait(ctx, tickets[j]));
            r.response = ctx.now();
            rec.record(r);
          }
          think(ctx, cfg);
        }
      }
      ++res.finished_threads;
      if constexpr (requires { uc.request_stop(ctx); }) {
        if (res.finished_threads == cfg.threads && ns > 0) {
          uc.request_stop(ctx);
        }
      }
    });
  }
}

}  // namespace

RecordResult record_history(const RecordCfg& cfg, sim::Perturber* perturber) {
  if (cfg.construction == Construction::kSharded) {
    return record_sharded(cfg, perturber);
  }
  SimExecutor ex(cfg.params, cfg.seed);
  if (cfg.faults.enabled()) ex.machine().install_faults(cfg.faults);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);

  RecordResult res;
  res.total_client_threads = cfg.threads;
  HistoryRecorder rec;
  auto run = [&] {
    ex.run_until(cfg.horizon);
    // Detach the perturber before teardown so no stale pointer survives
    // the scenario (the executor dies with this frame anyway).
    if (perturber != nullptr) ex.sched().set_perturber(nullptr);
    res.completed = res.finished_threads == cfg.threads;
    res.end_time = ex.sched().now();
    res.history = rec.ops();
    return res;
  };
  // The object: only the one this run drives is built (an unused LCRQ alone
  // would be 8192 ring allocations). The concurrent structures run their
  // own operations; for them the construction field is ignored.
  std::optional<ds::SeqCounter> counter;
  std::optional<ds::SeqQueue> queue;
  std::optional<ds::SeqStack> stack;
  void* obj = nullptr;
  switch (cfg.object) {
    case Object::kCounter: obj = &counter.emplace(); break;
    case Object::kQueue: obj = &queue.emplace(8192); break;
    case Object::kStack: obj = &stack.emplace(8192); break;
    case Object::kLcrq: {
      ds::Lcrq<SimCtx> q(5, 4096);
      LcrqUc uc{q};
      record_clients(cfg, ex, uc, 0, 0, res, rec);
      return run();
    }
    case Object::kElimStack: {
      ds::ElimStack<SimCtx> st(256, 8, 64);
      ElimUc uc{st};
      record_clients(cfg, ex, uc, 0, 0, res, rec);
      return run();
    }
  }
  UcParams p;
  p.max_ops = cfg.max_ops;
  p.shm_async_depth = cfg.async_depth;
  p.hyb_bug_drop_every = cfg.hyb_bug_drop_every;
  const Uc id = uc_of(cfg.construction);
  const std::uint32_t depth =
      row_of(id).async && cfg.async_depth >= 2
          ? std::min<std::uint32_t>(cfg.async_depth, 16)
          : 0;
  return with_construction<kConstructionUc>(
      id, obj, p, ex, [&]<class U>(U& uc) {
        record_clients(cfg, ex, uc, row_of(id).servers, depth, res, rec);
        return run();
      });
}

}  // namespace hmps::harness
