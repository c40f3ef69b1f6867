#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <optional>
#include <vector>

#include "ds/counter.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "harness/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sync/async_batcher.hpp"

namespace hmps::harness {

using rt::SimCtx;
using rt::SimExecutor;
using sim::Cycle;
using sync::SyncStats;

namespace {

/// Fig. 5a/5b implementations: label and registry row. mp-server-2 (two
/// servers), LCRQ and Treiber are not registry rows; run_queue and
/// run_stack build those themselves.
struct ImplRow {
  const char* name;
  Uc uc;
};
constexpr ImplRow kQueueImpls[] = {
    {"mp-server-1", Uc::kMpServer}, {"HybComb-1", Uc::kHybComb},
    {"shm-server-1", Uc::kShmServer}, {"CC-Synch-1", Uc::kCcSynch},
    {"mp-server-2", Uc::kMpServer}, {"LCRQ", Uc::kMpServer},
    {"vlink-1", Uc::kVlink},
};
constexpr ImplRow kStackImpls[] = {
    {"mp-server", Uc::kMpServer}, {"HybComb", Uc::kHybComb},
    {"shm-server", Uc::kShmServer}, {"CC-Synch", Uc::kCcSynch},
    {"Treiber", Uc::kMpServer}, {"vlink", Uc::kVlink},
};

}  // namespace

const char* approach_name(Approach a) {
  return static_cast<std::size_t>(a) < std::size(kApproachUc)
             ? row_of(uc_of(a)).approach
             : "?";
}

bool approach_needs_server(Approach a) {
  return row_of(uc_of(a)).servers > 0;
}

const char* queue_name(QueueImpl q) {
  const auto i = static_cast<std::size_t>(q);
  return i < std::size(kQueueImpls) ? kQueueImpls[i].name : "?";
}

const char* stack_name(StackImpl s) {
  const auto i = static_cast<std::size_t>(s);
  return i < std::size(kStackImpls) ? kStackImpls[i].name : "?";
}

namespace {

// Per-client progress: client fibers write it, window snapshots read it.
struct Progress {
  explicit Progress(std::uint32_t na) : ops(na, 0), latsum(na, 0.0) {}
  std::vector<std::uint64_t> ops;
  std::vector<double> latsum;
  bool measuring = false;  // set once warmup completes
  sim::Histogram lat_hist{/*bucket_width=*/8, /*nbuckets=*/4096};
};

// Everything measure() snapshots at window boundaries.
struct Snapshot {
  std::vector<std::uint64_t> ops;
  std::vector<double> latsum;
  SyncStats stats;           // summed over threads
  Cycle core0_busy = 0, core0_stall = 0;
  std::uint64_t served = 0;  // CSes executed by the servicing thread(s)
  std::uint64_t msgs = 0;
  Cycle ctrl_wait = 0;
  // Settled per-core cycle accounts (monotonic; windows are diffs).
  std::vector<obs::CycleAccount> accounts;
};

// Runs the registered threads through the warmup and cfg.reps measurement
// windows, and reports them (plus a run entry when cfg.obs.metrics is
// set). `ns` server threads precede the clients; `sum_stats` sums the
// construction's counters; `add_gauges` registers its telemetry gauges.
RunResult measure(const RunCfg& cfg, SimExecutor& ex, Progress& pg,
                  std::uint32_t ns,
                  const std::function<SyncStats()>& sum_stats,
                  const std::function<void(obs::Telemetry&)>& add_gauges) {
  const std::uint32_t na = cfg.app_threads;
  const bool tracing = cfg.obs.trace != nullptr;
  auto snap = [&]() {
    Snapshot s;
    s.ops = pg.ops;
    s.latsum = pg.latsum;
    s.stats = sum_stats();
    s.core0_busy = ex.machine().core(0).busy;
    s.core0_stall = ex.machine().core(0).stall;
    s.served = s.stats.served;
    s.msgs = ex.machine().udn().counters().messages;
    s.ctrl_wait = ex.machine().coherence().counters().ctrl_wait_total;
    ex.machine().settle_accounts();
    s.accounts.reserve(ex.machine().cores());
    for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
      s.accounts.push_back(ex.machine().core(c).account);
    }
    return s;
  };

  obs::Telemetry tel(ex.machine(), {cfg.telemetry_window});
  if (tel.enabled()) add_gauges(tel);

  ex.run_until(cfg.warmup);
  pg.measuring = true;
  const Snapshot first = snap();
  Snapshot prev = first;
  // Baseline right after the run-level snapshot (snap() settled the
  // accounts), so per-bucket window sums telescope to exactly the
  // run-level cycle_accounts deltas below.
  tel.start(ex.sched().now(), ex.sched().now() + cfg.reps * cfg.window);

  RunResult r;
  std::vector<double> rep_mops;
  double lat_n = 0, lat_sum = 0;
  double serv_busy = 0, serv_stall = 0, serv_ops = 0;
  double fair_max = 0, fair_min = 0;
  SyncStats stat_delta{};
  std::uint64_t msgs = 0;
  double ctrl_wait = 0;

  for (std::uint32_t rep = 0; rep < cfg.reps; ++rep) {
    ex.run_until(ex.sched().now() + cfg.window);
    Snapshot cur = snap();

    std::uint64_t dops = 0, dmax = 0, dmin = ~std::uint64_t{0};
    double dlat = 0;
    for (std::uint32_t i = 0; i < na; ++i) {
      const std::uint64_t d = cur.ops[i] - prev.ops[i];
      dops += d;
      dlat += cur.latsum[i] - prev.latsum[i];
      // The fixed combiner (thread 0) completes no application ops; skip
      // zero-op threads in the fairness ratio.
      if (d > 0) {
        dmax = std::max(dmax, d);
        dmin = std::min(dmin, d);
      }
    }
    rep_mops.push_back(static_cast<double>(dops) /
                       static_cast<double>(cfg.window) * 1200.0);
    lat_sum += dlat;
    lat_n += static_cast<double>(dops);
    fair_max += static_cast<double>(dmax);
    fair_min += static_cast<double>(dmin == ~std::uint64_t{0} ? 0 : dmin);

    serv_busy += static_cast<double>(cur.core0_busy - prev.core0_busy);
    serv_stall += static_cast<double>(cur.core0_stall - prev.core0_stall);
    const std::uint64_t dserved = cur.served - prev.served;
    serv_ops += static_cast<double>(dserved ? dserved : dops);

    stat_delta.add(cur.stats.since(prev.stats));
    msgs += cur.msgs - prev.msgs;
    ctrl_wait += static_cast<double>(cur.ctrl_wait - prev.ctrl_wait);

    r.total_ops += dops;
    prev = cur;
  }
  // The last snap() settled the accounts at the final window boundary;
  // close telemetry's final window against those same values.
  tel.flush(ex.sched().now());

  double mean = 0;
  for (double m : rep_mops) mean += m;
  mean /= static_cast<double>(rep_mops.size());
  double var = 0;
  for (double m : rep_mops) var += (m - mean) * (m - mean);
  var /= static_cast<double>(rep_mops.size());

  r.mops = mean;
  r.mops_std = std::sqrt(var);
  r.lat_mean = lat_n > 0 ? lat_sum / lat_n : 0;
  r.lat_p50 = static_cast<double>(pg.lat_hist.quantile(0.50));
  r.lat_p99 = static_cast<double>(pg.lat_hist.quantile(0.99));
  r.serv_total_per_op = serv_ops > 0 ? (serv_busy + serv_stall) / serv_ops : 0;
  r.serv_stall_per_op = serv_ops > 0 ? serv_stall / serv_ops : 0;
  r.combining_rate = stat_delta.combining_rate();
  const double napply = static_cast<double>(r.total_ops);
  r.cas_per_op = napply > 0 ? static_cast<double>(stat_delta.cas_attempts) /
                                  napply
                            : 0;
  r.fairness = fair_min > 0 ? fair_max / fair_min : 0;
  r.msgs_per_op = napply > 0 ? static_cast<double>(msgs) / napply : 0;
  r.ctrl_wait_per_op = napply > 0 ? ctrl_wait / napply : 0;
  r.cycles_per_op = r.mops > 0 ? 1200.0 / r.mops : 0;
  r.throttle_waits = stat_delta.throttle_waits;
  r.stall_timeouts = stat_delta.stall_timeouts;
  for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
    r.preemptions += ex.machine().core(c).preemptions;
  }
  // Exact attribution of the servicing core over the measurement windows.
  // Both endpoints are settled, so the buckets sum to reps * window.
  r.serv_account = prev.accounts[0].diff_since(first.accounts[0]);
  r.serv_ops = serv_ops;

  if (cfg.obs.metrics != nullptr) {
    using obs::JsonValue;
    using obs::MetricsRegistry;
    JsonValue& run = cfg.obs.metrics->add_run(cfg.obs.label);
    JsonValue& c = run["config"];
    c["app_threads"] = JsonValue(std::uint64_t{cfg.app_threads});
    c["servers"] = JsonValue(std::uint64_t{ns});
    c["warmup"] = JsonValue(std::uint64_t{cfg.warmup});
    c["window"] = JsonValue(std::uint64_t{cfg.window});
    c["reps"] = JsonValue(std::uint64_t{cfg.reps});
    c["seed"] = JsonValue(cfg.seed);
    c["max_ops"] = JsonValue(cfg.max_ops);
    c["think_iters_max"] = JsonValue(std::uint64_t{cfg.think_iters_max});
    c["think_iter_cost"] = JsonValue(std::uint64_t{cfg.think_iter_cost});
    c["cs_iters"] = JsonValue(cfg.cs_iters);
    c["fixed_combiner"] = JsonValue(cfg.fixed_combiner);
    c["max_inflight"] = JsonValue(cfg.max_inflight);
    c["stall_timeout"] = JsonValue(std::uint64_t{cfg.stall_timeout});
    c["async_batch"] = JsonValue(std::uint64_t{cfg.async_batch});
    c["faults_enabled"] = JsonValue(cfg.faults.enabled());
    JsonValue& res = run["results"];
    res["mops"] = JsonValue(r.mops);
    res["mops_std"] = JsonValue(r.mops_std);
    res["lat_mean"] = JsonValue(r.lat_mean);
    res["lat_p50"] = JsonValue(r.lat_p50);
    res["lat_p99"] = JsonValue(r.lat_p99);
    res["serv_total_per_op"] = JsonValue(r.serv_total_per_op);
    res["serv_stall_per_op"] = JsonValue(r.serv_stall_per_op);
    res["combining_rate"] = JsonValue(r.combining_rate);
    res["cas_per_op"] = JsonValue(r.cas_per_op);
    res["fairness"] = JsonValue(r.fairness);
    res["msgs_per_op"] = JsonValue(r.msgs_per_op);
    res["ctrl_wait_per_op"] = JsonValue(r.ctrl_wait_per_op);
    res["cycles_per_op"] = JsonValue(r.cycles_per_op);
    res["total_ops"] = JsonValue(r.total_ops);
    res["throttle_waits"] = JsonValue(r.throttle_waits);
    res["stall_timeouts"] = JsonValue(r.stall_timeouts);
    res["preemptions"] = JsonValue(r.preemptions);
    res["serv_ops"] = JsonValue(r.serv_ops);
    run["machine_params"] = MetricsRegistry::params_json(cfg.machine);
    run["sync_stats"] = MetricsRegistry::sync_stats_json(stat_delta);
    run["machine"] = MetricsRegistry::machine_json(ex.machine());
    // Windowed (post-warmup) per-core attribution; [0] is the servicing
    // core for the server/combiner constructions.
    JsonValue& accts = run["cycle_accounts"];
    for (std::size_t core = 0; core < prev.accounts.size(); ++core) {
      accts.push_back(MetricsRegistry::cycle_account_json(
          prev.accounts[core].diff_since(first.accounts[core])));
    }
    if (tel.enabled()) {
      run["telemetry"] = tel.to_json();
    }
    if (tracing) {
      run["trace"] = MetricsRegistry::tracer_json(ex.machine().tracer());
    }
  }
  if (tracing) {
    cfg.obs.trace->merge_from(ex.machine().tracer());
  }
  return r;
}

// The critical section a closed-loop client applies next.
struct CsCall {
  sync::CsFn<SimCtx> fn;
  std::uint64_t arg;
};

// The closed loop of Section 5.2 over construction `uc`: `ns` server
// fibers (tids [0, ns)), then cfg.app_threads clients, each applying
// next(k) for its k = 0, 1, ... with random think time after every call.
// With `batching` the clients issue trains of cfg.async_batch tickets
// through sync::AsyncBatcher.
template <class U, class Next>
RunResult drive(const RunCfg& cfg, SimExecutor& ex, U& uc, std::uint32_t ns,
                bool batching, const char* gauge, Next next) {
  Progress pg(cfg.app_threads);
  for (std::uint32_t s = 0; s < ns; ++s) {
    ex.add_thread([&uc, s](SimCtx& ctx) { serve(uc, ctx, s); });
  }
  // Per-thread request batchers, indexed by ctx.tid() (unused ones inert).
  std::vector<sync::AsyncBatcher<SimCtx, U>> batchers;
  if constexpr (AsyncUc<U>) {
    if (batching) {
      batchers.reserve(64);
      for (std::uint32_t t = 0; t < 64; ++t) {
        batchers.emplace_back(uc, cfg.async_batch);
      }
    }
  }
  for (std::uint32_t i = 0; i < cfg.app_threads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      std::uint64_t k = 0;
      for (;;) {
        const Cycle t0 = ctx.now();
        const CsCall c = next(k++);
        // Operations completed by this call: 1 for a synchronous apply, 0
        // while a batcher buffers, the train length when a train is issued
        // and reaped.
        std::uint64_t done = 1;
        if constexpr (AsyncUc<U>) {
          if (batching) {
            done = batchers[ctx.tid()].add(ctx, c.fn, c.arg);
          } else {
            uc.apply(ctx, c.fn, c.arg);
          }
        } else {
          uc.apply(ctx, c.fn, c.arg);
        }
        const Cycle lat = ctx.now() - t0;
        // latsum accumulates all time spent inside the call (including
        // calls that only buffered), so lat_mean stays time-per-completed-op
        // under batching; the histogram records the train's mean.
        pg.ops[i] += done;
        pg.latsum[i] += static_cast<double>(lat);
        if (pg.measuring && done > 0) pg.lat_hist.add(lat / done);
        // Section 5.2: up to think_iters_max empty loop iterations.
        ctx.compute(cfg.think_iter_cost *
                    ctx.rand_below(cfg.think_iters_max + 1));
      }
    });
  }
  return measure(
      cfg, ex, pg, ns, [&uc] { return sum_stats(uc); },
      [&uc, gauge](obs::Telemetry& tel) { add_gauge(tel, gauge, uc); });
}

UcParams uc_params(const RunCfg& cfg) {
  UcParams p;
  p.max_ops = cfg.max_ops;
  p.max_inflight = cfg.max_inflight;
  p.stall_timeout = cfg.stall_timeout;
  return p;
}

/// Fig. 5a two-lock MS-queue: an enqueue server (tid 0) and a dequeue
/// server (tid 1) running the fenced CS bodies.
struct TwoServerQueue {
  using Fn = sync::CsFn<SimCtx>;
  TwoServerQueue(void* q, std::uint64_t max_inflight)
      : enq(0, q, max_inflight), deq(1, q, max_inflight) {}
  std::uint64_t apply(SimCtx& ctx, Fn fn, std::uint64_t arg) {
    return fn == &ds::q_enqueue<SimCtx>
               ? enq.apply(ctx, ds::q_enqueue_fenced<SimCtx>, arg)
               : deq.apply(ctx, ds::q_dequeue_fenced<SimCtx>, 0);
  }
  void serve(SimCtx& ctx, std::uint32_t s) { (s == 0 ? enq : deq).serve(ctx); }
  SyncStats stats(rt::Tid t) {
    SyncStats s = enq.stats(t);
    s.add(deq.stats(t));
    return s;
  }
  sync::MpServer<SimCtx> enq, deq;
};

/// Treiber stack behind the CS interface; its CAS failures are reported as
/// the run's cas_attempts.
struct TreiberUc {
  using Fn = sync::CsFn<SimCtx>;
  ds::TreiberStack<SimCtx>& st;
  std::uint64_t apply(SimCtx& ctx, Fn fn, std::uint64_t arg) {
    if (fn == &ds::s_push<SimCtx>) {
      st.push(ctx, arg);
      return 0;
    }
    return st.pop(ctx);
  }
  SyncStats stats(rt::Tid t) {
    SyncStats s;
    s.cas_attempts = st.stats(t).cas_failures;
    return s;
  }
};

// Alternating produce/consume ops of the Fig. 5 balanced load.
template <sync::CsFn<SimCtx> kProduce, sync::CsFn<SimCtx> kConsume>
CsCall alternate(std::uint64_t k) {
  return (k & 1) == 0 ? CsCall{kProduce, 1 + (k & 0xFFFF)}
                      : CsCall{kConsume, 0};
}

}  // namespace

RunResult run_counter(const RunCfg& cfg, Approach a) {
  // Objects outlive the executor; keep them ahead of it on this frame.
  ds::SeqCounter counter;
  ds::ArrayObject array;
  void* obj = cfg.cs_iters > 0 ? static_cast<void*>(&array)
                               : static_cast<void*>(&counter);
  const CsCall call{cfg.cs_iters > 0 ? &ds::array_inc_loop<SimCtx>
                                     : &ds::counter_inc<SimCtx>,
                    cfg.cs_iters};
  SimExecutor ex(cfg.machine, cfg.seed);
  prepare(ex, cfg.faults, cfg.obs);
  UcParams p = uc_params(cfg);
  p.fixed_combiner = cfg.fixed_combiner;
  p.shm_async_depth = cfg.async_batch;
  const UcRow& row = row_of(uc_of(a));
  return with_construction<kApproachUc>(
      uc_of(a), obj, p, ex, [&]<class U>(U& uc) {
        return drive(cfg, ex, uc, row.servers,
                     cfg.async_batch >= 2 && row.async, row.gauge,
                     [call](std::uint64_t) { return call; });
      });
}

double ideal_cs_cycles(const RunCfg& cfg) {
  SimExecutor ex(cfg.machine, cfg.seed);
  ds::ArrayObject array;
  double per_op = 0;
  const std::uint64_t iters = cfg.cs_iters;
  ex.add_thread([&](SimCtx& ctx) {
    // Warm the cache, then time the body.
    ds::array_inc_loop<SimCtx>(ctx, &array, iters);
    const Cycle t0 = ctx.now();
    constexpr int kReps = 50;
    for (int i = 0; i < kReps; ++i) {
      ds::array_inc_loop<SimCtx>(ctx, &array, iters);
    }
    per_op = static_cast<double>(ctx.now() - t0) / kReps;
  });
  ex.run_until(sim::kCycleMax);
  return per_op;
}

RunResult run_queue(const RunCfg& cfg, QueueImpl qi) {
  // An enumerator outside the table has no server to start: die with a
  // diagnosis rather than run clients that would hang.
  if (static_cast<std::size_t>(qi) >= std::size(kQueueImpls)) {
    std::fprintf(stderr, "hmps fatal: run_queue: unhandled QueueImpl %d\n",
                 static_cast<int>(qi));
    std::abort();
  }
  // Only the queue this run drives is built: the CS queue the
  // constructions serialize, or the lock-free LCRQ.
  std::optional<ds::SeqQueue> seq;
  std::optional<ds::Lcrq<SimCtx>> lcrq;
  if (qi == QueueImpl::kLcrq) {
    lcrq.emplace(7, 8192);
  } else {
    seq.emplace(16384);
  }
  SimExecutor ex(cfg.machine, cfg.seed);
  prepare(ex, cfg.faults, cfg.obs);
  // Async trains pipeline only the single-server message-passing queue.
  const bool batching = cfg.async_batch >= 2 && qi == QueueImpl::kMp1;
  auto body = [&]<class U>(U& uc, std::uint32_t ns) {
    return drive(cfg, ex, uc, ns, batching, nullptr,
                 alternate<ds::q_enqueue<SimCtx>, ds::q_dequeue<SimCtx>>);
  };
  if (qi == QueueImpl::kLcrq) {
    LcrqUc uc{*lcrq};
    return body(uc, 0);
  }
  if (qi == QueueImpl::kMp2) {
    TwoServerQueue uc(&*seq, cfg.max_inflight);
    return body(uc, 2);
  }
  const Uc id = kQueueImpls[static_cast<int>(qi)].uc;
  return with_construction<kDelegationUc>(
      id, &*seq, uc_params(cfg), ex,
      [&]<class U>(U& uc) { return body(uc, row_of(id).servers); });
}

RunResult run_stack(const RunCfg& cfg, StackImpl si) {
  // Only the stack this run drives is built: the CS stack the
  // constructions serialize, or the lock-free Treiber stack.
  std::optional<ds::SeqStack> seq;
  std::optional<ds::TreiberStack<SimCtx>> tr;
  if (si == StackImpl::kTreiber) {
    tr.emplace(2048);
  } else {
    seq.emplace(16384);
  }
  SimExecutor ex(cfg.machine, cfg.seed);
  prepare(ex, cfg.faults, cfg.obs);
  auto body = [&]<class U>(U& uc, std::uint32_t ns) {
    return drive(cfg, ex, uc, ns, /*batching=*/false, nullptr,
                 alternate<ds::s_push<SimCtx>, ds::s_pop<SimCtx>>);
  };
  if (si == StackImpl::kTreiber) {
    TreiberUc uc{*tr};
    return body(uc, 0);
  }
  const Uc id = kStackImpls[static_cast<int>(si)].uc;
  return with_construction<kDelegationUc>(
      id, &*seq, uc_params(cfg), ex,
      [&]<class U>(U& uc) { return body(uc, row_of(id).servers); });
}

}  // namespace hmps::harness
