#include "harness/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "harness/farm.hpp"
#include "harness/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sync/async_batcher.hpp"
#include "sync/sharded.hpp"

namespace hmps::harness {

using rt::SimCtx;
using rt::SimExecutor;
using sim::Cycle;
using sync::SyncStats;

const char* arrival_model_name(ArrivalModel m) {
  switch (m) {
    case ArrivalModel::kPoisson: return "poisson";
    case ArrivalModel::kMmpp: return "mmpp";
  }
  return "?";
}

const char* shed_policy_name(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kDropNewest: return "drop-newest";
    case ShedPolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

namespace {

using Sharded = sync::ShardedServer<SimCtx>;
using Fn = sync::CsFn<SimCtx>;

// Farm sizes: a single construction serves kMaxObjects (the
// server-consolidation shape: one serving core, many objects); a sharded
// fleet spreads kShardedObjects, a population rendezvous hashing can
// balance (docs/SHARDING.md).
constexpr std::uint32_t kMaxObjects = 8;
constexpr std::uint32_t kShardedObjects = 64;

// The run's farm: counters or MS-queues, only the one it drives.
template <std::uint32_t N>
struct FarmOf {
  explicit FarmOf(bool queue)
      : obj(queue ? static_cast<void*>(&queues.emplace())
                  : static_cast<void*>(&counters.emplace())) {}
  std::optional<Farm<ds::SeqCounter, N>> counters;
  std::optional<Farm<ds::SeqQueue, N>> queues;
  void* obj;
};

// One construction behind the sessions. With async_batch >= 2 and the
// ticket API, each session feeds it through an AsyncBatcher train,
// idle-flushed on lulls (docs/SERVICE.md).
template <class U>
class OneConstruction {
 public:
  static constexpr std::uint32_t kObjects = kMaxObjects;

  OneConstruction(U& uc, const UcRow& row, std::uint32_t async_batch)
      : uc_(uc), row_(row) {
    if constexpr (AsyncUc<U>) {
      if (async_batch >= 2 && row.async) {
        for (std::uint32_t t = 0; t < 64; ++t) {
          batch_.emplace_back(uc, async_batch);
        }
      }
    }
  }

  std::uint32_t servers() const { return row_.servers; }
  std::uint32_t shards() const { return 0; }
  void serve(SimCtx& ctx, std::uint32_t s) { harness::serve(uc_, ctx, s); }

  // Issues one arrival's operation; returns the number of operations it
  // completed (0 while a train buffers).
  std::uint64_t issue(SimCtx& ctx, Fn fn, std::uint32_t obj,
                      std::uint64_t arg) {
    const std::uint64_t a = Sharded::pack_obj_arg(obj, arg);
    if constexpr (AsyncUc<U>) {
      if (!batch_.empty()) return batch_[ctx.tid()].add(ctx, fn, a);
    }
    uc_.apply(ctx, fn, a);
    return 1;
  }
  // Completes the session's partial train; returns its length.
  std::uint64_t flush(SimCtx& ctx) {
    if constexpr (AsyncUc<U>) {
      if (!batch_.empty()) return batch_[ctx.tid()].flush(ctx);
    }
    return 0;
  }

  SyncStats& stats(rt::Tid t) { return uc_.stats(t); }
  SyncStats sum() { return sum_stats(uc_); }
  void add_gauges(obs::Telemetry& tel) { add_gauge(tel, row_.gauge, uc_); }

 private:
  U& uc_;
  const UcRow& row_;
  std::vector<sync::AsyncBatcher<SimCtx, U>> batch_;
};

// A sync::ShardedServer fleet behind the sessions: each session resolves
// an arrival's object to its home shard client-side and issues through the
// fleet's ticket API. With async_batch >= 2 a session keeps a train of
// tickets in flight, typically spread across several shards at once, and
// reaps it when it fills or the arrival stream lulls.
class ShardFleet {
 public:
  static constexpr std::uint32_t kObjects = kShardedObjects;

  ShardFleet(Sharded& sh, std::uint32_t shards, std::uint32_t async_batch)
      : sh_(sh),
        shards_(shards),
        batch_(async_batch >= 2 ? std::min<std::uint32_t>(async_batch, 16)
                                : 1),
        trains_(shards + Sharded::kMaxClients) {}

  std::uint32_t servers() const { return shards_; }
  std::uint32_t shards() const { return shards_; }
  void serve(SimCtx& ctx, std::uint32_t s) { sh_.serve(ctx, s); }

  std::uint64_t issue(SimCtx& ctx, Fn fn, std::uint32_t obj,
                      std::uint64_t arg) {
    if (batch_ < 2) {
      sh_.apply(ctx, fn, obj, arg);
      return 1;
    }
    Train& t = trains_[ctx.tid()];
    t.tickets[t.n++] = sh_.apply_async(ctx, fn, obj, arg);
    return t.n == batch_ ? reap(ctx, t) : 0;
  }
  std::uint64_t flush(SimCtx& ctx) {
    Train& t = trains_[ctx.tid()];
    return t.n > 0 ? reap(ctx, t) : 0;
  }

  SyncStats& stats(rt::Tid t) { return sh_.stats(t); }
  SyncStats sum() { return sum_stats(sh_, shards_ + Sharded::kMaxClients); }
  void add_gauges(obs::Telemetry& tel) {
    add_gauge(tel, row_of(Uc::kSharded).gauge, sh_);
  }

 private:
  struct Train {
    sync::Ticket tickets[16];
    std::uint32_t n = 0;
  };
  std::uint64_t reap(SimCtx& ctx, Train& t) {
    for (std::uint32_t j = 0; j < t.n; ++j) sh_.wait(ctx, t.tickets[j]);
    const std::uint32_t n = t.n;
    t.n = 0;
    return n;
  }

  Sharded& sh_;
  std::uint32_t shards_;
  std::uint32_t batch_;
  std::vector<Train> trains_;  // by tid
};

struct Arrival {
  Cycle t;            ///< arrival time
  std::uint32_t obj;  ///< Zipf-chosen object index
  bool alt;           ///< session-mix alternate op (get/dequeue)
};

struct PendingStamp {
  Cycle t_arr;
  Cycle t_disp;
};

// Completion statistics of one open-loop run.
struct Books {
  sim::Reservoir sojourn;
  sim::Summary queue_delay, service_time;
  std::uint64_t offered = 0;    // arrivals generated in the window
  std::uint64_t admitted = 0;   // arrivals admitted in the window
  std::uint64_t completed = 0;  // completions recorded in the window
};

// Carves an arrival's queueing delay out of the session core's account:
// while the arrival aged in the pending queue, the core was burning cycles
// on the *previous* operation — mostly waiting on the construction — and
// those cycles are the queueing delay, charged under the mechanism rather
// than the cause. Wait-type buckets are drained first, compute last;
// clamping in reclassify() keeps the sum invariant unconditional.
void carve_queue_delay(obs::CycleAccount& acct, Cycle w) {
  using CA = obs::CycleAccount;
  static constexpr CA::Bucket order[] = {
      CA::kUdnRecvWait, CA::kUdnAsyncWait, CA::kSpin,
      CA::kCoherenceRead, CA::kCoherenceWrite, CA::kAtomic,
      CA::kUdnSendBlock, CA::kIdle, CA::kCompute};
  for (const CA::Bucket b : order) {
    if (w == 0) return;
    w -= acct.reclassify(b, CA::kSvcQueue, w);
  }
}

// The RunResult of a finished open-loop run, plus its artifact run entry
// when base.obs.metrics is set. `shards` > 0 marks a sharded fleet.
RunResult report(const ServiceCfg& cfg, SimExecutor& ex, obs::Telemetry& tel,
                 const Books& b, const SyncStats& stat_delta,
                 std::uint32_t nsess, std::uint32_t nobj, std::uint32_t ns,
                 std::uint32_t shards) {
  const RunCfg& base = cfg.base;
  const Cycle measure = base.window * std::max<std::uint64_t>(base.reps, 1);
  RunResult r;
  r.total_ops = b.completed;
  r.arrivals = b.admitted;
  r.shed_ops = stat_delta.shed_ops;
  const double win = static_cast<double>(measure);
  r.mops = static_cast<double>(b.completed) / win * 1200.0;
  r.offered_mops = static_cast<double>(b.offered) / win * 1200.0;
  r.lat_mean = b.sojourn.summary().mean();
  r.lat_p50 = static_cast<double>(b.sojourn.quantile(0.50));
  r.lat_p99 = static_cast<double>(b.sojourn.quantile(0.99));
  r.lat_p999 = static_cast<double>(b.sojourn.quantile(0.999));
  r.lat_max = b.sojourn.summary().max();
  r.queue_delay_mean = b.queue_delay.mean();
  r.service_mean = b.service_time.mean();
  r.combining_rate = stat_delta.combining_rate();
  r.throttle_waits = stat_delta.throttle_waits;
  r.stall_timeouts = stat_delta.stall_timeouts;
  r.cycles_per_op = r.mops > 0 ? 1200.0 / r.mops : 0;
  // Windowed attribution of the serving core ([0]: the server or shard 0;
  // for the serverless combiners the first session's core).
  r.serv_account = ex.machine().core(0).account;
  r.serv_ops = static_cast<double>(stat_delta.served ? stat_delta.served
                                                     : b.completed);

  const bool tracing = base.obs.trace != nullptr;
  if (base.obs.metrics != nullptr) {
    using obs::JsonValue;
    using obs::MetricsRegistry;
    JsonValue& run = base.obs.metrics->add_run(base.obs.label);
    JsonValue& c = run["config"];
    c["app_threads"] = JsonValue(std::uint64_t{nsess});
    c["servers"] = JsonValue(std::uint64_t{ns});
    c["warmup"] = JsonValue(std::uint64_t{base.warmup});
    c["window"] = JsonValue(std::uint64_t{measure});
    c["reps"] = JsonValue(std::uint64_t{1});
    c["seed"] = JsonValue(base.seed);
    c["max_ops"] = JsonValue(base.max_ops);
    c["max_inflight"] = JsonValue(base.max_inflight);
    c["stall_timeout"] = JsonValue(std::uint64_t{base.stall_timeout});
    c["async_batch"] = JsonValue(std::uint64_t{base.async_batch});
    c["faults_enabled"] = JsonValue(base.faults.enabled());
    JsonValue& res = run["results"];
    res["mops"] = JsonValue(r.mops);
    res["lat_mean"] = JsonValue(r.lat_mean);
    res["lat_p50"] = JsonValue(r.lat_p50);
    res["lat_p99"] = JsonValue(r.lat_p99);
    res["total_ops"] = JsonValue(r.total_ops);
    res["throttle_waits"] = JsonValue(r.throttle_waits);
    res["stall_timeouts"] = JsonValue(r.stall_timeouts);
    res["serv_ops"] = JsonValue(r.serv_ops);
    JsonValue& svc = run["service"];
    svc["arrival"] = JsonValue(arrival_model_name(cfg.arrival));
    svc["offered_mops_target"] = JsonValue(cfg.offered_mops);
    svc["offered_mops"] = JsonValue(r.offered_mops);
    svc["achieved_mops"] = JsonValue(r.mops);
    svc["sessions"] = JsonValue(std::uint64_t{nsess});
    svc["objects"] = JsonValue(std::uint64_t{nobj});
    if (shards > 0) svc["shards"] = JsonValue(std::uint64_t{shards});
    svc["zipf_s"] = JsonValue(cfg.zipf_s);
    svc["burst"] = JsonValue(cfg.burst);
    svc["dwell_quiet"] = JsonValue(std::uint64_t{cfg.dwell_quiet});
    svc["dwell_burst"] = JsonValue(std::uint64_t{cfg.dwell_burst});
    svc["queue_cap"] = JsonValue(std::uint64_t{cfg.queue_cap});
    svc["shed_policy"] = JsonValue(shed_policy_name(cfg.shed));
    svc["object"] = JsonValue(cfg.queue_object ? "ms-queue" : "counter");
    svc["offered"] = JsonValue(b.offered);
    svc["arrivals"] = JsonValue(r.arrivals);
    svc["completed"] = JsonValue(b.completed);
    svc["shed_ops"] = JsonValue(r.shed_ops);
    JsonValue& soj = svc["sojourn"];
    soj["mean"] = JsonValue(r.lat_mean);
    soj["p50"] = JsonValue(r.lat_p50);
    soj["p99"] = JsonValue(r.lat_p99);
    soj["p999"] = JsonValue(r.lat_p999);
    soj["max"] = JsonValue(r.lat_max);
    soj["count"] = JsonValue(b.sojourn.count());
    soj["kept"] = JsonValue(static_cast<std::uint64_t>(b.sojourn.kept()));
    svc["queue_delay_mean"] = JsonValue(r.queue_delay_mean);
    svc["service_mean"] = JsonValue(r.service_mean);
    run["machine_params"] = MetricsRegistry::params_json(base.machine);
    run["sync_stats"] = MetricsRegistry::sync_stats_json(stat_delta);
    run["machine"] = MetricsRegistry::machine_json(ex.machine());
    JsonValue& accts = run["cycle_accounts"];
    for (std::uint32_t core = 0; core < ex.machine().cores(); ++core) {
      accts.push_back(MetricsRegistry::cycle_account_json(
          ex.machine().core(core).account));
    }
    if (tel.enabled()) {
      run["telemetry"] = tel.to_json();
    }
    if (tracing) {
      run["trace"] = MetricsRegistry::tracer_json(ex.machine().tracer());
    }
  }
  if (tracing) {
    base.obs.trace->merge_from(ex.machine().tracer());
  }
  return r;
}

// The open-loop service run over `fleet` (OneConstruction or ShardFleet)
// serving the farm at `farm`: the fleet's server fibers, `nsess` session
// fibers, one arrival stream demuxed across the sessions' bounded
// admission queues, a warmup and one continuous measurement window.
template <class Fleet>
RunResult open_loop(const ServiceCfg& cfg, SimExecutor& ex, Fleet& fleet,
                    std::uint32_t nsess) {
  constexpr std::uint32_t N = Fleet::kObjects;
  const RunCfg& base = cfg.base;
  const std::uint32_t nobj = std::min(std::max(cfg.objects, 1u), N);
  const Cycle t_meas0 = base.warmup;
  const Cycle t_end =
      base.warmup + base.window * std::max<std::uint64_t>(base.reps, 1);
  const Fn fn_main = cfg.queue_object ? &farm_enq<N> : &farm_inc<N>;
  const Fn fn_alt = cfg.queue_object ? &farm_deq<N> : &farm_get<N>;

  const std::uint32_t ns = fleet.servers();
  for (std::uint32_t s = 0; s < ns; ++s) {
    ex.add_thread([&fleet, s](SimCtx& ctx) { fleet.serve(ctx, s); });
  }

  // ---- open-loop state ----
  ArrivalGen gen(cfg, base.seed * 0x9e3779b97f4a7c15ULL + 0xA55A);
  ZipfSampler zipf(nobj, cfg.zipf_s);
  // Per-session op mix: fraction (percent) of the primary op, drawn once
  // per session from the arrival stream's RNG so the whole traffic pattern
  // is (seed, config)-deterministic.
  std::vector<std::uint32_t> mix(nsess);
  for (auto& m : mix) m = 50 + static_cast<std::uint32_t>(gen.below(50));

  std::vector<std::deque<Arrival>> pend(nsess);
  std::vector<std::deque<PendingStamp>> stamps(nsess);
  std::vector<char> waiting(nsess, 0);
  std::vector<sim::Scheduler::FiberId> sfid(nsess, 0);
  Books b;

  // Windowed sampling (off unless base.telemetry_window > 0): per-window
  // sojourn percentiles, throughput, admission-queue depth, sheds, and the
  // fleet's backlog gauge — the time-resolved view of this run.
  obs::Telemetry tel(ex.machine(), {base.telemetry_window});
  if (tel.enabled()) {
    tel.enable_completion_stream();
    tel.add_gauge("admission_queue", [&pend] {
      std::uint64_t n = 0;
      for (const auto& q : pend) n += q.size();
      return n;
    });
    fleet.add_gauges(tel);
    tel.add_counter("shed_ops", [&fleet] { return fleet.sum().shed_ops; });
    tel.add_counter("offered", [&b] { return b.offered; });
  }

  auto record = [&](Cycle t_arr, Cycle t_disp, Cycle t_done) {
    if (t_done <= t_meas0) return;  // run_until(warmup) ran it
    b.sojourn.add(t_done - t_arr);
    b.queue_delay.add(static_cast<double>(t_disp - t_arr));
    b.service_time.add(static_cast<double>(t_done - t_disp));
    ++b.completed;
    tel.record_completion(t_done - t_arr);
  };

  // ---- session fibers ----
  for (std::uint32_t i = 0; i < nsess; ++i) {
    const std::uint32_t tid = ns + i;
    ex.add_thread([&, i, tid](SimCtx& ctx) {
      sfid[i] = ex.sched().current();
      const std::uint32_t core = tid % ex.machine().cores();
      obs::CycleAccount& acct = ex.machine().core(core).account;
      auto& myq = pend[i];
      auto& mystamps = stamps[i];
      // Records the n oldest stamped operations as completed now.
      auto complete = [&](std::uint64_t n) {
        const Cycle done = ctx.now();
        for (std::uint64_t j = 0; j < n; ++j) {
          const PendingStamp s = mystamps.front();
          mystamps.pop_front();
          record(s.t_arr, s.t_disp, done);
        }
      };
      std::uint64_t k = 0;
      for (;;) {
        if (myq.empty()) {
          // Open-loop lull: complete the partial train so buffered ops are
          // not stranded until the next arrival.
          const std::uint64_t n = fleet.flush(ctx);
          if (n > 0) {
            complete(n);
            continue;  // time passed; re-check for new arrivals
          }
          waiting[i] = 1;
          ex.sched().suspend();
          continue;
        }
        const Arrival arr = myq.front();
        myq.pop_front();
        const Cycle t_disp = ctx.now();
        // Queueing delay spent inside the measurement window becomes
        // svc-queue on this session's core (clamped at the window start so
        // a wait that began during warmup cannot overdraw the reset
        // buckets).
        const Cycle wait_from = arr.t > t_meas0 ? arr.t : t_meas0;
        if (t_disp > wait_from) carve_queue_delay(acct, t_disp - wait_from);
        const std::uint64_t arg = cfg.queue_object ? 1 + (k & 0xFFFF) : 0;
        ++k;
        mystamps.push_back({arr.t, t_disp});
        complete(fleet.issue(ctx, arr.alt ? fn_alt : fn_main, arr.obj, arg));
      }
    });
  }

  // ---- arrival delivery (scheduler callbacks; composes with the
  // wait_until fast path: a pending arrival event blocks the floor raise,
  // so fibers can never skip over one) ----
  std::function<void(Cycle)> arrive = [&](Cycle t) {
    const std::uint32_t sess = static_cast<std::uint32_t>(gen.below(nsess));
    const std::uint32_t obj_i = zipf.sample(gen.uniform());
    const bool alt = gen.below(100) >= mix[sess];
    if (t > t_meas0) ++b.offered;  // t_meas0 itself runs in warmup
    auto& q = pend[sess];
    bool admitted = true;
    if (q.size() >= cfg.queue_cap) {
      // Admission control: the pending queue is full.
      ++fleet.stats(ns + sess).shed_ops;
      if (cfg.shed == ShedPolicy::kDropNewest) {
        admitted = false;
      } else {
        q.pop_front();  // evict the longest-waiting arrival
      }
    }
    if (admitted) {
      q.push_back(Arrival{t, obj_i, alt});
      if (t > t_meas0) ++b.admitted;
      if (waiting[sess]) {
        waiting[sess] = 0;
        ex.sched().wake(sfid[sess], t);
      }
    }
    const Cycle nt = gen.next(t);
    if (nt <= t_end) {
      ex.sched().at(nt, [&arrive, nt] { arrive(nt); });
    }
  };
  const Cycle t0 = gen.next(0);
  if (t0 <= t_end) {
    ex.sched().at(t0, [&arrive, t0] { arrive(t0); });
  }

  // ---- run: warmup, then one continuous measurement window ----
  ex.run_until(base.warmup);
  ex.machine().reset_window_counters();
  const SyncStats stats0 = fleet.sum();
  // Baseline after the reset: every account starts from zero at t_meas0,
  // so the per-bucket window sums telescope to the final cycle_accounts.
  tel.start(t_meas0, t_end);
  ex.run_until(t_end);
  // Close the books even if the event queue drained before t_end (all
  // sessions idle past the last arrival): the tail must become idle time
  // or the per-core accounts under-cover the window.
  ex.machine().finalize_accounts(t_end);
  tel.flush(t_end);
  return report(cfg, ex, tel, b, fleet.sum().since(stats0), nsess, nobj, ns,
                fleet.shards());
}

}  // namespace

RunResult run_service(const ServiceCfg& cfg, Approach a) {
  if (a != Approach::kMpServer && a != Approach::kHybComb &&
      a != Approach::kShmServer && a != Approach::kCcSynch &&
      a != Approach::kVlinkServer) {
    std::fprintf(stderr,
                 "hmps fatal: run_service: approach %s has no service "
                 "driver\n",
                 approach_name(a));
    std::abort();
  }
  const RunCfg& base = cfg.base;
  SimExecutor ex(base.machine, base.seed);
  prepare(ex, base.faults, base.obs);
  FarmOf<kMaxObjects> farm(cfg.queue_object);
  UcParams p;
  p.max_ops = base.max_ops;
  p.max_inflight = base.max_inflight;
  p.stall_timeout = base.stall_timeout;
  p.shm_async_depth = base.async_batch;
  const Uc id = uc_of(a);
  return with_construction<kDelegationUc>(
      id, farm.obj, p, ex, [&]<class U>(U& uc) {
        OneConstruction<U> fleet(uc, row_of(id), base.async_batch);
        return open_loop(cfg, ex, fleet, std::max(cfg.sessions, 1u));
      });
}

RunResult run_service_sharded(const ServiceCfg& cfg) {
  const RunCfg& base = cfg.base;
  const std::uint32_t shards =
      std::clamp<std::uint32_t>(cfg.shards, 1, Sharded::kMaxShards);
  SimExecutor ex(base.machine, base.seed);
  prepare(ex, base.faults, base.obs);
  FarmOf<kShardedObjects> farm(cfg.queue_object);
  const Sharded::TransferHooks hooks{&farm_deq<kShardedObjects>,
                                     &farm_enq<kShardedObjects>};
  Sharded sh(shards, farm.obj,
             std::min(std::max(cfg.objects, 1u), kShardedObjects),
             base.max_inflight,
             cfg.queue_object ? hooks : Sharded::TransferHooks{});
  ShardFleet fleet(sh, shards, base.async_batch);
  return open_loop(cfg, ex, fleet,
                   std::min(std::max(cfg.sessions, 1u), Sharded::kMaxClients));
}

}  // namespace hmps::harness
