// Scheduler-side spin stepping (Scheduler::spin, SimCtx::spin_until) and
// poll elision (sleeping steppers, docs/ENGINE.md "Poll elision").
//
// Two equivalences are pinned here, each by running a scenario twice.
// - spin_until with poll elision on must be observably identical to
//   spin_until with it off: coherence/UDN/fault counters, every core's
//   counters and cycle account, the final clock, telemetry windows and
//   what the threads saw. Only the engine block (events scheduled and
//   executed, fast-forwards, sleeps) may differ. A traced run never elides,
//   so the reference runs traced and the elided run untraced, which also
//   pins tracing as pure observation.
// - Where no poll can share a cycle with a wake-up (a lone waiter), the
//   hand-written loop
//     for (;;) { v = ctx.load(p); if (done(v)) return v; ctx.cpu_relax(); }
//   must match spin_until on everything, full trace and engine counters
//   included. With more fibers the two differ by design: the loop's
//   resumes tie with other events in FIFO order, while spin_until's polls
//   run last in their cycle (docs/MODEL.md §1).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "check/perturb.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace hmps {
namespace {

using sim::Cycle;
using Word = rt::Word;

/// How a scenario's poll loops run.
enum class Form {
  kLiteral,   ///< the hand-written load/cpu_relax loop, traced
  kUnelided,  ///< spin_until with poll elision off, traced: the reference
  kElided,    ///< spin_until with poll elision on, untraced
};

/// Engine and model knobs a scenario runs under.
struct Knobs {
  bool fast_forward = true;
  bool preemption = false;  ///< FaultPlan preemption windows on every core
  bool pct = false;         ///< PctPerturber on resumes and explore points
  Cycle chunk = 0;          ///< > 0: drive run() in windows this long
  Cycle telemetry = 0;      ///< > 0: telemetry windows this long
};

template <class Done>
std::uint64_t poll(rt::SimCtx& ctx, const Word* w, Done done, Form form) {
  if (form != Form::kLiteral) return ctx.spin_until(w, done);
  for (;;) {
    const std::uint64_t v = ctx.load(w);
    if (done(v)) return v;
    ctx.cpu_relax();
  }
}

struct Fp {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

/// Everything observable about one run.
struct Outcome {
  std::string machine;   ///< coherence/UDN/fault counters (JSON)
  std::string engine;    ///< the engine block of the same JSON
  std::string cores;     ///< per-core counters and cycle accounts
  std::string trace;     ///< Chrome trace of every recorded event
  std::string telemetry;  ///< telemetry windows (JSON), if enabled
  Cycle end = 0;
  std::uint64_t seen = 0;  ///< fingerprint of what the threads observed
  std::uint64_t fast_forwards = 0;
  std::uint64_t executed = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t decisions = 0;  ///< perturber consultations
};

/// `a` and `b` simulated the same machine. `exact` also demands the same
/// engine work and the same trace.
void expect_same(const Outcome& a, const Outcome& b, bool exact) {
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.telemetry, b.telemetry);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.decisions, b.decisions);
  if (exact) {
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_TRUE(a.trace == b.trace) << "traces differ";
  }
}

/// Configures `ex`'s machine for `form` under `k`.
void configure(rt::SimExecutor& ex, Form form, const Knobs& k,
               check::PctPerturber& pct) {
  arch::Machine& m = ex.machine();
  if (form != Form::kElided) m.tracer().enable();
  m.sched().set_poll_elision_enabled(form == Form::kElided);
  m.sched().set_fast_forward_enabled(k.fast_forward);
  if (k.preemption) {
    sim::FaultPlan plan;
    plan.seed = 5;
    plan.preempt_period = 400;
    plan.preempt_duration = 90;
    m.install_faults(plan);
  }
  if (k.pct) m.sched().set_perturber(&pct);
}

check::PerturbPlan pct_plan(std::uint32_t threads) {
  check::PerturbPlan pplan;
  pplan.seed = 9;
  pplan.nthreads = threads;
  pplan.change_points = 3;
  pplan.change_interval = 2'000;
  pplan.resume_permille = 150;
  pplan.delay_unit = 3;
  pplan.point_permille = 300;
  pplan.point_delay_max = 40;
  return pplan;
}

/// Settles the accounts at now() and collects every observable.
Outcome collect(rt::SimExecutor& ex, const Fp& seen,
                const check::PctPerturber& pct) {
  arch::Machine& m = ex.machine();
  Outcome o;
  o.end = m.sched().now();
  m.settle_accounts();
  obs::JsonValue mj = obs::MetricsRegistry::machine_json(m);
  o.engine = mj["engine"].dump();
  mj["engine"] = obs::JsonValue();
  o.machine = mj.dump();
  std::ostringstream cores;
  for (std::uint32_t c = 0; c < m.cores(); ++c) {
    const arch::CoreState& s = m.core(c);
    cores << c << ": " << s.busy << ' ' << s.stall << ' ' << s.idle << ' '
          << s.mem_ops << ' ' << s.atomics << ' ' << s.rmr_loads << ' '
          << s.rmr_stores << ' ' << s.load_stall << ' ' << s.wb_stall << ' '
          << s.atomic_stall << ' ' << s.preempt_stall << ' ' << s.preemptions
          << ' ' << obs::MetricsRegistry::cycle_account_json(s.account).dump()
          << '\n';
    o.preemptions += s.preemptions;
  }
  o.cores = cores.str();
  std::ostringstream trace;
  m.tracer().write_chrome_json(trace);
  o.trace = trace.str();
  o.seen = seen.h;
  const sim::EngineCounters& e = m.sched().engine_counters();
  o.fast_forwards = e.fast_forwards;
  o.executed = e.executed;
  o.sleeps = e.sleeps;
  o.decisions = pct.decisions();
  return o;
}

/// Builds the executor for `threads` simulated threads on an 8-core mesh,
/// runs `body` under `k` to completion and collects the outcome.
template <class Body>
Outcome run_scenario(std::uint32_t threads, const Knobs& k, Form form,
                     Body body) {
  rt::SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 11);
  arch::Machine& m = ex.machine();
  check::PctPerturber pct(pct_plan(threads));
  configure(ex, form, k, pct);
  obs::Telemetry tel(m, {k.telemetry});
  tel.start(0, sim::kCycleMax);

  Fp seen;
  std::uint32_t finished = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    ex.add_thread([&, t](rt::SimCtx& ctx) {
      body(ctx, t, seen);
      // Fault windows reschedule themselves forever: end the run here.
      if (++finished == threads) ctx.machine().sched().stop();
    });
  }
  if (k.chunk == 0) {
    ex.run_until(sim::kCycleMax);
  } else {
    for (Cycle h = k.chunk; finished < threads; h += k.chunk) {
      ex.run_until(h);
    }
  }
  EXPECT_EQ(finished, threads) << "scenario did not complete";
  Outcome o = collect(ex, seen, pct);
  tel.flush(o.end);
  if (tel.enabled()) o.telemetry = tel.to_json().dump();
  return o;
}

// ---- scenarios ----

/// Thread 0 bumps one line per waiter, generation after generation, and
/// waits for each waiter's acknowledgement; waiters spin on their own line,
/// then acknowledge on another. Both sides spin, with think times drawn from
/// the threads' deterministic streams.
Outcome handoff(Form form, const Knobs& k) {
  constexpr std::uint32_t kWaiters = 6;
  constexpr std::uint64_t kGenerations = 40;
  struct alignas(rt::kCacheLine) Line {
    Word v{0};
  };
  std::vector<Line> flag(kWaiters + 1), ack(kWaiters + 1);
  return run_scenario(
      kWaiters + 1, k, form, [&](rt::SimCtx& ctx, std::uint32_t t, Fp& seen) {
        for (std::uint64_t g = 1; g <= kGenerations; ++g) {
          if (t == 0) {
            for (std::uint32_t w = 1; w <= kWaiters; ++w) {
              ctx.compute(1 + ctx.rand_below(12));
              ctx.store(&flag[w].v, g);
            }
            for (std::uint32_t w = 1; w <= kWaiters; ++w) {
              poll(ctx, &ack[w].v,
                   [g](std::uint64_t v) { return v == g; }, form);
            }
            continue;
          }
          const std::uint64_t v = poll(
              ctx, &flag[t].v, [g](std::uint64_t x) { return x >= g; }, form);
          ctx.explore_point("spin-step.seen");
          seen.mix(t);
          seen.mix(v);
          seen.mix(ctx.now());
          ctx.compute(ctx.rand_below(30));
          ctx.store(&ack[t].v, g);
        }
      });
}

/// Test-and-test-and-set lock: every thread spins on the same flag line,
/// so several waiters poll one line and race for the exchange.
Outcome ttas(Form form, const Knobs& k) {
  constexpr std::uint32_t kThreads = 5;
  constexpr int kRounds = 30;
  struct alignas(rt::kCacheLine) Line {
    Word v{0};
  };
  Line flag, counter;
  return run_scenario(
      kThreads, k, form, [&](rt::SimCtx& ctx, std::uint32_t t, Fp& seen) {
        for (int r = 0; r < kRounds; ++r) {
          for (;;) {
            poll(ctx, &flag.v, [](std::uint64_t v) { return v == 0; }, form);
            if (ctx.exchange(&flag.v, std::uint64_t{1}) == 0) break;
          }
          const std::uint64_t c = ctx.load(&counter.v);
          ctx.compute(4);
          ctx.store(&counter.v, c + 1);
          ctx.store(&flag.v, std::uint64_t{0});
          seen.mix(t);
          seen.mix(c);
          seen.mix(ctx.now());
          ctx.compute(ctx.rand_below(20));
        }
      });
}

/// A lone waiter whose line is written by plain scheduler callbacks. No
/// other fiber exists, so with fast-forward off the waiter's own entries
/// are the next resumes its own park_and_dispatch pops.
Outcome lone_waiter(Form form, const Knobs& k) {
  constexpr std::uint64_t kGenerations = 25;
  struct alignas(rt::kCacheLine) Line {
    Word v{0};
  };
  Line flag;
  return run_scenario(
      1, k, form, [&](rt::SimCtx& ctx, std::uint32_t, Fp& seen) {
        sim::Scheduler& s = ctx.machine().sched();
        for (std::uint64_t g = 1; g <= kGenerations; ++g) {
          s.at(s.now() + 17 + 5 * (g % 4), [&flag, g] {
            flag.v.store(g, std::memory_order_relaxed);
          });
          const std::uint64_t v = poll(
              ctx, &flag.v, [g](std::uint64_t x) { return x == g; }, form);
          seen.mix(v);
          seen.mix(ctx.now());
        }
      });
}

/// The reference must have exercised what `k` claims to test.
void expect_knobs_engaged(const Outcome& ref, const Knobs& k) {
  if (k.fast_forward) {
    EXPECT_GT(ref.fast_forwards, 0u);
  } else {
    EXPECT_EQ(ref.fast_forwards, 0u);
  }
  if (k.preemption) {
    EXPECT_GT(ref.preemptions, 0u);
  }
  if (k.pct) {
    EXPECT_GT(ref.decisions, 0u);
  }
}

/// The hand-written loop against spin_until, on everything.
template <class Scenario>
void check_equivalent(Scenario scenario, const Knobs& k) {
  const Outcome literal = scenario(Form::kLiteral, k);
  const Outcome stepped = scenario(Form::kUnelided, k);
  expect_same(literal, stepped, /*exact=*/true);
  expect_knobs_engaged(literal, k);
}

/// spin_until with poll elision on against elision off. Elision must have
/// engaged, and saved events, exactly when no perturber or fault plan
/// turns it off.
template <class Scenario>
void check_elided(Scenario scenario, const Knobs& k) {
  const Outcome ref = scenario(Form::kUnelided, k);
  const Outcome elided = scenario(Form::kElided, k);
  expect_same(ref, elided, /*exact=*/false);
  expect_knobs_engaged(ref, k);
  EXPECT_EQ(ref.sleeps, 0u);
  if (k.preemption || k.pct) {
    EXPECT_EQ(elided.sleeps, 0u);
    EXPECT_EQ(elided.engine, ref.engine);
  } else {
    EXPECT_GT(elided.sleeps, 0u);
    EXPECT_LT(elided.executed, ref.executed);
  }
}

// Engine level: a lone fiber's steps and its last wait are the only
// entries in the queue, so with fast-forward off every one of them is
// popped by the fiber's own park_and_dispatch, which must run the steps in
// place and then simply return to the fiber (there is nothing to switch
// to). With fast-forward on, the same waits never touch the queue.
struct Countdown final : sim::Stepper {
  sim::Scheduler& s;
  int left;
  std::vector<Cycle> at;
  Countdown(sim::Scheduler& sched, int n) : s(sched), left(n) {}
  Wait step() override {
    at.push_back(s.now());
    --left;
    return {s.now() + 2, left == 0};
  }
  Cycle catch_up(Cycle t) override {
    ADD_FAILURE() << "a stepper that never sleeps was caught up";
    return t;
  }
};

void lone_countdown(bool fast_forward) {
  sim::Scheduler s;
  s.set_fast_forward_enabled(fast_forward);
  Countdown c(s, 5);
  Cycle after_spin = 0;
  s.spawn([&] {
    s.wait_for(3);
    s.spin(c);
    after_spin = s.now();
    s.wait_for(1);
  });
  EXPECT_EQ(s.run(), 14u);
  EXPECT_EQ(after_spin, 13u);
  EXPECT_EQ(c.at, (std::vector<Cycle>{3, 5, 7, 9, 11}));
  const sim::EngineCounters& e = s.engine_counters();
  // spawn + wait_for(3) + five step waits + wait_for(1), or only the spawn
  // when every wait fast-forwards.
  EXPECT_EQ(e.scheduled, fast_forward ? 1u : 8u);
  EXPECT_EQ(e.executed, e.scheduled);
  EXPECT_EQ(e.fast_forwards, fast_forward ? 7u : 0u);
}

TEST(SpinStep, LoneFiberPopsItsOwnEntries) {
  lone_countdown(/*fast_forward=*/false);
  lone_countdown(/*fast_forward=*/true);
}

TEST(SpinStep, HandoffDefault) { check_elided(handoff, {}); }

TEST(SpinStep, HandoffFastForwardOff) {
  Knobs k;
  k.fast_forward = false;
  check_elided(handoff, k);
}

TEST(SpinStep, HandoffPreemptionWindowsOverlapSpins) {
  Knobs k;
  k.preemption = true;
  check_elided(handoff, k);
}

TEST(SpinStep, HandoffPctPerturber) {
  Knobs k;
  k.pct = true;
  check_elided(handoff, k);
}

TEST(SpinStep, HandoffRunHorizonInsideSpins) {
  Knobs k;
  k.chunk = 37;  // odd window: boundaries fall inside load and relax waits
  check_elided(handoff, k);
}

TEST(SpinStep, HandoffAllKnobs) {
  Knobs k;
  k.fast_forward = false;
  k.preemption = true;
  k.pct = true;
  k.chunk = 53;
  check_elided(handoff, k);
}

TEST(SpinStep, TtasTwoOrMoreWaitersOnOneLine) { check_elided(ttas, {}); }

TEST(SpinStep, TtasPreemptionAndPct) {
  Knobs k;
  k.preemption = true;
  k.pct = true;
  check_elided(ttas, k);
}

TEST(SpinStep, LoneWaiterOwnEntryFastForwardOff) {
  Knobs k;
  k.fast_forward = false;
  check_equivalent(lone_waiter, k);
}

TEST(SpinStep, LoneWaiterDefault) { check_equivalent(lone_waiter, {}); }

TEST(SpinStep, LoneWaiterRunHorizonInsideSpins) {
  Knobs k;
  k.chunk = 7;
  check_equivalent(lone_waiter, k);
}

// ---- poll elision: wake-ups, horizons and observers ----

struct alignas(rt::kCacheLine) FlagLine {
  Word v{0};
};

/// Thread 0 writes the line thread 1 polls, once, `delay` cycles after the
/// waiter has settled into hit polls.
Outcome timed_write(Cycle delay, Form form) {
  FlagLine flag;
  return run_scenario(
      2, {}, form, [&](rt::SimCtx& ctx, std::uint32_t t, Fp& seen) {
        if (t == 0) {
          ctx.compute(200 + delay);
          ctx.store(&flag.v, std::uint64_t{1});
          return;
        }
        seen.mix(poll(
            ctx, &flag.v, [](std::uint64_t x) { return x != 0; }, form));
        seen.mix(ctx.now());
      });
}

TEST(SpinStep, WriteLandsOnPollCycleAndOnRelaxCycle) {
  // A sleeping poller's polls repeat every issue_cost + l_hit + 1 cycles:
  // a load, then a one-cycle relax. Writes on consecutive cycles spanning
  // two periods land on every phase, the load's cycle and the relax's
  // cycle included, and each must wake the poller into the slot its
  // unelided twin holds.
  const arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  const Cycle period = p.issue_cost + p.l_hit + 1;
  for (Cycle d = 0; d < 2 * period; ++d) {
    SCOPED_TRACE(d);
    const Outcome elided = timed_write(d, Form::kElided);
    expect_same(timed_write(d, Form::kUnelided), elided, /*exact=*/false);
    EXPECT_GT(elided.sleeps, 0u);
  }
}

/// Thread 0 holds a TTAS lock from the start while the others queue on its
/// flag, then releases it and everyone takes the lock once. `*asleep`
/// receives how many pollers slept at the release.
Outcome ttas_release(Form form, std::size_t* asleep) {
  FlagLine flag;
  flag.v.store(1, std::memory_order_relaxed);
  return run_scenario(
      5, {}, form, [&](rt::SimCtx& ctx, std::uint32_t t, Fp& seen) {
        if (t == 0) {
          ctx.compute(400);
          *asleep = ctx.machine().sched().sleeping();
          ctx.store(&flag.v, std::uint64_t{0});
        }
        for (;;) {
          poll(ctx, &flag.v, [](std::uint64_t v) { return v == 0; }, form);
          if (ctx.exchange(&flag.v, std::uint64_t{1}) == 0) break;
        }
        seen.mix(t);
        seen.mix(ctx.now());
        ctx.compute(10);
        ctx.store(&flag.v, std::uint64_t{0});
      });
}

TEST(SpinStep, TtasReleaseWakesEverySleeper) {
  std::size_t ref_asleep = 0, asleep = 0;
  const Outcome ref = ttas_release(Form::kUnelided, &ref_asleep);
  const Outcome elided = ttas_release(Form::kElided, &asleep);
  expect_same(ref, elided, /*exact=*/false);
  EXPECT_EQ(ref_asleep, 0u);
  EXPECT_EQ(asleep, 4u);
}

TEST(SpinStep, HorizonReachedWithOnlySleepersLeft) {
  // Thread 0 finishes early; thread 1 polls a line nobody writes. From
  // then on the elided run's queue is empty, yet every run() must still
  // reach its horizon with the polls up to it applied, as the unelided
  // run's never-empty queue does.
  auto run = [](Form form) {
    rt::SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 11);
    check::PctPerturber pct(pct_plan(2));
    configure(ex, form, {}, pct);
    FlagLine flag, other;
    ex.add_thread([&](rt::SimCtx& ctx) {
      ctx.compute(50);
      ctx.store(&other.v, std::uint64_t{1});
    });
    ex.add_thread([&](rt::SimCtx& ctx) {
      ctx.spin_until(&flag.v, [](std::uint64_t v) { return v != 0; });
      ADD_FAILURE() << "nobody writes the flag";
    });
    std::vector<Outcome> out;
    for (const Cycle h : {Cycle{500}, Cycle{1237}, Cycle{1238}, Cycle{2000}}) {
      ex.run_until(h);
      EXPECT_EQ(ex.sched().now(), h);
      out.push_back(collect(ex, Fp{}, pct));
    }
    EXPECT_EQ(ex.sched().sleeping(), form == Form::kElided ? 1u : 0u);
    return out;
  };
  const std::vector<Outcome> ref = run(Form::kUnelided);
  const std::vector<Outcome> elided = run(Form::kElided);
  ASSERT_EQ(ref.size(), elided.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same(ref[i], elided[i], /*exact=*/false);
  }
  EXPECT_EQ(elided.back().sleeps, 1u);
}

TEST(SpinStep, TelemetryTickDuringElidedSpin) {
  Knobs k;
  k.telemetry = 61;  // ticks fall inside sleeping spins
  const Outcome ref = handoff(Form::kUnelided, k);
  const Outcome elided = handoff(Form::kElided, k);
  expect_same(ref, elided, /*exact=*/false);
  EXPECT_NE(ref.telemetry, "");
  EXPECT_GT(elided.sleeps, 0u);
}

/// Thread 1 sleeps in a spin while thread 0 zeroes the window counters
/// from inside the run, and again while run() is between two horizons.
Outcome reset_while_asleep(Form form, std::size_t* asleep) {
  rt::SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 11);
  check::PctPerturber pct(pct_plan(2));
  configure(ex, form, {}, pct);
  FlagLine flag;
  Fp seen;
  ex.add_thread([&](rt::SimCtx& ctx) {
    ctx.compute(300);
    *asleep = ctx.machine().sched().sleeping();
    ctx.machine().reset_window_counters();
    ctx.compute(77);
    ctx.store(&flag.v, std::uint64_t{1});
    ctx.compute(500);
    ctx.store(&flag.v, std::uint64_t{2});
  });
  ex.add_thread([&](rt::SimCtx& ctx) {
    for (std::uint64_t g = 1; g <= 2; ++g) {
      seen.mix(ctx.spin_until(&flag.v, [g](std::uint64_t v) { return v == g; }));
      seen.mix(ctx.now());
    }
  });
  ex.run_until(651);  // thread 1 sleeps on the second generation here
  ex.machine().reset_window_counters();
  ex.run_until(sim::kCycleMax);
  return collect(ex, seen, pct);
}

TEST(SpinStep, ResetWindowCountersWhileSleeping) {
  std::size_t ref_asleep = 0, asleep = 0;
  const Outcome ref = reset_while_asleep(Form::kUnelided, &ref_asleep);
  const Outcome elided = reset_while_asleep(Form::kElided, &asleep);
  expect_same(ref, elided, /*exact=*/false);
  EXPECT_EQ(ref_asleep, 0u);
  EXPECT_EQ(asleep, 1u);
  EXPECT_GE(elided.sleeps, 2u);
}

}  // namespace
}  // namespace hmps
