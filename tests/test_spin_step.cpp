// Scheduler-side spin stepping (Scheduler::spin, SimCtx::spin_until) must be
// observably identical to the hand-written poll loop
//   for (;;) { v = ctx.load(p); if (done(v)) return v; ctx.cpu_relax(); }
// Each scenario runs twice, once per form, and the two runs must agree on
// every observable: the full trace, engine counters (scheduled, executed,
// fast_forwards, peak_depth), coherence/UDN/fault counters, every core's
// counters and cycle account, the final clock, and what the threads saw.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "check/perturb.hpp"
#include "obs/metrics.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace hmps {
namespace {

using sim::Cycle;
using Word = rt::Word;

enum class Form { kLiteral, kSpinUntil };

/// Engine and model knobs a scenario runs under.
struct Knobs {
  bool fast_forward = true;
  bool preemption = false;  ///< FaultPlan preemption windows on every core
  bool pct = false;         ///< PctPerturber on resumes and explore points
  Cycle chunk = 0;          ///< > 0: drive run() in windows this long
};

template <class Done>
std::uint64_t poll(rt::SimCtx& ctx, const Word* w, Done done, Form form) {
  if (form == Form::kSpinUntil) return ctx.spin_until(w, done);
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

/// Everything observable about one finished run.
struct Outcome {
  std::string machine;   ///< engine/coherence/UDN/fault counters (JSON)
  std::string cores;     ///< per-core counters and cycle accounts
  std::string trace;     ///< Chrome trace of every recorded event
  Cycle end = 0;
  std::uint64_t seen = 0;  ///< fingerprint of what the threads observed
  std::uint64_t fast_forwards = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t decisions = 0;  ///< perturber consultations
};

void expect_same(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_TRUE(a.trace == b.trace) << "traces differ";
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.decisions, b.decisions);
}

/// Builds the executor for `threads` simulated threads on an 8-core mesh,
/// runs `body` under `k` to completion and collects the outcome.
template <class Body>
Outcome run_scenario(std::uint32_t threads, const Knobs& k, Body body) {
  rt::SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 11);
  arch::Machine& m = ex.machine();
  m.tracer().enable();
  m.sched().set_fast_forward_enabled(k.fast_forward);
  if (k.preemption) {
    sim::FaultPlan plan;
    plan.seed = 5;
    plan.preempt_period = 400;
    plan.preempt_duration = 90;
    m.install_faults(plan);
  }
  check::PerturbPlan pplan;
  pplan.seed = 9;
  pplan.nthreads = threads;
  pplan.change_points = 3;
  pplan.change_interval = 2'000;
  pplan.resume_permille = 150;
  pplan.delay_unit = 3;
  pplan.point_permille = 300;
  pplan.point_delay_max = 40;
  check::PctPerturber pct(pplan);
  if (k.pct) m.sched().set_perturber(&pct);

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

  Outcome o;
  o.end = m.sched().now();
  m.settle_accounts();
  o.machine = obs::MetricsRegistry::machine_json(m).dump();
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
  o.fast_forwards = m.sched().engine_counters().fast_forwards;
  o.decisions = pct.decisions();
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
      kWaiters + 1, k, [&](rt::SimCtx& ctx, std::uint32_t t, Fp& seen) {
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
      kThreads, k, [&](rt::SimCtx& ctx, std::uint32_t t, Fp& seen) {
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
      1, k, [&](rt::SimCtx& ctx, std::uint32_t, Fp& seen) {
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

template <class Scenario>
void check_equivalent(Scenario scenario, const Knobs& k) {
  const Outcome literal = scenario(Form::kLiteral, k);
  const Outcome stepped = scenario(Form::kSpinUntil, k);
  expect_same(literal, stepped);
  // The fast path must have engaged exactly when it is enabled, or the
  // scenario would not be testing what it claims.
  if (k.fast_forward) {
    EXPECT_GT(literal.fast_forwards, 0u);
  } else {
    EXPECT_EQ(literal.fast_forwards, 0u);
  }
  if (k.preemption) {
    EXPECT_GT(literal.preemptions, 0u);
  }
  if (k.pct) {
    EXPECT_GT(literal.decisions, 0u);
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

TEST(SpinStep, HandoffDefault) { check_equivalent(handoff, {}); }

TEST(SpinStep, HandoffFastForwardOff) {
  Knobs k;
  k.fast_forward = false;
  check_equivalent(handoff, k);
}

TEST(SpinStep, HandoffPreemptionWindowsOverlapSpins) {
  Knobs k;
  k.preemption = true;
  check_equivalent(handoff, k);
}

TEST(SpinStep, HandoffPctPerturber) {
  Knobs k;
  k.pct = true;
  check_equivalent(handoff, k);
}

TEST(SpinStep, HandoffRunHorizonInsideSpins) {
  Knobs k;
  k.chunk = 37;  // odd window: boundaries fall inside load and relax waits
  check_equivalent(handoff, k);
}

TEST(SpinStep, HandoffAllKnobs) {
  Knobs k;
  k.fast_forward = false;
  k.preemption = true;
  k.pct = true;
  k.chunk = 53;
  check_equivalent(handoff, k);
}

TEST(SpinStep, TtasTwoOrMoreWaitersOnOneLine) { check_equivalent(ttas, {}); }

TEST(SpinStep, TtasPreemptionAndPct) {
  Knobs k;
  k.preemption = true;
  k.pct = true;
  check_equivalent(ttas, k);
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

}  // namespace
}  // namespace hmps
