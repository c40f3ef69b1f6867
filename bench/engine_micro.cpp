// Engine micro-benchmark: raw throughput of the simulation engine itself
// (no synchronization algorithms on top). Five workloads:
//
//   event_churn   — events executed/sec through the event queue, using
//                   callbacks with UDN-delivery-sized captures (24 bytes)
//   fiber_churn   — fiber resume/yield round trips/sec through the scheduler
//   udn_pingpong  — two-core message round trips/sec (send+receive both ways)
//   udn_flood     — many-to-one messages/sec with link contention modelled
//   spin_wait     — simulated poll iterations/sec: fibers spin on their own
//                   lines (SimCtx::spin_until, hit polls asleep and charged
//                   in bulk) while one writer flips them; spin_literal runs
//                   the same workload with the hand-written load/cpu_relax
//                   loop, one fiber switch per poll, and both also print
//                   host ns per poll iteration
//
// Usage: engine_micro [--smoke] [--json FILE]
//   --smoke  run 1% of the default iteration counts (CI smoke test)
//   --json   append machine-readable results to FILE
//
// Rates are host wall-clock, so absolute numbers vary by machine; the point
// is comparing the same workload across engine versions on one host.
//
// Compiling this file against the pre-overhaul engine (for baselines)
// requires -DENGINE_MICRO_SEED, which stubs out the self-counters that the
// seed engine does not have.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "sim/scheduler.hpp"
#ifndef ENGINE_MICRO_SEED
#include "runtime/sim_executor.hpp"
#endif

using namespace hmps;
using sim::Cycle;
using sim::Tid;

namespace {

struct Result {
  const char* name;
  const char* unit;
  std::uint64_t ops;
  double seconds;
  double rate() const { return seconds > 0 ? ops / seconds : 0.0; }
};

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// ---- event_churn -----------------------------------------------------------
// Self-rescheduling events whose captures are sized like the engine's real
// hot-path callbacks: a UDN delivery captures {this, dst, queue, n} = 24
// bytes, which is what the inline event storage exists for.
struct ChurnCtx {
  sim::Scheduler* s;
  std::uint64_t remaining;
  std::uint64_t sink;
};

void schedule_churn(ChurnCtx* c, std::uint64_t key, std::uint64_t salt) {
  c->s->at(c->s->now() + 1 + key % 7, [c, key, salt] {  // 24-byte capture
    c->sink += key ^ salt;
    if (c->remaining == 0) return;  // budget shared by all chains
    if (--c->remaining > 0)
      schedule_churn(c, key * 2654435761ull + 1, salt + 1);
  });
}

Result event_churn(std::uint64_t events) {
  sim::Scheduler s;
  ChurnCtx ctx{&s, events, 0};
  const double t0 = now_sec();
  // 64 concurrent self-rescheduling chains keep the heap realistically deep.
  for (std::uint64_t i = 0; i < 64 && i < events; ++i)
    schedule_churn(&ctx, 0x9e3779b97f4a7c15ull * (i + 1), i);
  s.run();
  const double dt = now_sec() - t0;
  volatile std::uint64_t keep = ctx.sink;  // defeat dead-code elimination
  (void)keep;
  return {"event_churn", "events/s", events, dt};
}

// ---- fiber_churn -----------------------------------------------------------
Result fiber_churn(std::uint64_t resumes) {
  sim::Scheduler s;
  const std::uint64_t kFibers = 32;
  const std::uint64_t per = resumes / kFibers;
  for (std::uint64_t f = 0; f < kFibers; ++f) {
    s.spawn([&s, per] {
      for (std::uint64_t i = 0; i < per; ++i) s.wait_for(1);
    });
  }
  const double t0 = now_sec();
  s.run();
  const double dt = now_sec() - t0;
  return {"fiber_churn", "resumes/s", per * kFibers, dt};
}

// ---- udn_pingpong ----------------------------------------------------------
Result udn_pingpong(std::uint64_t roundtrips) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  s.spawn([&] {
    std::uint64_t w[3] = {1, 2, 3};
    for (std::uint64_t r = 0; r < roundtrips; ++r) {
      udn.send(0, 5, 0, w, 3);
      udn.receive(0, 1, w, 3);
    }
    s.stop();
  });
  s.spawn([&] {
    std::uint64_t w[3];
    for (;;) {
      udn.receive(5, 0, w, 3);
      udn.send(5, 0, 1, w, 3);
    }
  });
  const double t0 = now_sec();
  s.run();
  const double dt = now_sec() - t0;
  return {"udn_pingpong", "roundtrips/s", roundtrips, dt};
}

// ---- udn_flood -------------------------------------------------------------
Result udn_flood(std::uint64_t messages) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  const std::uint64_t per = messages / (C - 1);
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i, per] {
      std::uint64_t w[3] = {i, 0, 0};
      for (std::uint64_t m = 0; m < per; ++m) {
        w[1] = m;
        udn.send(i, 0, 0, w, 3);
      }
    });
  }
  s.spawn([&] {
    std::uint64_t w[3];
    for (std::uint64_t m = 0; m < per * (C - 1); ++m) udn.receive(0, 0, w, 3);
  });
  const double t0 = now_sec();
  s.run();
  const double dt = now_sec() - t0;
  return {"udn_flood", "msgs/s", per * (C - 1), dt};
}

// ---- spin_wait -------------------------------------------------------------
// kSpinners threads each wait for successive generations on their own cache
// line; a writer thread bumps the lines round-robin with a little compute in
// between, so most of the simulation is poll iterations (a load plus a
// cpu_relax). The variants simulate the same machine up to the order of
// same-cycle ties (spin_until's polls run last in their cycle, docs/MODEL.md
// §1), so the ratio of their rates is the host cost of a fiber switch and
// an event per poll, against polls that sleep until their line is written.
#ifndef ENGINE_MICRO_SEED
template <bool kLiteral>
Result spin_wait(std::uint64_t generations) {
  constexpr std::uint32_t kSpinners = 16;
  struct alignas(rt::kCacheLine) Line {
    rt::Word v{0};
  };
  std::vector<Line> lines(kSpinners);
  rt::SimExecutor ex(arch::MachineParams::tilegx36());
  ex.add_thread([&](rt::SimCtx& ctx) {  // the writer, on core 0
    for (std::uint64_t g = 1; g <= generations; ++g) {
      for (Line& l : lines) {
        ctx.compute(8);
        ctx.store(&l.v, g);
      }
    }
  });
  for (std::uint32_t i = 0; i < kSpinners; ++i) {
    ex.add_thread([&lines, i, generations](rt::SimCtx& ctx) {
      rt::Word* w = &lines[i].v;
      for (std::uint64_t g = 1; g <= generations; ++g) {
        if constexpr (kLiteral) {
          while (ctx.load(w) != g) ctx.cpu_relax();
        } else {
          ctx.spin_until(w, [g](std::uint64_t v) { return v == g; });
        }
      }
    });
  }
  const double t0 = now_sec();
  ex.run_until(sim::kCycleMax);
  const double dt = now_sec() - t0;
  std::uint64_t polls = 0;  // spinner loads: one per poll iteration
  for (Tid c = 1; c <= kSpinners; ++c) polls += ex.machine().core(c).mem_ops;
  return {kLiteral ? "spin_literal" : "spin_wait", "polls/s", polls, dt};
}
#endif

// ---- engine self-counters --------------------------------------------------
// Re-runs a short mixed workload on a fresh scheduler purely to report the
// allocation-escape counters (the seed engine has none — stubbed under
// ENGINE_MICRO_SEED so the same source builds against it for baselines).
struct SelfCounters {
  std::uint64_t scheduled = 0, executed = 0;
  std::uint64_t spill_allocs = 0, heap_grows = 0, peak_depth = 0;
  std::uint64_t stack_pool_hits = 0;
  bool available = false;
};

SelfCounters probe_counters() {
  SelfCounters out;
#ifndef ENGINE_MICRO_SEED
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  // Pre-sized the way arch::Machine sizes its scheduler: the steady state
  // must then never grow the event heap (asserted below via heap_grows).
  s.reserve_events(static_cast<std::size_t>(topo.cores()) * 8 + 64,
                   topo.cores() + 8);
  arch::UdnModel udn(p, topo, s);
  s.spawn([&] {
    std::uint64_t w[3] = {7, 8, 9};
    for (int r = 0; r < 2000; ++r) {
      udn.send(0, 5, 0, w, 3);
      udn.receive(0, 1, w, 3);
    }
    s.stop();
  });
  s.spawn([&] {
    std::uint64_t w[3];
    for (;;) {
      udn.receive(5, 0, w, 3);
      udn.send(5, 0, 1, w, 3);
    }
  });
  s.run();
  const auto& c = s.engine_counters();
  out.scheduled = c.scheduled;
  out.executed = c.executed;
  out.spill_allocs = c.spill_allocs;
  out.heap_grows = c.heap_grows;
  out.peak_depth = c.peak_depth;
  out.stack_pool_hits = sim::Fiber::stack_pool_hits();
  out.available = true;
#endif
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json FILE]\n", argv[0]);
      return 2;
    }
  }
  const std::uint64_t scale = smoke ? 100 : 1;

  std::vector<Result> results;
  results.push_back(event_churn(4'000'000 / scale));
  results.push_back(fiber_churn(2'000'000 / scale));
  results.push_back(udn_pingpong(400'000 / scale));
  results.push_back(udn_flood(700'000 / scale));
#ifndef ENGINE_MICRO_SEED
  results.push_back(spin_wait<false>(2'000 / scale));
  results.push_back(spin_wait<true>(2'000 / scale));
#endif

  for (const Result& r : results) {
    std::printf("%-14s %12llu ops  %8.3f s  %14.0f %s", r.name,
                (unsigned long long)r.ops, r.seconds, r.rate(), r.unit);
    if (std::strcmp(r.unit, "polls/s") == 0 && r.ops > 0) {
      std::printf("  %6.1f ns/poll", r.seconds * 1e9 / r.ops);
    }
    std::printf("\n");
  }

  const SelfCounters c = probe_counters();
  if (c.available) {
    std::printf(
        "engine_counters: scheduled=%llu executed=%llu spill_allocs=%llu "
        "heap_grows=%llu peak_depth=%llu stack_pool_hits=%llu\n",
        (unsigned long long)c.scheduled, (unsigned long long)c.executed,
        (unsigned long long)c.spill_allocs, (unsigned long long)c.heap_grows,
        (unsigned long long)c.peak_depth,
        (unsigned long long)c.stack_pool_hits);
    if (c.spill_allocs != 0) {
      std::fprintf(stderr, "FAIL: hot-path callbacks spilled to the heap\n");
      return 1;
    }
    if (c.heap_grows != 0) {
      std::fprintf(stderr,
                   "FAIL: pre-sized event heap grew %llu times in steady "
                   "state\n",
                   (unsigned long long)c.heap_grows);
      return 1;
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::perror("fopen --json");
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ops\": %llu, \"seconds\": %.6f, "
                   "\"rate\": %.1f, \"unit\": \"%s\"}%s\n",
                   r.name, (unsigned long long)r.ops, r.seconds, r.rate(),
                   r.unit, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"engine_counters\": ");
    if (c.available) {
      std::fprintf(f,
                   "{\"scheduled\": %llu, \"executed\": %llu, "
                   "\"spill_allocs\": %llu, \"heap_grows\": %llu, "
                   "\"peak_depth\": %llu, \"stack_pool_hits\": %llu}\n",
                   (unsigned long long)c.scheduled,
                   (unsigned long long)c.executed,
                   (unsigned long long)c.spill_allocs,
                   (unsigned long long)c.heap_grows,
                   (unsigned long long)c.peak_depth,
                   (unsigned long long)c.stack_pool_hits);
    } else {
      std::fprintf(f, "null\n");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return 0;
}
