// Golden-trace determinism regression tests for the engine hot-path
// overhaul, plus the zero-allocation contract and per-run arena bounds.
//
// The golden constants below were captured by running these exact scenarios
// against the SEED engine (std::function + std::priority_queue events,
// deque-based UDN queues, per-hop NoC walking, ucontext fibers) before the
// overhaul. The overhauled engine must reproduce every fingerprint and
// counter bit for bit: the (time, seq) event order, UDN counters, and NoC
// link_wait are the determinism contract (docs/ENGINE.md).
//
// The golden constants predate the coherence model's first-touch home
// assignment, so they deliberately do not cover coherence-model timings.
// (Those used to be ASLR-dependent — homes were hashed from host pointer
// addresses; they are now hashed from dense first-touch line ids and are
// reproducible across processes.) The run-entry fingerprints at the end of
// this file do cover them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_count.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "ds/counter.hpp"
#include "harness/farm.hpp"
#include "harness/record.hpp"
#include "harness/service.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/perturb.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "sync/hybcomb.hpp"
#include "sync/mp_server.hpp"
#include "sync/mp_server_hub.hpp"
#include "sync/sharded.hpp"
#include "sync/vlink_server.hpp"

namespace hmps {
namespace {

using sim::Cycle;
using sim::Tid;

struct Fp {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

struct ModelGold {
  std::uint64_t fp;
  Cycle end;
  std::uint64_t msgs, words, blocks, peak;
  std::uint64_t noc_msgs, noc_hops;
  Cycle link_wait;
};

void expect_gold(const ModelGold& got, const ModelGold& want) {
  EXPECT_EQ(got.fp, want.fp);
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.msgs, want.msgs);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.peak, want.peak);
  EXPECT_EQ(got.noc_msgs, want.noc_msgs);
  EXPECT_EQ(got.noc_hops, want.noc_hops);
  EXPECT_EQ(got.link_wait, want.link_wait);
}

ModelGold gold_of(Fp fp, Cycle end, arch::UdnModel& udn) {
  const auto& u = udn.counters();
  const auto& n = udn.noc().counters();
  return ModelGold{fp.h,       end,    u.messages, u.words, u.sender_blocks,
                  u.peak_occupancy, n.messages, n.hops,  n.link_wait};
}

// Scenario: pure scheduler interleaving — fibers with pseudo-random waits
// plus bare callbacks racing at the same cycles. Exercises the (time, seq)
// total order.
TEST(GoldenTrace, SchedulerInterleave) {
  sim::Scheduler s;
  Fp fp;
  for (std::uint32_t j = 0; j < 6; ++j) {
    s.spawn([&s, &fp, j] {
      sim::Xoshiro256 rng(1000 + j);
      for (std::uint32_t i = 0; i < 400; ++i) {
        fp.mix(j);
        fp.mix(s.now());
        if (i % 7 == j % 7) {
          s.at(s.now() + rng.below(5), [&fp, j] { fp.mix(100 + j); });
        }
        s.wait_for(rng.below(7));
      }
    });
  }
  const Cycle end = s.run();
  EXPECT_EQ(fp.h, 4661895399910340196ull);
  EXPECT_EQ(end, 1232ull);
}

// Scenario: UDN ring traffic — every core sends to its right neighbour and
// receives from its left, with rng-derived sizes and think times.
ModelGold run_udn_ring(bool link_contention) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.model_link_contention = link_contention;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  Fp fp;
  for (Tid i = 0; i < C; ++i) {
    s.spawn([&, i] {
      const Tid dst = (i + 1) % C;
      const Tid prev = (i + C - 1) % C;
      sim::Xoshiro256 think(500 + i);
      sim::Xoshiro256 out_sizes(900 + i);
      sim::Xoshiro256 in_sizes(900 + prev);
      std::uint64_t w[16];
      for (int m = 0; m < 150; ++m) {
        const std::size_t n = 1 + out_sizes.below(8);
        for (std::size_t k = 0; k < n; ++k) w[k] = i * 100000ull + m * 16 + k;
        udn.send(i, dst, i % udn.n_queues(), w, n);
        const std::size_t rn = 1 + in_sizes.below(8);
        std::uint64_t in[16];
        udn.receive(i, prev % udn.n_queues(), in, rn);
        fp.mix(in[0]);
        fp.mix(in[rn - 1]);
        fp.mix(s.now());
        s.wait_for(think.below(25));
      }
    });
  }
  const Cycle end = s.run();
  return gold_of(fp, end, udn);
}

TEST(GoldenTrace, UdnRing) {
  expect_gold(run_udn_ring(false),
              ModelGold{12640239833102257098ull, 5399, 1200, 5334, 0, 16, 0, 0,
                        0});
}

TEST(GoldenTrace, UdnRingLinkContention) {
  expect_gold(run_udn_ring(true),
              ModelGold{12640239833102257098ull, 5399, 1200, 5334, 0, 16, 1200,
                        2100, 3});
}

// Scenario: many-to-one flood on one queue, slow receiver — exercises credit
// backpressure (sender_blocks > 0) and ingress-port serialization.
ModelGold run_udn_flood(bool link_contention) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.model_link_contention = link_contention;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  const std::uint64_t kMsgs = 400;
  Fp fp;
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i] {
      std::uint64_t w[3];
      for (std::uint64_t m = 0; m < kMsgs; ++m) {
        w[0] = i;
        w[1] = m;
        w[2] = i * 7777 + m;
        udn.send(i, 0, 0, w, 3);
      }
    });
  }
  s.spawn([&] {
    sim::Xoshiro256 think(42);
    std::uint64_t w[3];
    for (std::uint64_t m = 0; m < (C - 1) * kMsgs; ++m) {
      udn.receive(0, 0, w, 3);
      fp.mix(w[0]);
      fp.mix(w[2]);
      s.wait_for(think.below(9));
    }
  });
  const Cycle end = s.run();
  return gold_of(fp, end, udn);
}

TEST(GoldenTrace, UdnFloodBackpressure) {
  expect_gold(run_udn_flood(false),
              ModelGold{7686226863619266309ull, 19550, 2800, 8400, 2759, 117,
                        0, 0, 0});
}

TEST(GoldenTrace, UdnFloodLinkContention) {
  expect_gold(run_udn_flood(true),
              ModelGold{7686226863619266309ull, 19550, 2800, 8400, 2759, 117,
                        2800, 6400, 820});
}

// Scenario: full 36-core mesh with link contention, all-to-one tree — wide
// NoC coverage including multi-hop XY routes in both directions.
TEST(GoldenTrace, NocAllPairs) {
  arch::MachineParams p;  // tilegx36
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  Fp fp;
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i] {
      sim::Xoshiro256 rng(3000 + i);
      std::uint64_t w[4] = {i, 0, 0, 0};
      for (int m = 0; m < 40; ++m) {
        w[1] = m;
        udn.send(i, 0, i % udn.n_queues(), w, 1 + (i + m) % 4);
        s.wait_for(rng.below(60));
      }
    });
  }
  // One receiver fiber per queue so a queue awaiting words never wedges the
  // drain of the others (credits are shared across the whole buffer).
  for (std::uint32_t q = 0; q < 4; ++q) {
    s.spawn([&, q] {
      std::uint64_t expect = 0;
      for (Tid i = 1; i < C; ++i)
        if (i % 4 == q)
          for (int m = 0; m < 40; ++m) expect += 1 + (i + m) % 4;
      std::uint64_t in[4];
      while (expect > 0) {
        const std::size_t n = expect < 4 ? expect : 4;
        udn.receive(0, q, in, n);
        expect -= n;
        fp.mix(in[0] + q);
      }
    });
  }
  const Cycle end = s.run();
  expect_gold(gold_of(fp, end, udn),
              ModelGold{12387181692252717492ull, 3533, 1400, 3500, 1117, 118,
                        1400, 7200, 16438});
}

// Scenario: multi-chip 8x8 mesh carved into a 2x2 chip grid with link
// contention — all-to-one traffic crossing inter-chip boundaries in both
// axes. Pins the chip-crossing surcharge (arch::MachineParams::chips_x/y,
// chip_hop_extra) end to end: default-path wire latencies AND the NoC
// contention model's per-link extras (docs/MODEL.md).
ModelGold run_multichip(std::uint32_t chips_x, std::uint32_t chips_y,
                        Cycle chip_extra) {
  arch::MachineParams p;
  p.mesh_w = 8;
  p.mesh_h = 8;
  p.chips_x = chips_x;
  p.chips_y = chips_y;
  p.chip_hop_extra = chip_extra;
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  Fp fp;
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i] {
      sim::Xoshiro256 rng(6000 + i);
      std::uint64_t w[4] = {i, 0, 0, 0};
      for (int m = 0; m < 20; ++m) {
        w[1] = m;
        udn.send(i, 0, i % udn.n_queues(), w, 1 + (i + m) % 4);
        s.wait_for(rng.below(80));
      }
    });
  }
  for (std::uint32_t q = 0; q < 4; ++q) {
    s.spawn([&, q] {
      std::uint64_t expect = 0;
      for (Tid i = 1; i < C; ++i)
        if (i % 4 == q)
          for (int m = 0; m < 20; ++m) expect += 1 + (i + m) % 4;
      std::uint64_t in[4];
      while (expect > 0) {
        const std::size_t n = expect < 4 ? expect : 4;
        udn.receive(0, q, in, n);
        expect -= n;
        fp.mix(in[0] + q);
      }
    });
  }
  const Cycle end = s.run();
  return gold_of(fp, end, udn);
}

TEST(GoldenTrace, MultiChipMesh2x2) {
  expect_gold(run_multichip(2, 2, 12),
              ModelGold{8276535421541217655ull, 3172, 1260, 3150, 1001, 118,
                        1260, 8960, 27114});
}

// The chip surcharge must actually cost cycles: the identical traffic on
// the same 8x8 mesh as one monolithic chip finishes sooner and waits less
// on links (same message/hop counts — routes are unchanged).
TEST(GoldenTrace, MultiChipSurchargeSlowsIdenticalTraffic) {
  const ModelGold mono = run_multichip(1, 1, 12);
  const ModelGold quad = run_multichip(2, 2, 12);
  EXPECT_EQ(mono.msgs, quad.msgs);
  EXPECT_EQ(mono.noc_hops, quad.noc_hops);
  EXPECT_LT(mono.end, quad.end);
  EXPECT_NE(mono.fp, quad.fp);  // completion order shifts under the extras
}

// ---------------------------------------------------------------------------
// Zero-allocation contract.
// ---------------------------------------------------------------------------

// Raw event queue: once warmed up, schedule/pop cycles of hot-path-sized
// callbacks (inline in the event record) must not touch the heap at all.
TEST(ZeroAlloc, EventQueueSteadyState) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  // Warmup: grow the slot pool to its high-water mark AND run the schedule
  // pattern through a full timing-wheel revolution so every bucket reaches
  // its per-round capacity.
  Cycle t = 0;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 256; ++i) {
      q.schedule(t + 1 + i % 7, [&fired, i] { fired += i; });
    }
    while (!q.empty()) q.pop(&t)();
  }

  const std::uint64_t allocs_before = test::all_allocs().calls;
  const auto spills_before = q.counters().spill_allocs;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      q.schedule(t + 1 + i % 7, [&fired, i] { fired += i; });
    }
    while (!q.empty()) q.pop(&t)();
  }
  EXPECT_EQ(test::all_allocs().calls - allocs_before, 0u);
  EXPECT_EQ(q.counters().spill_allocs - spills_before, 0u);
  EXPECT_GT(fired, 0u);
}

// Whole engine: a UDN ping-pong in steady state — fiber switches, event
// scheduling, message staging, blocking receives, waiter wakeups — must be
// allocation-free per round trip.
TEST(ZeroAlloc, UdnPingPongSteadyState) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  std::uint64_t rounds = 0;
  std::uint64_t allocs_at_steady = 0;
  s.spawn([&] {
    std::uint64_t w[3] = {1, 2, 3};
    for (;;) {
      udn.send(0, 5, 0, w, 3);
      udn.receive(0, 1, w, 3);
      if (++rounds == 1000) allocs_at_steady = test::all_allocs().calls;
      if (rounds == 11000) {
        s.stop();
        return;
      }
    }
  });
  s.spawn([&] {
    std::uint64_t w[3];
    for (;;) {
      udn.receive(5, 0, w, 3);
      udn.send(5, 0, 1, w, 3);
    }
  });
  s.run();
  EXPECT_EQ(rounds, 11000u);
  EXPECT_EQ(test::all_allocs().calls - allocs_at_steady, 0u);
  EXPECT_EQ(s.engine_counters().spill_allocs, 0u);
}

// ---------------------------------------------------------------------------
// Per-run arena gate: a harness driver builds only the object its run
// simulates. Aligned allocations are the simulated structures' node arenas
// (rt::AlignedArray) and over-aligned objects, so their calls and bytes per
// run are exact. Each bound is the measured value plus 2 calls and 32 KiB;
// the smallest arena a driver could build by mistake (8192 queue or stack
// nodes) is 128 KiB, and an unused LCRQ is thousands of calls.
// ---------------------------------------------------------------------------

/// Aligned allocations of one `run()`, measured after an identical warm-up
/// run so process-lifetime caches are never charged to it.
template <class Run>
test::AllocTally aligned_allocs_of(Run run) {
  run();
  const test::AllocTally before = test::aligned_allocs();
  run();
  return test::aligned_allocs() - before;
}

void expect_arenas_within(const test::AllocTally& got, std::uint64_t calls,
                          std::uint64_t bytes) {
  EXPECT_GT(got.calls, 0u);  // the aligned forms are really counted
  EXPECT_LE(got.calls, calls + 2);
  EXPECT_LE(got.bytes, bytes + 32 * 1024);
}

harness::RunCfg short_run_cfg() {
  harness::RunCfg cfg;
  cfg.app_threads = 4;
  cfg.warmup = 2'000;
  cfg.window = 10'000;
  cfg.reps = 1;
  return cfg;
}

// The unused LCRQ (4096 rings), queue, stack and elimination stack would
// add 8,195 calls and about 3 MB.
TEST(AllocGate, CounterRecordHistory) {
  expect_arenas_within(aligned_allocs_of([] {
                         harness::record_history(harness::RecordCfg{});
                       }),
                       7, 93'696);
}

// Unused queue and stack farms would add 16 arenas of 128 KiB each.
TEST(AllocGate, ShardedCounterRecordHistory) {
  expect_arenas_within(aligned_allocs_of([] {
                         harness::RecordCfg cfg;
                         cfg.construction = harness::Construction::kSharded;
                         cfg.shards = 4;
                         harness::record_history(cfg);
                       }),
                       1, 67'584);
}

// An unused 8192-ring LCRQ would add 16,384 calls and 10 MB.
TEST(AllocGate, MpQueueRun) {
  expect_arenas_within(aligned_allocs_of([] {
                         harness::run_queue(short_run_cfg(),
                                            harness::QueueImpl::kMp1);
                       }),
                       5, 342'144);
}

// An unused 16384-node SeqStack would add a 256 KiB arena.
TEST(AllocGate, TreiberStackRun) {
  expect_arenas_within(aligned_allocs_of([] {
                         harness::run_stack(short_run_cfg(),
                                            harness::StackImpl::kTreiber);
                       }),
                       5, 8'468'608);
}

// An unused queue farm would add 64 arenas of 128 KiB each.
TEST(AllocGate, ShardedCounterServiceOn16x16) {
  expect_arenas_within(aligned_allocs_of([] {
                         harness::ServiceCfg cfg;
                         cfg.base = short_run_cfg();
                         cfg.base.machine.mesh_w = 16;
                         cfg.base.machine.mesh_h = 16;
                         cfg.base.machine.model_link_contention = true;
                         cfg.sessions = 40;
                         cfg.objects = 64;
                         cfg.shards = 8;
                         cfg.offered_mops = 100;
                         harness::run_service_sharded(cfg);
                       }),
                       1, 67'584);
}

// Fuzz the (time, seq) total order across the timing wheel's near/far split:
// random deltas up to 5000 cycles land events in both the wheel (< 1024) and
// the overflow heap (>= 1024), including equal times in both structures.
// Whatever the internal placement, the fired sequence must be exactly the
// events sorted by (time, schedule order).
TEST(EventQueueOrder, WheelOverflowFuzz) {
  sim::EventQueue q;
  sim::Xoshiro256 rng(77);
  struct Rec {
    Cycle time;
    std::uint64_t seq;
  };
  std::vector<Rec> fired;
  std::uint64_t seq = 0;
  Cycle now = 0;
  const auto schedule_one = [&] {
    const Cycle t = now + rng.below(5000);
    const std::uint64_t s = seq++;
    q.schedule(t, [&fired, t, s] { fired.push_back(Rec{t, s}); });
  };
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t n = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < n; ++k) schedule_one();
    for (std::uint64_t k = rng.below(4); k > 0 && !q.empty(); --k) {
      q.pop(&now)();
    }
  }
  while (!q.empty()) q.pop(&now)();

  ASSERT_EQ(fired.size(), seq);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    const bool ordered = fired[i - 1].time < fired[i].time ||
                         (fired[i - 1].time == fired[i].time &&
                          fired[i - 1].seq < fired[i].seq);
    ASSERT_TRUE(ordered) << "misordered at index " << i;
  }
}

// The self-counters must account for every event exactly once. Two fibers
// with overlapping waits keep each other's resume pending, so the waits go
// through the event queue rather than the wait_until fast path.
TEST(EngineCounters, ScheduledMatchesExecuted) {
  sim::Scheduler s;
  int ticks = 0;
  s.spawn([&] {
    for (; ticks < 100; ++ticks) s.wait_for(3);
  });
  s.spawn([&] {
    while (ticks < 100) s.wait_for(3);
  });
  s.run();
  const auto& c = s.engine_counters();
  EXPECT_EQ(c.scheduled, c.executed);
  EXPECT_GE(c.scheduled, 100u);
  EXPECT_GE(c.peak_depth, 1u);
}

// A lone fiber's waits never race another event, so they are satisfied by
// fast-forwarding the clock: no events beyond the initial spawn resume.
TEST(EngineCounters, LoneFiberWaitsFastForward) {
  sim::Scheduler s;
  int ticks = 0;
  s.spawn([&] {
    for (; ticks < 100; ++ticks) s.wait_for(3);
  });
  const sim::Cycle end = s.run();
  EXPECT_EQ(end, 300u);
  const auto& c = s.engine_counters();
  EXPECT_EQ(c.scheduled, 1u);  // the spawn resume only
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.fast_forwards, 100u);
}

// ---------------------------------------------------------------------------
// Run-entry fingerprints: FNV-1a of the hmps-metrics-v2 run entry (config,
// results, machine/engine/coherence counters, cycle accounts, sync stats)
// of short harness runs of the spinning constructions. The entry carries no
// argv or git stamp; those live at the document root. The constants were
// last regenerated for the declared change that made polls run last in
// their cycle and let hit pollers sleep (docs/ENGINE.md, "Poll elision");
// they cover the engine block too. They must never be regenerated to make
// a change pass: a different fingerprint means the simulation changed.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  Fp fp;
  for (const unsigned char c : s) fp.mix(c);
  return fp.h;
}

harness::RunCfg fingerprint_cfg(std::uint32_t threads,
                                obs::MetricsRegistry* reg) {
  harness::RunCfg cfg;
  cfg.app_threads = threads;
  cfg.warmup = 5'000;
  cfg.window = 25'000;
  cfg.reps = 2;
  cfg.seed = 7;
  cfg.obs.metrics = reg;
  cfg.obs.label = "fp";
  return cfg;
}

std::uint64_t counter_entry_fp(harness::Approach a, std::uint32_t threads) {
  obs::MetricsRegistry reg;
  reg.stamp("fingerprint", 0, nullptr);
  harness::run_counter(fingerprint_cfg(threads, &reg), a);
  return fnv1a(reg.root()["runs"].items().at(0).dump());
}

struct CounterGold {
  harness::Approach approach;
  std::uint32_t threads;
  std::uint64_t fp;
};

TEST(RunEntryFingerprint, SpinningCounterRuns) {
  using harness::Approach;
  const CounterGold gold[] = {
      {Approach::kShmServer, 4, 17772707087139380482ull},
      {Approach::kShmServer, 12, 4739840582860776135ull},
      {Approach::kCcSynch, 4, 14046078340577641564ull},
      {Approach::kCcSynch, 12, 18052898851178795174ull},
      {Approach::kHybComb, 4, 140911536001597990ull},
      {Approach::kHybComb, 12, 7553310449832635254ull},
      {Approach::kMcsLock, 4, 10707648176098808390ull},
      {Approach::kMcsLock, 12, 847629786658471646ull},
      {Approach::kClhLock, 4, 9506752080242406415ull},
      {Approach::kClhLock, 12, 7947377503713416632ull},
      {Approach::kTicketLock, 4, 8394058803802156742ull},
      {Approach::kTicketLock, 12, 13844152610842306030ull},
      {Approach::kTtasLock, 4, 5848696392329394724ull},
      {Approach::kTtasLock, 12, 6948243805309321461ull},
  };
  for (const CounterGold& g : gold) {
    EXPECT_EQ(counter_entry_fp(g.approach, g.threads), g.fp)
        << harness::approach_name(g.approach) << " @ " << g.threads;
  }
}

TEST(RunEntryFingerprint, ShmServerServiceRun) {
  obs::MetricsRegistry reg;
  reg.stamp("fingerprint", 0, nullptr);
  harness::ServiceCfg cfg;
  cfg.base = fingerprint_cfg(0, &reg);
  cfg.sessions = 6;
  cfg.offered_mops = 6.0;
  cfg.arrival = harness::ArrivalModel::kMmpp;
  harness::run_service(cfg, harness::Approach::kShmServer);
  EXPECT_EQ(fnv1a(reg.root()["runs"].items().at(0).dump()),
            3214122818286159705ull);
}

// The tables below pin every harness driver x construction pair: run
// entries of run_counter, run_queue, run_stack, run_service and
// run_service_sharded (with and without async trains and credits), and
// recorded histories of record_history. A construction added to the
// registry gets a row here.

std::uint64_t entry_fp(obs::MetricsRegistry& reg) {
  return fnv1a(reg.root()["runs"].items().at(0).dump());
}

TEST(RunEntryFingerprint, MessagePassingAndTasCounterRuns) {
  using harness::Approach;
  const CounterGold gold[] = {
      {Approach::kMpServer, 4, 9045050927802811668ull},
      {Approach::kMpServer, 12, 510599547167773391ull},
      {Approach::kTasLock, 4, 11647867252995423190ull},
      {Approach::kTasLock, 12, 8331477021911491379ull},
      {Approach::kVlinkServer, 4, 15014308954605570933ull},
      {Approach::kVlinkServer, 12, 6498328739733227304ull},
  };
  for (const CounterGold& g : gold) {
    EXPECT_EQ(counter_entry_fp(g.approach, g.threads), g.fp)
        << harness::approach_name(g.approach) << " @ " << g.threads;
  }
}

// Section 6 credit loops: max_inflight = 2 with synchronous clients (the
// plain gate) and with async trains of 4 (the draining gate).
struct CreditGold {
  harness::Approach approach;
  std::uint32_t async_batch;
  std::uint64_t fp;
};

TEST(RunEntryFingerprint, CreditGatedCounterRuns) {
  using harness::Approach;
  const CreditGold gold[] = {
      {Approach::kMpServer, 0, 4641513294623888528ull},
      {Approach::kMpServer, 4, 9298612808271670542ull},
      {Approach::kHybComb, 0, 15244499479780214758ull},
      {Approach::kHybComb, 4, 10256832890896664995ull},
      {Approach::kVlinkServer, 0, 10353948543585962292ull},
      {Approach::kVlinkServer, 4, 4963332722659012191ull},
  };
  for (const CreditGold& g : gold) {
    obs::MetricsRegistry reg;
    reg.stamp("fingerprint", 0, nullptr);
    harness::RunCfg cfg = fingerprint_cfg(8, &reg);
    cfg.max_inflight = 2;
    cfg.async_batch = g.async_batch;
    harness::run_counter(cfg, g.approach);
    EXPECT_EQ(entry_fp(reg), g.fp)
        << harness::approach_name(g.approach) << " batch " << g.async_batch;
  }
}

struct QueueGold {
  harness::QueueImpl impl;
  std::uint32_t async_batch;
  std::uint64_t max_inflight;
  std::uint64_t fp;
};

TEST(RunEntryFingerprint, QueueRuns) {
  using harness::QueueImpl;
  const QueueGold gold[] = {
      {QueueImpl::kMp1, 0, 0, 15520528433809414634ull},
      {QueueImpl::kHyb1, 0, 0, 3288813228829358984ull},
      {QueueImpl::kShm1, 0, 0, 9205936531794697111ull},
      {QueueImpl::kCc1, 0, 0, 16681731888583101385ull},
      {QueueImpl::kMp2, 0, 0, 13036423895374999172ull},
      {QueueImpl::kLcrq, 0, 0, 1761672817480402316ull},
      {QueueImpl::kVl1, 0, 0, 16138697499434084340ull},
      {QueueImpl::kMp1, 4, 0, 3072121670447464039ull},
      {QueueImpl::kMp1, 4, 2, 14445342049065675255ull},
  };
  for (const QueueGold& g : gold) {
    obs::MetricsRegistry reg;
    reg.stamp("fingerprint", 0, nullptr);
    harness::RunCfg cfg = fingerprint_cfg(6, &reg);
    cfg.async_batch = g.async_batch;
    cfg.max_inflight = g.max_inflight;
    harness::run_queue(cfg, g.impl);
    EXPECT_EQ(entry_fp(reg), g.fp)
        << harness::queue_name(g.impl) << " batch " << g.async_batch
        << " inflight " << g.max_inflight;
  }
}

struct StackGold {
  harness::StackImpl impl;
  std::uint64_t fp;
};

TEST(RunEntryFingerprint, StackRuns) {
  using harness::StackImpl;
  const StackGold gold[] = {
      {StackImpl::kMp, 16375624872749783592ull},      {StackImpl::kHyb, 11949263228882598901ull},
      {StackImpl::kShm, 1452356397445849023ull},     {StackImpl::kCc, 2428451119178862461ull},
      {StackImpl::kTreiber, 10709164765279369581ull}, {StackImpl::kVl, 9008975416668180886ull},
  };
  for (const StackGold& g : gold) {
    obs::MetricsRegistry reg;
    reg.stamp("fingerprint", 0, nullptr);
    harness::run_stack(fingerprint_cfg(6, &reg), g.impl);
    EXPECT_EQ(entry_fp(reg), g.fp) << harness::stack_name(g.impl);
  }
}

harness::ServiceCfg service_fp_cfg(obs::MetricsRegistry* reg, bool queue,
                                   std::uint32_t async_batch) {
  harness::ServiceCfg cfg;
  cfg.base = fingerprint_cfg(0, reg);
  cfg.base.async_batch = async_batch;
  cfg.sessions = 6;
  cfg.offered_mops = 6.0;
  cfg.arrival = harness::ArrivalModel::kMmpp;
  cfg.queue_object = queue;
  return cfg;
}

struct ServiceGold {
  harness::Approach approach;
  bool queue;
  std::uint32_t async_batch;
  std::uint64_t max_inflight;
  std::uint64_t fp;
};

TEST(RunEntryFingerprint, ServiceRuns) {
  using harness::Approach;
  const ServiceGold gold[] = {
      {Approach::kMpServer, false, 0, 0, 10130093663795579053ull},
      {Approach::kMpServer, true, 0, 0, 16861606976934647340ull},
      {Approach::kMpServer, false, 4, 0, 10943698692360758226ull},
      {Approach::kMpServer, true, 4, 0, 2924042665465995455ull},
      {Approach::kHybComb, false, 0, 0, 12960736567387393606ull},
      {Approach::kHybComb, true, 0, 0, 12505413606247467477ull},
      {Approach::kHybComb, false, 4, 0, 7152279242347875396ull},
      {Approach::kHybComb, true, 4, 0, 3041195229043477762ull},
      {Approach::kShmServer, false, 0, 0, 3214122818286159705ull},
      {Approach::kShmServer, true, 0, 0, 1014999618159999347ull},
      {Approach::kShmServer, false, 4, 0, 4969868178954220255ull},
      {Approach::kShmServer, true, 4, 0, 7894049979556802322ull},
      {Approach::kCcSynch, false, 0, 0, 9600798136862828013ull},
      {Approach::kCcSynch, true, 0, 0, 11607528394422514351ull},
      {Approach::kVlinkServer, false, 0, 0, 8439297840480062664ull},
      {Approach::kVlinkServer, true, 0, 0, 16271383485406006936ull},
      {Approach::kVlinkServer, false, 4, 0, 3495698154883662030ull},
      {Approach::kVlinkServer, true, 4, 0, 10991481768922462299ull},
      {Approach::kMpServer, true, 4, 2, 12248875875027905223ull},
      {Approach::kHybComb, true, 4, 2, 14114394147497980403ull},
      {Approach::kVlinkServer, true, 4, 2, 15361191682713282128ull},
  };
  for (const ServiceGold& g : gold) {
    obs::MetricsRegistry reg;
    reg.stamp("fingerprint", 0, nullptr);
    harness::ServiceCfg cfg = service_fp_cfg(&reg, g.queue, g.async_batch);
    cfg.base.max_inflight = g.max_inflight;
    harness::run_service(cfg, g.approach);
    EXPECT_EQ(entry_fp(reg), g.fp)
        << harness::approach_name(g.approach) << (g.queue ? " queue" : "")
        << " batch " << g.async_batch << " inflight " << g.max_inflight;
  }
}

struct ShardedGold {
  std::uint32_t shards;
  bool queue;
  std::uint32_t async_batch;
  std::uint64_t max_inflight;
  std::uint64_t fp;
};

TEST(RunEntryFingerprint, ShardedServiceRuns) {
  const ShardedGold gold[] = {
      {1, false, 1, 0, 16649830754283452581ull}, {1, false, 4, 0, 16214839005710647765ull},
      {1, true, 1, 0, 5530459833312935545ull},  {1, true, 4, 0, 9622510585626957113ull},
      {4, false, 1, 0, 2922167097569946077ull}, {4, false, 4, 0, 1788997346156108455ull},
      {4, true, 1, 0, 7413519239590263545ull},  {4, true, 4, 0, 9247387103675531090ull},
      {4, true, 4, 2, 2431711491273334256ull},
  };
  for (const ShardedGold& g : gold) {
    obs::MetricsRegistry reg;
    reg.stamp("fingerprint", 0, nullptr);
    harness::ServiceCfg cfg = service_fp_cfg(&reg, g.queue, g.async_batch);
    cfg.base.max_inflight = g.max_inflight;
    cfg.shards = g.shards;
    cfg.objects = 16;
    harness::run_service_sharded(cfg);
    EXPECT_EQ(entry_fp(reg), g.fp)
        << g.shards << " shards" << (g.queue ? " queue" : "") << " batch "
        << g.async_batch << " inflight " << g.max_inflight;
  }
}

// FNV-1a over every field of a recorded history, plus its end state.
std::uint64_t history_fp(const harness::RecordResult& r) {
  Fp fp;
  for (const harness::OpRecord& op : r.history) {
    fp.mix(op.thread);
    fp.mix(static_cast<std::uint64_t>(op.kind));
    fp.mix(op.arg);
    fp.mix(op.ret);
    fp.mix(op.invoke);
    fp.mix(op.response);
    fp.mix(op.obj);
  }
  fp.mix(r.end_time);
  fp.mix(r.finished_threads);
  fp.mix(r.completed ? 1 : 0);
  return fp.h;
}

struct RecordGold {
  harness::Construction construction;
  harness::Object object;
  std::uint32_t async_depth;
  std::uint64_t fp;
};

std::uint64_t record_fp(const RecordGold& g) {
  harness::RecordCfg cfg;
  cfg.params = arch::MachineParams::tilegx_small(4, 4);
  cfg.construction = g.construction;
  cfg.object = g.object;
  cfg.async_depth = g.async_depth;
  cfg.threads = 6;
  cfg.ops_each = 24;
  cfg.shards = 3;
  return history_fp(harness::record_history(cfg));
}

// Also checks that a recorded history does not depend on what ran before
// it in the same process: the whole table is recorded twice, the second
// pass after every other run of this test.
TEST(RunEntryFingerprint, RecordedHistories) {
  using C = harness::Construction;
  using O = harness::Object;
  const RecordGold gold[] = {
      {C::kMpServer, O::kCounter, 0, 15344692153195489534ull},
      {C::kMpServer, O::kCounter, 4, 4492528400888124065ull},
      {C::kMpServer, O::kQueue, 0, 5982992461043251946ull},
      {C::kMpServer, O::kQueue, 4, 10829742784200948457ull},
      {C::kMpServer, O::kStack, 0, 7343714863896891785ull},
      {C::kMpServer, O::kStack, 4, 13790606394207365553ull},
      {C::kHybComb, O::kCounter, 0, 790439025235928312ull},
      {C::kHybComb, O::kCounter, 4, 341520429562958021ull},
      {C::kHybComb, O::kQueue, 0, 2684925187125378605ull},
      {C::kHybComb, O::kQueue, 4, 11726735831221698661ull},
      {C::kHybComb, O::kStack, 0, 17737876644149419941ull},
      {C::kHybComb, O::kStack, 4, 14617352648169948037ull},
      {C::kShmServer, O::kCounter, 0, 5132618656134339445ull},
      {C::kShmServer, O::kCounter, 4, 11464454283878494228ull},
      {C::kShmServer, O::kQueue, 0, 12560413130378792889ull},
      {C::kShmServer, O::kQueue, 4, 13627932771770347660ull},
      {C::kShmServer, O::kStack, 0, 1333876319058410366ull},
      {C::kShmServer, O::kStack, 4, 8596415873667467049ull},
      {C::kCcSynch, O::kCounter, 0, 17673003813115965231ull},
      {C::kCcSynch, O::kCounter, 4, 17673003813115965231ull},
      {C::kCcSynch, O::kQueue, 0, 17431474274795050128ull},
      {C::kCcSynch, O::kQueue, 4, 17431474274795050128ull},
      {C::kCcSynch, O::kStack, 0, 6419038594577270692ull},
      {C::kCcSynch, O::kStack, 4, 6419038594577270692ull},
      {C::kDsmSynch, O::kCounter, 0, 11448641564070588982ull},
      {C::kDsmSynch, O::kCounter, 4, 11448641564070588982ull},
      {C::kDsmSynch, O::kQueue, 0, 4189157939060472927ull},
      {C::kDsmSynch, O::kQueue, 4, 4189157939060472927ull},
      {C::kDsmSynch, O::kStack, 0, 3068151689489774002ull},
      {C::kDsmSynch, O::kStack, 4, 3068151689489774002ull},
      {C::kFlatCombining, O::kCounter, 0, 6589325864416775211ull},
      {C::kFlatCombining, O::kCounter, 4, 6589325864416775211ull},
      {C::kFlatCombining, O::kQueue, 0, 6739004327206743856ull},
      {C::kFlatCombining, O::kQueue, 4, 6739004327206743856ull},
      {C::kFlatCombining, O::kStack, 0, 9835102482076006600ull},
      {C::kFlatCombining, O::kStack, 4, 9835102482076006600ull},
      {C::kHSynch, O::kCounter, 0, 9136457964496958794ull},
      {C::kHSynch, O::kCounter, 4, 9136457964496958794ull},
      {C::kHSynch, O::kQueue, 0, 175103441200094482ull},
      {C::kHSynch, O::kQueue, 4, 175103441200094482ull},
      {C::kHSynch, O::kStack, 0, 3590742662604194670ull},
      {C::kHSynch, O::kStack, 4, 3590742662604194670ull},
      {C::kOyama, O::kCounter, 0, 372721911905580716ull},
      {C::kOyama, O::kCounter, 4, 372721911905580716ull},
      {C::kOyama, O::kQueue, 0, 7862257292768553141ull},
      {C::kOyama, O::kQueue, 4, 7862257292768553141ull},
      {C::kOyama, O::kStack, 0, 11676268403428650970ull},
      {C::kOyama, O::kStack, 4, 11676268403428650970ull},
      {C::kMcsLock, O::kCounter, 0, 9572095991278820928ull},
      {C::kMcsLock, O::kCounter, 4, 9572095991278820928ull},
      {C::kMcsLock, O::kQueue, 0, 5833769866174010344ull},
      {C::kMcsLock, O::kQueue, 4, 5833769866174010344ull},
      {C::kMcsLock, O::kStack, 0, 14240355230031705451ull},
      {C::kMcsLock, O::kStack, 4, 14240355230031705451ull},
      {C::kMpServerHub, O::kCounter, 0, 15344692153195489534ull},
      {C::kMpServerHub, O::kCounter, 4, 4492528400888124065ull},
      {C::kMpServerHub, O::kQueue, 0, 5982992461043251946ull},
      {C::kMpServerHub, O::kQueue, 4, 10829742784200948457ull},
      {C::kMpServerHub, O::kStack, 0, 7343714863896891785ull},
      {C::kMpServerHub, O::kStack, 4, 13790606394207365553ull},
      {C::kSharded, O::kCounter, 0, 3526945686836273162ull},
      {C::kSharded, O::kCounter, 4, 10801714240409322394ull},
      {C::kSharded, O::kQueue, 0, 13829690992620289175ull},
      {C::kSharded, O::kQueue, 4, 3004729542540598465ull},
      {C::kSharded, O::kStack, 0, 12720408925631374260ull},
      {C::kSharded, O::kStack, 4, 8012107465150038323ull},
      {C::kVlink, O::kCounter, 0, 11840109336530719370ull},
      {C::kVlink, O::kCounter, 4, 2564356669111589682ull},
      {C::kVlink, O::kQueue, 0, 10545294104423471327ull},
      {C::kVlink, O::kQueue, 4, 15960614487862448129ull},
      {C::kVlink, O::kStack, 0, 11613198363587386998ull},
      {C::kVlink, O::kStack, 4, 12881675955010169100ull},
      {C::kHybComb, O::kLcrq, 0, 14046196413869059592ull},
      {C::kHybComb, O::kElimStack, 0, 16047669163929823045ull},
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const RecordGold& g : gold) {
      EXPECT_EQ(record_fp(g), g.fp)
          << "pass " << pass << ": " << harness::to_string(g.construction)
          << " " << harness::to_string(g.object) << " depth "
          << g.async_depth;
    }
    if (pass == 0) {
      // Unrelated work between the passes: a sharded fleet and a traced
      // closed-loop run leave the host heap in a different state.
      obs::MetricsRegistry reg;
      reg.stamp("fingerprint", 0, nullptr);
      harness::run_service_sharded(service_fp_cfg(&reg, true, 4));
      sim::Tracer sink;
      harness::RunCfg cfg = fingerprint_cfg(12, &reg);
      cfg.obs.trace = &sink;
      harness::run_counter(cfg, harness::Approach::kHybComb);
    }
  }
}

// Async ticket paths (docs/MODEL.md §9) of the message-passing
// constructions: every client runs three depth-4 ticket trains reaped in
// reverse order, so each non-last reply goes through the reply stash, then
// a fourth train reaped by wait_all. At max_inflight 2 a train holds more
// tickets than there are credits, so issuing drains replies on the credit
// gate. The fingerprint mixes every reaped value with its ticket's issue and
// completion cycles, and the cycle each wait_all returns.

enum class TicketUc { kMpServer, kMpServerHub, kVlink, kHybComb, kSharded };

constexpr std::uint32_t kTicketClients = 3;
constexpr std::uint32_t kTicketFarm = 8;
/// Far past the end of every run; a client that deadlocks or livelocks (a
/// credit never released spins forever) stops here with its fingerprint
/// incomplete.
constexpr sim::Cycle kTicketHorizon = 200'000;

/// Adds the client fibers (after any server fibers), runs the machine until
/// it quiesces or reaches kTicketHorizon, and returns the fingerprint.
/// `issue(ctx, client, n)` issues the client's n-th op.
template <class U, class Issue>
std::uint64_t ticket_paths_fp(rt::SimExecutor& ex, U& uc, Issue issue) {
  Fp fps[kTicketClients];
  std::uint32_t done = 0;
  for (std::uint32_t i = 0; i < kTicketClients; ++i) {
    ex.add_thread([&, i](rt::SimCtx& ctx) {
      Fp& fp = fps[i];
      std::uint64_t n = 0;
      sync::Ticket t[4];
      for (int train = 0; train < 3; ++train) {
        for (sync::Ticket& tk : t) tk = issue(ctx, i, n++);
        for (int j = 4; j-- > 0;) {
          fp.mix(uc.wait(ctx, t[j]));
          fp.mix(t[j].issued);
          fp.mix(t[j].completed);
        }
        ctx.compute(ctx.rand_below(20));
      }
      for (sync::Ticket& tk : t) {
        tk = issue(ctx, i, n++);
        fp.mix(tk.issued);
      }
      uc.wait_all(ctx);
      fp.mix(ctx.now());
      if (++done == kTicketClients) {
        if constexpr (requires { uc.request_stop(ctx); }) uc.request_stop(ctx);
      }
    });
  }
  ex.run_until(kTicketHorizon);
  Fp all;
  for (const Fp& f : fps) all.mix(f.h);
  return all.h;
}

std::uint64_t ticket_paths_fp(TicketUc kind, std::uint64_t max_inflight) {
  using rt::SimCtx;
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), /*seed=*/7);
  ds::SeqCounter c;
  const auto inc = ds::counter_inc<SimCtx>;
  switch (kind) {
    case TicketUc::kMpServer: {
      sync::MpServer<SimCtx> uc(0, &c, max_inflight);
      ex.add_thread([&](SimCtx& ctx) { uc.serve(ctx); });
      return ticket_paths_fp(ex, uc, [&](SimCtx& ctx, std::uint32_t,
                                         std::uint64_t) {
        return uc.apply_async(ctx, inc, 0);
      });
    }
    case TicketUc::kMpServerHub: {
      sync::MpServerHub<SimCtx> uc(0, max_inflight);
      const std::uint64_t op = uc.add_op(inc, &c);
      ex.add_thread([&](SimCtx& ctx) { uc.serve(ctx); });
      return ticket_paths_fp(ex, uc, [&](SimCtx& ctx, std::uint32_t,
                                         std::uint64_t) {
        return uc.apply_async(ctx, op, 0);
      });
    }
    case TicketUc::kVlink: {
      sync::VlinkServer<SimCtx> uc(ex.machine().vlink(), 0, &c, max_inflight);
      ex.add_thread([&](SimCtx& ctx) { uc.serve(ctx); });
      return ticket_paths_fp(ex, uc, [&](SimCtx& ctx, std::uint32_t,
                                         std::uint64_t) {
        return uc.apply_async(ctx, inc, 0);
      });
    }
    case TicketUc::kHybComb: {
      sync::HybComb<SimCtx>::Options o;
      o.max_inflight = max_inflight;
      sync::HybComb<SimCtx> uc(&c, /*max_ops=*/16, false, o);
      return ticket_paths_fp(ex, uc, [&](SimCtx& ctx, std::uint32_t,
                                         std::uint64_t) {
        return uc.apply_async(ctx, inc, 0);
      });
    }
    case TicketUc::kSharded: {
      harness::Farm<ds::SeqCounter, kTicketFarm> farm;
      sync::ShardedServer<SimCtx> uc(2, &farm, kTicketFarm, max_inflight);
      for (std::uint32_t s = 0; s < 2; ++s) {
        ex.add_thread([&, s](SimCtx& ctx) { uc.serve(ctx, s); });
      }
      return ticket_paths_fp(ex, uc, [&](SimCtx& ctx, std::uint32_t i,
                                         std::uint64_t n) {
        return uc.apply_async(ctx, harness::farm_inc<kTicketFarm>,
                              (i + n) % kTicketFarm, 0);
      });
    }
  }
  return 0;
}

TEST(RunEntryFingerprint, AsyncTicketPaths) {
  struct TicketGold {
    TicketUc kind;
    std::uint64_t max_inflight;
    std::uint64_t fp;
  };
  const TicketGold gold[] = {
      {TicketUc::kMpServer, 0, 15221699403777982491ull},
      {TicketUc::kMpServer, 2, 17516412033945815691ull},
      {TicketUc::kMpServerHub, 0, 15221699403777982491ull},
      {TicketUc::kMpServerHub, 2, 17516412033945815691ull},
      {TicketUc::kVlink, 0, 9745506462213719024ull},
      {TicketUc::kVlink, 2, 17130803337072287224ull},
      {TicketUc::kHybComb, 0, 958069268073794201ull},
      {TicketUc::kHybComb, 2, 6956380426347710555ull},
      {TicketUc::kSharded, 0, 13457793468213473549ull},
      {TicketUc::kSharded, 2, 11879188799336340886ull},
  };
  for (const TicketGold& g : gold) {
    EXPECT_EQ(ticket_paths_fp(g.kind, g.max_inflight), g.fp)
        << static_cast<int>(g.kind) << " inflight " << g.max_inflight;
  }
}

// ---------------------------------------------------------------------------
// Poll elision (docs/ENGINE.md): a sleeping poller's polls are applied in
// bulk when its line is written, so for every spinning construction the
// run entries and histories must be byte-identical with elision on and off.
// Only the engine block, which counts the host's work, may differ. The
// unelided reference is the production one: a tracer (run entries) or a
// perturber (histories) keeps every poller awake.
// ---------------------------------------------------------------------------

struct Entry {
  std::string body;  ///< the run entry without its engine and trace blocks
  std::uint64_t sleeps = 0;
};

Entry first_entry(obs::MetricsRegistry& reg) {
  const obs::JsonValue& run = reg.root()["runs"].items().at(0);
  obs::JsonValue e = obs::JsonValue::object();
  for (const auto& [key, value] : run.members()) {
    if (key != "trace") e[key] = value;
  }
  Entry out;
  out.sleeps = e["machine"]["engine"]["sleeps"].as_uint();
  e["machine"]["engine"] = obs::JsonValue();
  out.body = e.dump();
  return out;
}

/// Points `obs` at `sink` when `traced`; a traced run never sleeps.
void trace_into(harness::RunObs& obs, sim::Tracer* sink, bool traced) {
  if (!traced) return;
  obs.trace = sink;
  obs.trace_max_events = 1024;
}

Entry counter_entry(harness::Approach a, std::uint32_t threads,
                    bool traced) {
  obs::MetricsRegistry reg;
  reg.stamp("elision", 0, nullptr);
  sim::Tracer sink;
  harness::RunCfg cfg = fingerprint_cfg(threads, &reg);
  trace_into(cfg.obs, &sink, traced);
  harness::run_counter(cfg, a);
  return first_entry(reg);
}

TEST(PollElision, CounterRunEntriesMatchUnelided) {
  using harness::Approach;
  for (const Approach a :
       {Approach::kShmServer, Approach::kCcSynch, Approach::kHybComb,
        Approach::kMcsLock, Approach::kClhLock, Approach::kTicketLock,
        Approach::kTtasLock}) {
    for (const std::uint32_t threads : {4u, 12u}) {
      SCOPED_TRACE(std::string(harness::approach_name(a)) + " @ " +
                   std::to_string(threads));
      const Entry off = counter_entry(a, threads, true);
      const Entry on = counter_entry(a, threads, false);
      EXPECT_EQ(on.body, off.body);
      EXPECT_EQ(off.sleeps, 0u);
      EXPECT_GT(on.sleeps, 0u);
    }
  }
}

TEST(PollElision, ServiceRunEntriesMatchUnelided) {
  using harness::Approach;
  for (const Approach a :
       {Approach::kShmServer, Approach::kCcSynch, Approach::kHybComb}) {
    for (const harness::ArrivalModel arrival :
         {harness::ArrivalModel::kPoisson, harness::ArrivalModel::kMmpp}) {
      SCOPED_TRACE(harness::approach_name(a));
      Entry e[2];  // [0] traced (unelided), [1] untraced (elided)
      for (const bool elide : {false, true}) {
        obs::MetricsRegistry reg;
        reg.stamp("elision", 0, nullptr);
        sim::Tracer sink;
        harness::ServiceCfg cfg;
        cfg.base = fingerprint_cfg(0, &reg);
        cfg.base.telemetry_window = 7'000;  // ticks land inside spins
        trace_into(cfg.base.obs, &sink, !elide);
        cfg.sessions = 6;
        cfg.offered_mops = 6.0;
        cfg.arrival = arrival;
        harness::run_service(cfg, a);
        e[elide] = first_entry(reg);
      }
      EXPECT_EQ(e[1].body, e[0].body);
      EXPECT_EQ(e[0].sleeps, 0u);
      EXPECT_GT(e[1].sleeps, 0u);
    }
  }
}

/// Adds no delay; installing any perturber keeps every poller awake.
struct ZeroPerturber final : sim::Perturber {
  sim::Cycle resume_delay(std::uint32_t, sim::Cycle) override { return 0; }
  sim::Cycle point_delay(std::uint32_t, std::uint32_t, const char*,
                         sim::Cycle) override {
    return 0;
  }
};

TEST(PollElision, RecordedHistoriesMatchUnelided) {
  using harness::Construction;
  for (std::uint32_t c = 0; c < harness::kNumConstructions; ++c) {
    for (const harness::Object obj :
         {harness::Object::kCounter, harness::Object::kQueue}) {
      harness::RecordCfg cfg;
      cfg.params = arch::MachineParams::tilegx_small(4, 4);
      cfg.construction = static_cast<Construction>(c);
      cfg.object = obj;
      cfg.threads = 6;
      cfg.ops_each = 40;
      cfg.shards = 3;
      SCOPED_TRACE(c);
      ZeroPerturber awake;
      const harness::RecordResult off = harness::record_history(cfg, &awake);
      const harness::RecordResult on = harness::record_history(cfg);
      ASSERT_TRUE(off.completed);
      ASSERT_EQ(on.history.size(), off.history.size());
      for (std::size_t i = 0; i < off.history.size(); ++i) {
        const harness::OpRecord& a = off.history[i];
        const harness::OpRecord& b = on.history[i];
        EXPECT_TRUE(a.thread == b.thread && a.kind == b.kind &&
                    a.arg == b.arg && a.ret == b.ret &&
                    a.invoke == b.invoke && a.response == b.response &&
                    a.obj == b.obj)
            << "record " << i;
      }
      EXPECT_EQ(on.end_time, off.end_time);
      EXPECT_EQ(on.completed, off.completed);
    }
  }
}

}  // namespace
}  // namespace hmps
