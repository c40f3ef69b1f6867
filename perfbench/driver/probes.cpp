#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/coherence.hpp"
#include "arch/machine.hpp"
#include "arch/noc.hpp"
#include "arch/topology.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

namespace {

using hmps::arch::MachineParams;
using hmps::sim::Cycle;

/// One timed batch: host seconds, units of work done, and the engine
/// events and coherence accesses the batch's machine executed.
struct Batch {
  double seconds = 0;
  double units = 0;
  double events = 0;
  double accesses = 0;
};

struct Probe {
  double inclusive_ns = 0;
  double events_per_unit = 0;
  double accesses_per_unit = 0;
};

/// Runs `batch` until `budget_s` is spent (at least 3 times) and returns
/// the median ns per unit; the per-unit counts are the same in every batch.
Probe measure(HostSpans& spans, HostSpans::Id parent, const char* name,
              double budget_s, const std::function<Batch()>& batch) {
  const HostSpans::Id id = spans.begin(name, "probe", parent);
  const Clock::time_point t0 = Clock::now();
  std::vector<double> ns;
  Batch last;
  while (ns.size() < 3 || seconds_since(t0) < budget_s) {
    last = batch();
    ns.push_back(last.seconds * 1e9 / last.units);
  }
  spans.end(id);
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return Probe{ns[ns.size() / 2], last.events / last.units,
               last.accesses / last.units};
}

double accesses_of(hmps::arch::Machine& m) {
  const auto& c = m.coherence().counters();
  return static_cast<double>(c.hits + c.rmr_reads + c.rmr_writes + c.atomics);
}

// 32 self-rescheduling callbacks, so the queue holds about as many events
// as a simulated 36-core machine does (see sim.peak_depth).
struct Tick {
  hmps::sim::Scheduler* s;
  std::uint64_t* left;
  void operator()() const {
    if (*left > 0) {
      --*left;
      s->at(s->now() + 32, *this);
    }
  }
};

Batch bare_events() {
  constexpr std::uint64_t kN = 200'000;
  hmps::sim::Scheduler s;
  std::uint64_t left = kN;
  const Clock::time_point t0 = Clock::now();
  for (Cycle i = 0; i < 32; ++i) s.at(i, Tick{&s, &left});
  s.run();
  const double sec = seconds_since(t0);
  const double ev = static_cast<double>(s.engine_counters().executed);
  return Batch{sec, ev, ev, 0};
}

// Two fibers waiting on interleaved cycles: every wait parks the fiber and
// resumes the other one, so each executed event is a resume plus a switch.
Batch fiber_resumes() {
  constexpr std::uint64_t kN = 100'000;
  hmps::sim::Scheduler s;
  for (Cycle phase : {Cycle{1}, Cycle{2}}) {
    s.spawn([&s, phase] {
      for (std::uint64_t i = 1; i <= kN; ++i) s.wait_until(2 * i + phase);
    });
  }
  const Clock::time_point t0 = Clock::now();
  s.run();
  const double sec = seconds_since(t0);
  const double ev = static_cast<double>(s.engine_counters().executed);
  return Batch{sec, ev, ev, 0};
}

// A simulated spin loop on one fiber: `while (load(flag) != v) cpu_relax();`
Batch spin_iterations() {
  constexpr std::uint64_t kN = 100'000;
  hmps::rt::SimExecutor ex(MachineParams::tilegx36(), 1);
  std::atomic<std::uint64_t> flag{0};
  ex.add_thread([&flag](hmps::rt::SimCtx& ctx) {
    for (std::uint64_t i = 0; i < kN; ++i) {
      (void)ctx.load(&flag);
      ctx.cpu_relax();
    }
  });
  const Clock::time_point t0 = Clock::now();
  ex.run_until(hmps::sim::kCycleMax - 1);
  const double sec = seconds_since(t0);
  return Batch{sec, static_cast<double>(kN),
               static_cast<double>(ex.sched().engine_counters().executed),
               accesses_of(ex.machine())};
}

// Reads by one core of one line it already holds: the local hit that most
// simulated loads are (spin loops re-reading a flag).
Batch coherence_hits() {
  constexpr std::uint64_t kN = 300'000;
  const MachineParams p = MachineParams::tilegx36();
  hmps::arch::MeshTopology topo(p);
  hmps::arch::CoherenceModel coh(p, topo);
  coh.read(3, 0x10000, 0);
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 1; i <= kN; ++i) coh.read(3, 0x10000, i);
  const double sec = seconds_since(t0);
  return Batch{sec, static_cast<double>(kN), 0, static_cast<double>(kN)};
}

// Reads, writes and fetch-and-adds from all 36 cores over 64 lines.
Batch coherence_accesses() {
  constexpr std::uint64_t kN = 300'000;
  const MachineParams p = MachineParams::tilegx36();
  hmps::arch::MeshTopology topo(p);
  hmps::arch::CoherenceModel coh(p, topo);
  hmps::sim::Xoshiro256 rng(7);
  std::vector<std::uint32_t> pick(kN);
  for (auto& x : pick) x = static_cast<std::uint32_t>(rng.below(36 * 64 * 4));
  Cycle now = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < kN; ++i) {
    const std::uint32_t core = pick[i] % 36;
    const std::uint64_t addr = 0x10000 + (pick[i] / 36 % 64) * 64;
    switch (pick[i] / (36 * 64)) {
      case 0: coh.write(core, addr, now); break;
      case 1:
        coh.atomic(core, addr, now, hmps::arch::AtomicKind::kFaa);
        break;
      default: coh.read(core, addr, now); break;
    }
    now += 4;
  }
  const double sec = seconds_since(t0);
  return Batch{sec, static_cast<double>(kN), 0, static_cast<double>(kN)};
}

// Core 1 streams 4-word messages to core 0's queue 0 over the UDN.
Batch udn_words() {
  constexpr std::uint64_t kMsgs = 50'000;
  constexpr std::size_t kWords = 4;
  hmps::arch::Machine m(MachineParams::tilegx36());
  m.sched().spawn([&m] {
    std::uint64_t w[kWords] = {1, 2, 3, 4};
    for (std::uint64_t i = 0; i < kMsgs; ++i) {
      w[0] = i;
      m.udn().send(1, 0, 0, w, kWords);
      m.sched().wait_for(kWords);
    }
  });
  m.sched().spawn([&m] {
    std::uint64_t out[kWords];
    for (std::uint64_t i = 0; i < kMsgs; ++i) {
      m.udn().receive(0, 0, out, kWords);
    }
  });
  const Clock::time_point t0 = Clock::now();
  m.sched().run();
  const double sec = seconds_since(t0);
  const double words = static_cast<double>(m.udn().counters().words);
  return Batch{sec, words,
               static_cast<double>(m.sched().engine_counters().executed), 0};
}

// Random source/destination pairs routed over a 16x16 mesh with the link
// contention model on (each route walks and reserves its XY links).
Batch noc_messages() {
  constexpr std::uint64_t kN = 200'000;
  MachineParams p = MachineParams::tilegx36();
  p.mesh_w = 16;
  p.mesh_h = 16;
  p.model_link_contention = true;
  hmps::arch::MeshTopology topo(p);
  hmps::arch::NocModel noc(p, topo);
  hmps::sim::Xoshiro256 rng(11);
  std::vector<std::uint32_t> pairs(2 * kN);
  for (auto& x : pairs) x = static_cast<std::uint32_t>(rng.below(256));
  Cycle t = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < kN; ++i) {
    noc.route(pairs[2 * i], pairs[2 * i + 1], t, 2);
    t += 2;
  }
  const double sec = seconds_since(t0);
  return Batch{sec, static_cast<double>(kN), 0, 0};
}

// Core 1 pushes 4-word frames into a Virtual-Link channel homed at core 0,
// which pops them.
Batch vlink_words() {
  constexpr std::uint64_t kFrames = 50'000;
  constexpr std::size_t kWords = 4;
  hmps::arch::Machine m(MachineParams::tilegx36());
  const auto ch = m.vlink().create_channel(0, 64);
  m.sched().spawn([&m, ch] {
    std::uint64_t w[kWords] = {1, 2, 3, 4};
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      w[0] = i;
      m.vlink().push(1, ch, w, kWords);
      m.sched().wait_for(kWords);
    }
  });
  m.sched().spawn([&m, ch] {
    std::uint64_t out[kWords];
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      m.vlink().pop(0, ch, out, kWords);
    }
  });
  const Clock::time_point t0 = Clock::now();
  m.sched().run();
  const double sec = seconds_since(t0);
  const double words = static_cast<double>(m.vlink().counters().words);
  return Batch{sec, words,
               static_cast<double>(m.sched().engine_counters().executed), 0};
}

}  // namespace

UnitCosts run_probes(HostSpans& spans, HostSpans::Id parent, double budget_s) {
  const double each = budget_s / 8;
  UnitCosts u;
  u.event_ns = measure(spans, parent, "sim.event", each, bare_events)
                   .inclusive_ns;
  u.fiber_resume_ns =
      measure(spans, parent, "sim.fiber_resume", each, fiber_resumes)
          .inclusive_ns;
  u.access_ns =
      measure(spans, parent, "arch.coherence.access", each, coherence_accesses)
          .inclusive_ns;
  u.hit_ns =
      measure(spans, parent, "arch.coherence.hit", each, coherence_hits)
          .inclusive_ns;
  u.noc_msg_ns =
      measure(spans, parent, "arch.noc.route", each, noc_messages).inclusive_ns;

  // Self cost: what is left after the engine events and coherence accesses
  // the probe's own machine executed, priced at the probes above (the
  // probes below touch only lines their core already holds).
  auto self = [&u](const Probe& p) {
    return p.inclusive_ns - p.events_per_unit * u.fiber_resume_ns -
           p.accesses_per_unit * u.hit_ns;
  };
  const Probe spin =
      measure(spans, parent, "runtime.spin_iter", each, spin_iterations);
  u.spin_iter_ns = spin.inclusive_ns;
  u.spin_self_ns = self(spin);
  const Probe udn = measure(spans, parent, "arch.udn.word", each, udn_words);
  u.udn_word_ns = udn.inclusive_ns;
  u.udn_self_ns = self(udn);
  const Probe vl = measure(spans, parent, "arch.vlink.word", each, vlink_words);
  u.vlink_word_ns = vl.inclusive_ns;
  u.vlink_self_ns = self(vl);
  return u;
}

}  // namespace perfbench
