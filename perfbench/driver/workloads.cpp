#include "workloads.hpp"

#include "harness/service.hpp"

namespace perfbench {

namespace {

using hmps::harness::Approach;
using hmps::harness::Construction;
using hmps::harness::Object;
using hmps::harness::RecordCfg;
using hmps::harness::RunCfg;
using hmps::harness::RunObs;
using hmps::harness::RunResult;
using hmps::harness::ServiceCfg;
using hmps::sim::Cycle;

struct Named {
  Approach approach;
  Construction construction;
  const char* key;
};

constexpr Named kMp{Approach::kMpServer, Construction::kMpServer, "mp-server"};
constexpr Named kHyb{Approach::kHybComb, Construction::kHybComb, "hybcomb"};
constexpr Named kShm{Approach::kShmServer, Construction::kShmServer,
                     "shm-server"};
constexpr Named kCc{Approach::kCcSynch, Construction::kCcSynch, "cc-synch"};
constexpr Named kVl{Approach::kVlinkServer, Construction::kVlink,
                    "vlink-server"};

RecordCfg gate_cfg(const hmps::arch::MachineParams& m, std::uint64_t seed,
                   Construction c, Object o) {
  RecordCfg g;
  g.params = m;
  g.seed = seed;
  g.construction = c;
  g.object = o;
  g.threads = 6;
  g.ops_each = 40;
  return g;
}

// Fig. 3a closed loop on the 6x6 TILE-Gx model, counter object.
Workload closed_counter(std::uint64_t seed) {
  Workload w;
  w.name = "closed_counter";
  w.paper_ratios = true;
  const RunCfg base = [&] {
    RunCfg c;
    c.seed = seed;
    return c;
  }();
  for (const Named& n : {kMp, kHyb, kShm, kCc, kVl}) {
    w.gates.push_back(
        gate_cfg(base.machine, seed, n.construction, Object::kCounter));
  }
  for (std::uint32_t t : {1u, 10u, 20u, 35u}) {
    for (const Named& n : {kMp, kHyb, kShm, kCc, kVl}) {
      RunSpec r;
      r.label = std::string(n.key) + "/t" + std::to_string(t);
      r.construction = n.key;
      r.kind = Kind::kClosed;
      r.measured = base.window * base.reps;
      r.simulated = base.warmup + r.measured;
      const Approach a = n.approach;
      r.run = [base, t, a](const RunObs& obs, Cycle tel) {
        RunCfg c = base;
        c.app_threads = t;
        c.telemetry_window = tel;
        c.obs = obs;
        return hmps::harness::run_counter(c, a);
      };
      w.runs.push_back(std::move(r));
    }
  }
  return w;
}

// Bursty open loop into a Zipf MS-queue farm with drop-oldest shedding.
Workload open_queue_burst(std::uint64_t seed) {
  Workload w;
  w.name = "open_queue_burst";
  ServiceCfg base;
  base.base.seed = seed;
  base.base.reps = 30;  // one 6M-cycle window: ~1000 bursts per run
  base.sessions = 4;
  base.objects = 4;
  base.zipf_s = 0.9;
  base.arrival = hmps::harness::ArrivalModel::kMmpp;
  base.burst = 8.0;
  base.dwell_quiet = 5'000;
  base.dwell_burst = 1'250;
  base.queue_cap = 64;
  base.shed = hmps::harness::ShedPolicy::kDropOldest;
  base.queue_object = true;
  for (const Named& n : {kMp, kHyb, kShm, kVl}) {
    w.gates.push_back(
        gate_cfg(base.base.machine, seed, n.construction, Object::kQueue));
  }
  for (double load : {4.0, 24.0}) {
    for (const Named& n : {kMp, kHyb, kShm, kVl}) {
      RunSpec r;
      r.label = std::string(n.key) + "/o" + std::to_string(int(load));
      r.construction = n.key;
      r.kind = Kind::kOpen;
      r.measured = base.base.window * base.base.reps;
      r.simulated = base.base.warmup + r.measured;
      r.sessions = base.sessions;
      const Approach a = n.approach;
      r.run = [base, load, a](const RunObs& obs, Cycle tel) {
        ServiceCfg c = base;
        c.offered_mops = load;
        c.base.telemetry_window = tel;
        c.base.obs = obs;
        return hmps::harness::run_service(c, a);
      };
      w.runs.push_back(std::move(r));
    }
  }
  return w;
}

// MP-SERVER fleets on a 16x16 mesh with the NoC link model on.
Workload sharded_mesh(std::uint64_t seed) {
  Workload w;
  w.name = "sharded_mesh";
  ServiceCfg base;
  base.base.seed = seed;
  base.base.warmup = 60'000;
  base.base.window = 400'000;
  base.base.reps = 1;
  base.base.machine.mesh_w = 16;
  base.base.machine.mesh_h = 16;
  base.base.machine.model_link_contention = true;
  base.sessions = 40;
  base.objects = 64;
  base.zipf_s = 0.0;
  base.arrival = hmps::harness::ArrivalModel::kPoisson;
  base.offered_mops = 384;
  for (std::uint32_t shards : {1u, 8u}) {
    RecordCfg g = gate_cfg(base.base.machine, seed, Construction::kSharded,
                           Object::kCounter);
    g.shards = shards;
    w.gates.push_back(g);

    RunSpec r;
    r.construction = "mp-fleet-" + std::to_string(shards);
    r.label = r.construction + "/o384";
    r.kind = Kind::kOpen;
    r.sharded = true;
    r.servers = shards;
    r.measured = base.base.window * base.base.reps;
    r.simulated = base.base.warmup + r.measured;
    r.sessions = base.sessions;
    r.run = [base, shards](const RunObs& obs, Cycle tel) {
      ServiceCfg c = base;
      c.shards = shards;
      c.base.telemetry_window = tel;
      c.base.obs = obs;
      return hmps::harness::run_service_sharded(c);
    };
    w.runs.push_back(std::move(r));
  }
  return w;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "closed_counter") return closed_counter(seed);
  if (name == "open_queue_burst") return open_queue_burst(seed);
  if (name == "sharded_mesh") return sharded_mesh(seed);
  return std::nullopt;
}

}  // namespace perfbench
