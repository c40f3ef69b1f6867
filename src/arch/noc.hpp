// Optional link-level NoC contention model for the message network.
//
// The default UDN timing charges wire latency plus destination-port
// serialization, which captures the paper's effects. This model adds
// per-link occupancy along the XY (dimension-ordered) route — a wormhole
// approximation where each hop's link is reserved for the message's flits —
// so heavy many-to-one traffic also queues inside the mesh, not just at the
// receiver. Enable with MachineParams::model_link_contention.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "sim/fault.hpp"
#include "sim/types.hpp"

namespace hmps::arch {

using sim::Cycle;
using sim::Tid;

class NocModel {
 public:
  NocModel(const MachineParams& p, const MeshTopology& topo);

  /// Arrival time at `dst` of an `words`-word message injected at `src` at
  /// `inject_time`, after queueing on every link of the XY route. The
  /// route is walked from the endpoints' coordinates, X hops first, so the
  /// model holds no per-pair state: only the link reservation array.
  Cycle route(Tid src, Tid dst, Cycle inject_time, std::uint32_t words);

  /// Attaches the machine's fault injector; when active, every hop may take
  /// extra jitter cycles (sim/fault.hpp). Neutral when null or inactive.
  void attach_faults(sim::FaultInjector* f) { faults_ = f; }

  struct Counters {
    std::uint64_t messages = 0;
    std::uint64_t hops = 0;
    Cycle link_wait = 0;  ///< total cycles spent queued on busy links
  };
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// Optional per-link accumulators behind the telemetry heatmap
  /// (docs/OBSERVABILITY.md): hold (flit occupancy) and wait cycles per
  /// directed link, same indexing as the reservation array. Off by default
  /// — enabling only observes, never changes a delivery time.
  void enable_link_stats() {
    if (link_busy_.empty()) {
      link_busy_.assign(busy_.size(), 0);
      link_wait_.assign(busy_.size(), 0);
    }
  }
  bool link_stats_enabled() const { return !link_busy_.empty(); }
  std::size_t n_links() const { return busy_.size(); }
  /// Per-link hold cycles (message flits occupying the link). Empty unless
  /// enable_link_stats() was called.
  const std::vector<Cycle>& link_busy() const { return link_busy_; }
  /// Per-link queueing cycles (messages waiting for the link). Empty unless
  /// enable_link_stats() was called.
  const std::vector<Cycle>& link_wait() const { return link_wait_; }
  std::uint32_t mesh_w() const { return w_; }
  std::uint32_t mesh_h() const { return h_; }

  /// Extra latency charged on inter-chip links, per link index; empty on a
  /// single-chip machine (arch/params.hpp multi-chip block).
  const std::vector<Cycle>& link_extra() const { return link_extra_; }

  // Directions out of each router; link index = tile * kDirs + dir.
  enum Dir : std::uint32_t { kEast, kWest, kNorth, kSouth, kDirs };

 private:
  const MachineParams& p_;
  const MeshTopology& topo_;
  sim::FaultInjector* faults_ = nullptr;
  std::uint32_t w_, h_;
  std::vector<Cycle> busy_;  ///< per-link reservation horizon (per-machine)
  Counters counters_;
  std::vector<Cycle> link_busy_;  ///< per-link hold cycles (telemetry)
  std::vector<Cycle> link_wait_;  ///< per-link wait cycles (telemetry)
  std::vector<Cycle> link_extra_; ///< per-link inter-chip surcharge (empty
                                  ///< unless chips() > 1)
};

}  // namespace hmps::arch
