// The benchmark's three workloads, each a fixed list of harness runs driven
// through the public entry points (harness::run_counter, run_service,
// run_service_sharded) plus the bounded histories its correctness gate
// records. Everything is a pure function of (workload name, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/record.hpp"
#include "harness/workload.hpp"

namespace perfbench {

enum class Kind { kClosed, kOpen };

struct RunSpec {
  std::string label;         ///< unique row name, e.g. "shm-server/t35"
  std::string construction;  ///< host-share key (see kConstructionKeys)
  Kind kind = Kind::kClosed;
  hmps::sim::Cycle simulated = 0;  ///< warmup + measurement cycles
  hmps::sim::Cycle measured = 0;   ///< measurement cycles (account total)
  std::uint32_t sessions = 0;      ///< open loop: client sessions
  std::uint32_t servers = 1;       ///< servicing cores: [0, servers)
  bool sharded = false;
  /// Runs once; `telemetry_window` > 0 turns on windowed sampling.
  std::function<hmps::harness::RunResult(const hmps::harness::RunObs&,
                                         hmps::sim::Cycle telemetry_window)>
      run;
};

struct Workload {
  std::string name;
  std::vector<RunSpec> runs;
  std::vector<hmps::harness::RecordCfg> gates;  ///< histories to check
  bool paper_ratios = false;  ///< closed_counter: report paper_err_pct
};

/// Host-share keys, in output order: the union over all workloads so every
/// workload prints the same per-layer metric names.
inline const std::vector<std::string> kConstructionKeys = {
    "mp-server", "hybcomb", "shm-server", "cc-synch",
    "vlink-server", "mp-fleet-1", "mp-fleet-8"};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

}  // namespace perfbench
