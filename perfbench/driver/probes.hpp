// Layer unit-cost probes: small, fixed loops that call one layer's public
// functions and time them on the host clock. Each probe runs in batches
// until its time budget is spent and reports the median ns per unit over
// the batches.
//
// "Inclusive" costs are what the probe measured per unit. "Self" costs
// subtract the work the probe's own machine did in the layers below it
// (engine events at the measured resume cost, coherence accesses at the
// measured access cost), so per-layer host-time estimates do not count the
// same nanoseconds twice.
#pragma once

#include "spans.hpp"

namespace perfbench {

struct UnitCosts {
  double event_ns = 0;         ///< Scheduler::at + run, one bare callback
  double fiber_resume_ns = 0;  ///< one fiber resume: event + context switch
  double spin_iter_ns = 0;     ///< SimCtx load + cpu_relax on one fiber
  double spin_self_ns = 0;     ///< ... minus its coherence reads and events
  double access_ns = 0;        ///< CoherenceModel read/write/atomic mix
  double hit_ns = 0;           ///< CoherenceModel::read of a held line
  double udn_word_ns = 0;      ///< UdnModel send + receive, per word
  double udn_self_ns = 0;      ///< ... minus its engine events
  double noc_msg_ns = 0;       ///< NocModel::route, per message
  double vlink_word_ns = 0;    ///< VlinkFabric push + pop, per word
  double vlink_self_ns = 0;    ///< ... minus its engine events
};

/// Runs every probe, spending about `budget_s` host seconds in total, and
/// records one span per probe under `parent`.
UnitCosts run_probes(HostSpans& spans, HostSpans::Id parent, double budget_s);

}  // namespace perfbench
