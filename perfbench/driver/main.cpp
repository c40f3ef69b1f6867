// Benchmark driver: runs one workload in this process and prints one JSON
// line of raw measurements for perfbench/run.py to aggregate.
//
//   perfbench_driver --workload NAME --seed N --seconds S [--trace 0|1]
//                    [--out DIR]
//
// Order of work: the correctness gate (bounded histories through
// harness::record_history, checked by check_counter_fast/check_queue_fast),
// one untimed setup pass (its wall time is setup_s), then timed passes
// until S seconds are spent. Every pass is checked (cycle-account sums,
// arrival conservation, fleet served counts) and must reproduce the setup
// pass's metrics artifact bit for bit. With --trace 1 the timed passes
// alternate untraced and traced (tracer + telemetry on), the unit probes
// run, and the host spans and the simulated trace are written to DIR.
//
// Exit codes: 0 ok, 1 a correctness or determinism check failed, 2 usage.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/history.hpp"
#include "harness/record.hpp"
#include "obs/cycle_account.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hmps::obs::CycleAccount;
using hmps::obs::JsonValue;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "{closed_counter|open_queue_burst|sharded_mesh} --seed N "
               "--seconds S [--trace 0|1] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("missing --workload");
  return a;
}

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  std::printf("{\"ok\": false, \"error\": \"%s\"}\n",
              hmps::obs::json_escape(what).c_str());
  std::exit(1);
}

// ---- JSON access over harness run entries ----

const JsonValue& at(const JsonValue& v, const char* key) {
  const JsonValue* p = v.find(key);
  if (p == nullptr) fail(std::string("run entry lacks \"") + key + "\"");
  return *p;
}
std::uint64_t u64(const JsonValue& v, const char* a, const char* b) {
  return at(at(v, a), b).as_uint();
}
double f64(const JsonValue& v, const char* a, const char* b) {
  return at(at(v, a), b).as_double();
}

constexpr int kBuckets = CycleAccount::kNumBuckets;
const char* bucket(int b) {
  return CycleAccount::bucket_name(static_cast<CycleAccount::Bucket>(b));
}

// ---- determinism fingerprint ----

// FNV-1a over a compact serialization. `observed_only` drops what turning
// tracing and telemetry on legitimately adds (their blocks, and the engine
// events of telemetry ticks), leaving every simulated outcome.
void serialize(const JsonValue& v, bool observed_only, std::string& out) {
  if (!v.is_object()) {
    std::ostringstream os;
    v.write(os, -1);
    out += os.str();
    return;
  }
  out += '{';
  for (const auto& [k, m] : v.members()) {
    if (observed_only &&
        (k == "telemetry" || k == "trace" || k == "engine")) {
      continue;
    }
    out += k;
    out += ':';
    serialize(m, observed_only, out);
    out += ',';
  }
  out += '}';
}

std::uint64_t fingerprint(const JsonValue& runs, bool observed_only) {
  std::string s;
  for (const JsonValue& r : runs.items()) serialize(r, observed_only, s);
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- one pass over the workload's runs ----

constexpr hmps::sim::Cycle kTelemetryWindow = 50'000;  ///< traced passes

struct Pass {
  double host_s = 0;
  std::vector<double> run_s;  ///< per RunSpec, host seconds
  JsonValue runs;             ///< the pass's hmps-metrics-v2 run entries
  std::vector<hmps::harness::RunResult> results;
};

Pass run_pass(const Workload& w, HostSpans& spans, const char* name,
              hmps::sim::Tracer* tracer) {
  hmps::obs::MetricsRegistry reg;
  Pass p;
  p.run_s.resize(w.runs.size());
  const HostSpans::Id pass_id = spans.begin(name, "pass");
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    const RunSpec& spec = w.runs[i];
    hmps::harness::RunObs obs;
    obs.metrics = &reg;
    obs.label = spec.label.c_str();
    if (tracer != nullptr) {
      obs.trace = tracer;
      obs.pid = static_cast<std::uint32_t>(i + 1);
      obs.trace_max_events = 4'000;
    }
    const HostSpans::Id id = spans.begin(spec.label, "run", pass_id);
    p.results.push_back(
        spec.run(obs, tracer != nullptr ? kTelemetryWindow : 0));
    p.run_s[i] = spans.end(id);
  }
  p.host_s = spans.end(pass_id);
  p.runs = reg.root()["runs"];
  return p;
}

// ---- per-run checks ----

void check_pass(const Workload& w, const Pass& p, bool traced) {
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    const RunSpec& spec = w.runs[i];
    const JsonValue& run = p.runs.items()[i];
    const std::string who = w.name + " " + spec.label + ": ";

    // Cycle accounts: buckets sum to the total, and the total covers the
    // measured window. The window's ends land on event times, so a total
    // may miss or overrun the nominal window by the last charge (a few
    // cycles); 1% is far beyond that and far below a lost bucket.
    const JsonValue& accts = at(run, "cycle_accounts");
    for (std::size_t c = 0; c < accts.size(); ++c) {
      const JsonValue& a = accts.items()[c];
      std::uint64_t sum = 0;
      for (int b = 0; b < kBuckets; ++b) sum += at(a, bucket(b)).as_uint();
      const std::uint64_t total = at(a, "total").as_uint();
      const std::uint64_t off =
          total > spec.measured ? total - spec.measured : spec.measured - total;
      if (sum != total || off * 100 > spec.measured) {
        fail(who + "cycle account of core " + std::to_string(c) + " sums to " +
             std::to_string(sum) + ", total " + std::to_string(total) +
             ", measured window " + std::to_string(spec.measured));
      }
    }

    std::uint64_t samples = 0;
    if (spec.kind == Kind::kClosed) {
      samples = u64(run, "results", "total_ops");
    } else {
      const JsonValue& svc = at(run, "service");
      samples = u64(svc, "sojourn", "count");
      const std::uint64_t offered = at(svc, "offered").as_uint();
      const std::uint64_t admitted = at(svc, "arrivals").as_uint();
      const std::uint64_t shed = at(svc, "shed_ops").as_uint();
      const std::uint64_t done = at(svc, "completed").as_uint();
      if (at(svc, "shed_policy").as_string() == "drop-newest") {
        // Known harness boundary defect: an arrival landing exactly on the
        // window's first cycle counts as generated, but its shed (if the
        // queue is full) happens before the harness snapshots the shed
        // counter. Arrival times are strictly increasing, so at most one
        // arrival can be off this way.
        if (offered < admitted + shed || offered > admitted + shed + 1) {
          fail(who + "generated " + std::to_string(offered) +
               " != admitted " + std::to_string(admitted) + " + shed " +
               std::to_string(shed));
        }
      } else {
        // Drop-oldest admits every arrival and sheds by evicting a queued
        // one, so everything admitted is completed, evicted, or still
        // queued or in flight — plus what warmup left queued.
        const std::uint64_t backlog = at(svc, "sessions").as_uint() *
                                      (at(svc, "queue_cap").as_uint() + 1);
        if (offered != admitted || done + shed > admitted + backlog) {
          fail(who + "generated " + std::to_string(offered) + ", admitted " +
               std::to_string(admitted) + ", completed " +
               std::to_string(done) + ", shed " + std::to_string(shed));
        }
      }
      if (spec.sharded) {
        // The artifact carries the fleet's summed served count. Served and
        // completed differ only by requests in flight at the window edges,
        // at most one per session.
        const std::uint64_t served = u64(run, "sync_stats", "served");
        const std::uint64_t gap = served > done ? served - done : done - served;
        if (served == 0 || gap > spec.sessions) {
          fail(who + "fleet served " + std::to_string(served) +
               " vs completed " + std::to_string(done));
        }
      }
    }
    if (samples < 1000) {
      fail(who + "only " + std::to_string(samples) + " latency samples");
    }

    if (traced) {
      // Telemetry windows telescope to the run totals, bucket by bucket.
      const JsonValue& tel = at(run, "telemetry");
      for (int b = 0; b < kBuckets; ++b) {
        std::int64_t win = 0, win0 = 0;
        for (const JsonValue& x : at(at(tel, "buckets"), bucket(b)).items()) {
          win += x.as_int();
        }
        for (const JsonValue& x :
             at(at(tel, "core0_buckets"), bucket(b)).items()) {
          win0 += x.as_int();
        }
        std::uint64_t all = 0;
        for (const JsonValue& a : accts.items()) {
          all += at(a, bucket(b)).as_uint();
        }
        const std::uint64_t core0 = at(accts.items()[0], bucket(b)).as_uint();
        if (win != static_cast<std::int64_t>(all) ||
            win0 != static_cast<std::int64_t>(core0)) {
          fail(who + "telemetry windows do not telescope for " + bucket(b));
        }
      }
      if (spec.kind == Kind::kOpen) {
        // The same boundary defect as above: a completion on exactly the
        // window's first cycle counts in the run total but lands before
        // telemetry starts its first window; at most one per session.
        std::uint64_t win = 0;
        for (const JsonValue& x : at(tel, "throughput").items()) {
          win += x.as_uint();
        }
        const std::uint64_t done = u64(run, "service", "completed");
        if (win > done || done - win > spec.sessions) {
          fail(who + "telemetry completions " + std::to_string(win) +
               " do not sum to the run total " + std::to_string(done));
        }
      }
    }
  }
}

// ---- correctness gate ----

std::size_t run_gate(const Workload& w, HostSpans& spans) {
  const HostSpans::Id gate = spans.begin("gate", "gate");
  for (const hmps::harness::RecordCfg& g : w.gates) {
    const std::string name = std::string(hmps::harness::to_string(
                                 g.construction)) +
                             "/" + hmps::harness::to_string(g.object) +
                             "/shards" + std::to_string(g.shards);
    const HostSpans::Id id = spans.begin(name, "gate", gate);
    const hmps::harness::RecordResult rec = hmps::harness::record_history(g);
    spans.end(id);
    if (!rec.completed) fail("gate " + name + ": history did not complete");
    const std::size_t expect =
        static_cast<std::size_t>(g.threads) * g.ops_each;
    if (rec.history.size() < expect) {
      fail("gate " + name + ": " + std::to_string(rec.history.size()) +
           " ops recorded, expected " + std::to_string(expect));
    }
    // Farm histories are checked object by object (OpRecord::obj).
    std::map<std::uint32_t, std::vector<hmps::harness::OpRecord>> by_obj;
    for (const hmps::harness::OpRecord& op : rec.history) {
      by_obj[op.obj].push_back(op);
    }
    for (const auto& [obj, h] : by_obj) {
      const hmps::harness::CheckResult c =
          g.object == hmps::harness::Object::kQueue
              ? hmps::harness::check_queue_fast(h)
              : hmps::harness::check_counter_fast(h);
      if (!c.ok) {
        fail("gate " + name + " obj " + std::to_string(obj) + ": " + c.reason);
      }
    }
  }
  spans.end(gate);
  return w.gates.size();
}

// ---- metrics ----

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Ordered name -> value list, written as a JSON object.
using Metrics = std::vector<std::pair<std::string, double>>;

JsonValue to_json(const Metrics& m) {
  JsonValue j = JsonValue::object();
  for (const auto& [k, v] : m) j[k] = JsonValue(v);
  return j;
}

// Simulated end-to-end results of a pass (deterministic).
JsonValue end_to_end(const Workload& w, const Pass& p) {
  std::vector<double> mops, p50, p99;
  double ops = 0, generated = 0, shed = 0;
  JsonValue samples = JsonValue::object();
  std::map<std::string, double> peak;  // construction -> peak Mops/s
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    const RunSpec& spec = w.runs[i];
    const auto& r = p.results[i];
    const JsonValue& run = p.runs.items()[i];
    mops.push_back(r.mops);
    p50.push_back(r.lat_p50);
    p99.push_back(r.lat_p99);
    ops += static_cast<double>(r.total_ops);
    if (spec.kind == Kind::kOpen) {
      const JsonValue& svc = at(run, "service");
      generated += at(svc, "offered").as_double();
      shed += at(svc, "shed_ops").as_double();
      samples[spec.label] = JsonValue(u64(svc, "sojourn", "count"));
    } else {
      samples[spec.label] = JsonValue(r.total_ops);
    }
    peak[spec.construction] = std::max(peak[spec.construction], r.mops);
  }
  JsonValue j = JsonValue::object();
  j["sim_mops"] = JsonValue(geomean(mops));
  j["sim_p50_cycles"] = JsonValue(geomean(p50));
  j["sim_p99_cycles"] = JsonValue(geomean(p99));
  j["served_share"] = JsonValue(1.0 - ratio(shed, generated));
  j["ops"] = JsonValue(ops);
  j["samples"] = std::move(samples);
  if (w.paper_ratios) {
    // Paper (abstract, Fig. 3a): MP-SERVER reaches 4.3x SHM-SERVER's peak
    // counter throughput and HYBCOMB 2.5x CC-SYNCH's.
    const double mp_shm = ratio(peak["mp-server"], peak["shm-server"]);
    const double hyb_cc = ratio(peak["hybcomb"], peak["cc-synch"]);
    JsonValue paper = JsonValue::object();
    constexpr double kPaperMpShm = 4.3, kPaperHybCc = 2.5;
    paper["mp_over_shm"] = JsonValue(mp_shm);
    paper["mp_over_shm_paper"] = JsonValue(kPaperMpShm);
    paper["hyb_over_cc"] = JsonValue(hyb_cc);
    paper["hyb_over_cc_paper"] = JsonValue(kPaperHybCc);
    paper["err_pct"] = JsonValue(50.0 * (std::abs(mp_shm / kPaperMpShm - 1) +
                                         std::abs(hyb_cc / kPaperHybCc - 1)));
    j["paper"] = std::move(paper);
  }
  return j;
}

// Work counts of a pass, summed over its runs.
struct Counts {
  double ops = 0, serv_ops = 0;
  double events = 0, fast_forwards = 0, peak_depth = 0;
  double hits = 0, rmr = 0, atomics = 0, invalidations = 0, ctrl_wait = 0;
  double udn_words = 0, udn_blocks = 0;
  double noc_msgs = 0, noc_hops = 0, noc_wait = 0;
  double vl_words = 0, vl_pblocks = 0, vl_cwaits = 0;
  double comb_served = 0, tenures = 0, cas_attempts = 0, cas_failures = 0;
  double queue_delay_sum = 0, service_sum = 0, completed = 0;
  double serv[kBuckets] = {};  ///< servicing cores' cycle accounts
  // Whole-run estimates of the host work behind the layer estimates:
  // windowed counters scaled by simulated / measured cycles.
  double est_accesses = 0, est_hits = 0, est_spins = 0, est_udn_words = 0,
         est_noc_msgs = 0, est_vl_words = 0;
};

Counts count(const Workload& w, const Pass& p) {
  Counts c;
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    const RunSpec& spec = w.runs[i];
    const auto& r = p.results[i];
    const JsonValue& run = p.runs.items()[i];
    const JsonValue& m = at(run, "machine");
    c.ops += static_cast<double>(r.total_ops);
    c.serv_ops += r.serv_ops;
    c.events += f64(m, "engine", "executed");
    c.fast_forwards += f64(m, "engine", "fast_forwards");
    c.peak_depth = std::max(c.peak_depth, f64(m, "engine", "peak_depth"));
    const double acc = f64(m, "coherence", "hits") +
                       f64(m, "coherence", "rmr_reads") +
                       f64(m, "coherence", "rmr_writes") +
                       f64(m, "coherence", "atomics");
    c.hits += f64(m, "coherence", "hits");
    c.rmr +=
        f64(m, "coherence", "rmr_reads") + f64(m, "coherence", "rmr_writes");
    c.atomics += f64(m, "coherence", "atomics");
    c.invalidations += f64(m, "coherence", "invalidations");
    c.ctrl_wait += f64(m, "coherence", "ctrl_wait_total");
    c.udn_words += f64(m, "udn", "words");
    c.udn_blocks += f64(m, "udn", "sender_blocks");
    c.noc_msgs += f64(m, "noc", "messages");
    c.noc_hops += f64(m, "noc", "hops");
    c.noc_wait += f64(m, "noc", "link_wait");
    c.vl_words += f64(m, "vlink", "words");
    c.vl_pblocks += f64(m, "vlink", "producer_blocks");
    c.vl_cwaits += f64(m, "vlink", "consumer_waits");
    // Combining rounds exist only for the combiners; their served count
    // alone is what the rounds divide.
    if (f64(run, "sync_stats", "tenures") > 0) {
      c.comb_served += f64(run, "sync_stats", "served");
      c.tenures += f64(run, "sync_stats", "tenures");
    }
    c.cas_attempts += f64(run, "sync_stats", "cas_attempts");
    c.cas_failures += f64(run, "sync_stats", "cas_failures");
    const JsonValue& accts = at(run, "cycle_accounts");
    for (std::uint32_t s = 0; s < spec.servers; ++s) {
      for (int b = 0; b < kBuckets; ++b) {
        c.serv[b] += at(accts.items()[s], bucket(b)).as_double();
      }
    }
    double spin = 0;
    for (const JsonValue& a : accts.items()) {
      spin += at(a, bucket(CycleAccount::kSpin)).as_double();
    }
    const double scale = static_cast<double>(spec.simulated) /
                         static_cast<double>(spec.measured);
    // Closed-loop machine counters already cover the whole run; the open
    // loop resets them after warmup. Cycle accounts are always windowed.
    const double mscale = spec.kind == Kind::kClosed ? 1.0 : scale;
    c.est_spins += spin * scale;
    c.est_accesses += acc * mscale;
    c.est_hits += f64(m, "coherence", "hits") * mscale;
    c.est_udn_words += f64(m, "udn", "words") * mscale;
    c.est_noc_msgs += f64(m, "noc", "messages") * mscale;
    c.est_vl_words += f64(m, "vlink", "words") * mscale;
    if (spec.kind == Kind::kOpen) {
      const double done = static_cast<double>(r.total_ops);
      c.completed += done;
      c.queue_delay_sum += r.queue_delay_mean * done;
      c.service_sum += r.service_mean * done;
    } else {
      c.completed += static_cast<double>(r.total_ops);
      c.service_sum += r.lat_mean * static_cast<double>(r.total_ops);
    }
  }
  return c;
}

Metrics per_layer(const Workload& w, const Pass& ref,
                  const std::vector<double>& pass_s,
                  const std::vector<std::vector<double>>& run_s,
                  double traced_s, const UnitCosts& u) {
  const double host_s = mean(pass_s);
  const Counts c = count(w, ref);
  Metrics m;
  m.emplace_back("sim.events_per_op", ratio(c.events, c.ops));
  m.emplace_back("sim.fast_forwards_per_op", ratio(c.fast_forwards, c.ops));
  m.emplace_back("sim.peak_depth", c.peak_depth);
  m.emplace_back("sim.host_ns_per_event", ratio(host_s * 1e9, c.events));
  m.emplace_back("sim.unit_event_ns", u.event_ns);
  m.emplace_back("sim.unit_fiber_switch_ns", u.fiber_resume_ns);
  m.emplace_back("runtime.unit_spin_iter_ns", u.spin_iter_ns);
  m.emplace_back("arch.coherence.accesses_per_op",
                 ratio(c.hits + c.rmr + c.atomics, c.ops));
  m.emplace_back("arch.coherence.unit_access_ns", u.access_ns);
  m.emplace_back("arch.coherence.rmr_per_op", ratio(c.rmr, c.ops));
  m.emplace_back("arch.coherence.atomics_per_op", ratio(c.atomics, c.ops));
  m.emplace_back("arch.coherence.invalidations_per_op",
                 ratio(c.invalidations, c.ops));
  m.emplace_back("arch.coherence.ctrl_wait_per_op", ratio(c.ctrl_wait, c.ops));
  m.emplace_back("arch.udn.words_per_op", ratio(c.udn_words, c.ops));
  m.emplace_back("arch.udn.sender_blocks_per_op", ratio(c.udn_blocks, c.ops));
  m.emplace_back("arch.udn.unit_word_ns", u.udn_word_ns);
  m.emplace_back("arch.noc.hops_per_msg", ratio(c.noc_hops, c.noc_msgs));
  m.emplace_back("arch.noc.link_wait_per_msg", ratio(c.noc_wait, c.noc_msgs));
  m.emplace_back("arch.noc.unit_msg_ns", u.noc_msg_ns);
  m.emplace_back("arch.vlink.words_per_op", ratio(c.vl_words, c.ops));
  m.emplace_back("arch.vlink.producer_blocks_per_op",
                 ratio(c.vl_pblocks, c.ops));
  m.emplace_back("arch.vlink.consumer_waits_per_op", ratio(c.vl_cwaits, c.ops));
  m.emplace_back("arch.vlink.unit_word_ns", u.vlink_word_ns);

  const double stalled = c.serv[CycleAccount::kCoherenceRead] +
                         c.serv[CycleAccount::kCoherenceWrite] +
                         c.serv[CycleAccount::kAtomic] +
                         c.serv[CycleAccount::kPreempted];
  const double active = [&] {
    double a = 0;
    for (int b = 0; b < kBuckets; ++b) a += c.serv[b];
    return a - c.serv[CycleAccount::kIdle];
  }();
  m.emplace_back("sync.serv_busy_per_op", ratio(active - stalled, c.serv_ops));
  m.emplace_back("sync.serv_stall_per_op", ratio(stalled, c.serv_ops));
  m.emplace_back("sync.combining_rate", ratio(c.comb_served, c.tenures));
  m.emplace_back("sync.cas_fail_ratio", ratio(c.cas_failures, c.cas_attempts));
  m.emplace_back("harness.queue_delay_cycles",
                 ratio(c.queue_delay_sum, c.completed));
  m.emplace_back("harness.service_cycles", ratio(c.service_sum, c.completed));

  // Share of untraced pass time spent inside each construction's run_* calls.
  double total_s = 0;
  std::map<std::string, double> by;
  for (std::size_t k = 0; k < pass_s.size(); ++k) {
    total_s += pass_s[k];
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
      by[w.runs[i].construction] += run_s[k][i];
    }
  }
  for (const std::string& k : kConstructionKeys) {
    m.emplace_back("harness.host_share." + k, ratio(by[k], total_s));
  }

  static constexpr std::pair<const char*, CycleAccount::Bucket> kAcct[] = {
      {"compute", CycleAccount::kCompute},
      {"coh-rd", CycleAccount::kCoherenceRead},
      {"coh-wr", CycleAccount::kCoherenceWrite},
      {"atomic", CycleAccount::kAtomic},
      {"udn-send-block", CycleAccount::kUdnSendBlock},
      {"udn-recv-wait", CycleAccount::kUdnRecvWait},
      {"udn-async-wait", CycleAccount::kUdnAsyncWait},
      {"spin", CycleAccount::kSpin},
      {"svc-queue", CycleAccount::kSvcQueue},
      {"idle", CycleAccount::kIdle}};
  for (const auto& [name, b] : kAcct) {
    m.emplace_back(std::string("obs.acct.") + name + "_per_op",
                   ratio(c.serv[b], c.serv_ops));
  }

  // Estimated host time per layer: exact whole-run work counts priced at
  // the probes' self costs, as a share of the untraced pass time.
  const double ns = host_s * 1e9;
  const std::pair<const char*, double> est[] = {
      {"sim", c.events * u.fiber_resume_ns},
      {"runtime", c.est_spins * u.spin_self_ns},
      {"coherence",
       c.est_hits * u.hit_ns + (c.est_accesses - c.est_hits) * u.access_ns},
      {"udn", c.est_udn_words * u.udn_self_ns},
      {"noc", c.est_noc_msgs * u.noc_msg_ns},
      {"vlink", c.est_vl_words * u.vlink_self_ns}};
  double attributed = 0;
  for (const auto& [layer, v] : est) {
    m.emplace_back(std::string("obs.est_host_share.") + layer, ratio(v, ns));
    attributed += ratio(v, ns);
  }
  m.emplace_back("obs.est_host_share.unattributed", 1.0 - attributed);
  m.emplace_back("obs.trace_overhead_pct", 100.0 * (traced_s / host_s - 1.0));
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

JsonValue array_of(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (double x : v) a.push_back(JsonValue(x));
  return a;
}

int run(const Args& args) {
  const std::optional<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wl;
  HostSpans spans;
  const std::size_t histories = run_gate(w, spans);

  // Untimed first pass: pays the lazy one-time costs (route tables, fiber
  // stack pool, event-queue sizing) and sets the reference artifact.
  const Pass setup = run_pass(w, spans, "setup", nullptr);
  check_pass(w, setup, false);
  const std::uint64_t ref = fingerprint(setup.runs, false);
  const std::uint64_t ref_observed = fingerprint(setup.runs, true);
  std::size_t runs_checked = w.runs.size();

  // Timed passes until the budget is spent (at least one of each kind).
  // With tracing, a fifth of the budget is left for the unit probes.
  std::vector<double> pass_s, traced_s;
  std::vector<std::vector<double>> run_s;
  hmps::sim::Tracer last_trace;
  const Clock::time_point t_start = Clock::now();
  const double measure_s = args.trace ? args.seconds * 0.8 : args.seconds;
  while (pass_s.empty() || (args.trace && traced_s.empty()) ||
         seconds_since(t_start) < measure_s) {
    Pass p = run_pass(w, spans, "pass", nullptr);
    check_pass(w, p, false);
    runs_checked += w.runs.size();
    if (fingerprint(p.runs, false) != ref) {
      fail(w.name + ": a timed pass did not reproduce the setup pass's "
                    "metrics artifact");
    }
    pass_s.push_back(p.host_s);
    run_s.push_back(p.run_s);
    if (args.trace) {
      hmps::sim::Tracer tracer;
      Pass t = run_pass(w, spans, "traced pass", &tracer);
      check_pass(w, t, true);
      runs_checked += w.runs.size();
      if (fingerprint(t.runs, true) != ref_observed) {
        fail(w.name + ": tracing and telemetry changed a simulated result");
      }
      traced_s.push_back(t.host_s);
      last_trace.clear();
      last_trace.merge_from(tracer);
    }
  }

  JsonValue out = JsonValue::object();
  out["ok"] = JsonValue(true);
  out["workload"] = JsonValue(w.name);
  out["seed"] = JsonValue(args.seed);
  out["fingerprint"] = JsonValue(ref);
  out["histories_checked"] = JsonValue(static_cast<std::uint64_t>(histories));
  out["runs_checked"] = JsonValue(static_cast<std::uint64_t>(runs_checked));
  out["setup_s"] = JsonValue(setup.host_s);
  out["pass_s"] = array_of(pass_s);
  out["peak_rss_mb"] = JsonValue(peak_rss_mb());
  out["end_to_end"] = end_to_end(w, setup);

  if (args.trace) {
    const HostSpans::Id pid = spans.begin("probes", "probe");
    const UnitCosts u =
        run_probes(spans, pid, std::max(0.8, args.seconds * 0.2));
    spans.end(pid);
    out["traced_pass_s"] = array_of(traced_s);
    out["per_layer"] = to_json(
        per_layer(w, setup, pass_s, run_s, mean(traced_s), u));
    const std::string base = args.out + "/" + w.name;
    last_trace.write_chrome_json(base + "_sim_trace.json");
    if (!spans.write_chrome_json(base + "_host_spans.json")) {
      std::fprintf(stderr, "perfbench: cannot write %s_host_spans.json\n",
                   base.c_str());
      return 1;
    }
  }
  // One line: JsonValue escapes newlines inside strings, so dropping the
  // writer's layout newlines keeps the document intact.
  std::ostringstream os;
  out.write(os, -1);
  std::string line = os.str();
  std::erase(line, '\n');
  std::cout << line << '\n';
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
