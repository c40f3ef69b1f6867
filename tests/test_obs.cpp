// Tests for the observability layer: cycle accounting invariants, the JSON
// document model, the metrics registry, and the zero-observer-effect
// guarantee of the harness plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "arch/params.hpp"
#include "arch/profiler.hpp"
#include "harness/workload.hpp"
#include "obs/cycle_account.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace hmps {
namespace {

using obs::CycleAccount;
using obs::JsonValue;
using Bucket = CycleAccount::Bucket;
using sim::Cycle;

TEST(CycleAccount, BucketsSumToElapsedAfterSettle) {
  CycleAccount a;
  a.reset(100);
  a.charge(Bucket::kCompute, 100, 150);        // contiguous
  a.charge(Bucket::kCoherenceRead, 180, 220);  // 30-cycle gap -> idle
  a.charge(Bucket::kAtomic, 200, 260);         // 20 cycles clipped
  a.settle(300);                               // 40-cycle tail -> idle
  EXPECT_EQ(a.bucket(Bucket::kCompute), 50u);
  EXPECT_EQ(a.bucket(Bucket::kCoherenceRead), 40u);
  EXPECT_EQ(a.bucket(Bucket::kAtomic), 40u);  // [220, 260) after clipping
  EXPECT_EQ(a.bucket(Bucket::kIdle), 30u + 40u);
  EXPECT_EQ(a.total(), 200u);
  EXPECT_EQ(a.total(), a.mark() - a.origin());
}

TEST(CycleAccount, FullyOverlappedChargeIsClippedToNothing) {
  CycleAccount a;
  a.reset(0);
  a.charge(Bucket::kCompute, 0, 100);
  a.charge(Bucket::kSpin, 20, 80);  // entirely inside accounted time
  EXPECT_EQ(a.bucket(Bucket::kSpin), 0u);
  EXPECT_EQ(a.total(), 100u);
}

TEST(CycleAccount, FinalizeCoversCoreThatNeverReceivedWork) {
  // Open-loop runs can end with the event queue drained before the
  // intended horizon, and some cores (sessions past the last arrival, or
  // cores no fiber was pinned to) never charge anything. finalize() must
  // close the books so the sum invariant holds for them too.
  CycleAccount idle_core;
  idle_core.reset(100);
  idle_core.finalize(5'000);  // mark never moved past the origin
  EXPECT_EQ(idle_core.bucket(Bucket::kIdle), 4'900u);
  EXPECT_EQ(idle_core.total(), 4'900u);
  EXPECT_EQ(idle_core.total(), idle_core.mark() - idle_core.origin());

  CycleAccount worked;
  worked.reset(100);
  worked.charge(Bucket::kCompute, 100, 150);
  worked.finalize(300);  // tail [150, 300) becomes idle, as with settle()
  EXPECT_EQ(worked.bucket(Bucket::kCompute), 50u);
  EXPECT_EQ(worked.bucket(Bucket::kIdle), 150u);
  EXPECT_EQ(worked.total(), 200u);

  // finalize() twice (or finalize after settle) must not double-fill.
  worked.finalize(300);
  EXPECT_EQ(worked.total(), 200u);
}

TEST(CycleAccount, ChargePeriodicMatchesChargeByCharge) {
  // Every watermark position relative to the run: before it, inside a
  // load-like interval, inside a relax-like interval, past its end.
  for (Cycle la : {1u, 3u, 5u}) {
    for (Cycle lb : {1u, 2u}) {
      for (Cycle n = 0; n < 5; ++n) {
        for (Cycle nb : {n, n > 0 ? n - 1 : 0}) {
          for (Cycle mark = 0; mark < 40; ++mark) {
            CycleAccount one, bulk;
            one.charge(Bucket::kAtomic, 0, mark);
            bulk.charge(Bucket::kAtomic, 0, mark);
            const Cycle s = 7, p = la + lb;
            for (Cycle i = 0; i < n; ++i) {
              one.charge(Bucket::kCompute, s + i * p, s + i * p + la);
              if (i < nb) {
                one.charge(Bucket::kSpin, s + i * p + la, s + (i + 1) * p);
              }
            }
            bulk.charge_periodic(Bucket::kCompute, la, Bucket::kSpin, lb, s, n,
                                 nb);
            for (int b = 0; b < CycleAccount::kNumBuckets; ++b) {
              ASSERT_EQ(one.bucket(Bucket(b)), bulk.bucket(Bucket(b)))
                  << la << ' ' << lb << ' ' << n << ' ' << nb << ' ' << mark;
            }
            ASSERT_EQ(one.mark(), bulk.mark());
          }
        }
      }
    }
  }
}

TEST(CycleAccount, ReclassifyMovesCyclesAndPreservesTotal) {
  CycleAccount a;
  a.reset(0);
  a.charge(Bucket::kUdnRecvWait, 0, 70);
  a.charge(Bucket::kCompute, 70, 100);
  // Carve 50 cycles of queueing delay out of the receive-wait bucket.
  EXPECT_EQ(a.reclassify(Bucket::kUdnRecvWait, Bucket::kSvcQueue, 50), 50u);
  EXPECT_EQ(a.bucket(Bucket::kUdnRecvWait), 20u);
  EXPECT_EQ(a.bucket(Bucket::kSvcQueue), 50u);
  EXPECT_EQ(a.total(), 100u);
  // Overdraw clamps to the bucket's balance, never going negative.
  EXPECT_EQ(a.reclassify(Bucket::kUdnRecvWait, Bucket::kSvcQueue, 1'000),
            20u);
  EXPECT_EQ(a.bucket(Bucket::kUdnRecvWait), 0u);
  EXPECT_EQ(a.bucket(Bucket::kSvcQueue), 70u);
  EXPECT_EQ(a.total(), 100u);
  EXPECT_EQ(a.total(), a.mark() - a.origin());
}

TEST(CycleAccount, DiffSinceIsBucketwiseWindow) {
  CycleAccount a;
  a.reset(0);
  a.charge(Bucket::kCompute, 0, 10);
  a.settle(10);
  const CycleAccount snap = a;
  a.charge(Bucket::kUdnRecvWait, 10, 35);
  a.settle(50);
  const CycleAccount d = a.diff_since(snap);
  EXPECT_EQ(d.bucket(Bucket::kCompute), 0u);
  EXPECT_EQ(d.bucket(Bucket::kUdnRecvWait), 25u);
  EXPECT_EQ(d.bucket(Bucket::kIdle), 15u);
  EXPECT_EQ(d.total(), 40u);
  EXPECT_EQ(d.total(), d.mark() - d.origin());
}

TEST(Json, RoundTripPreservesDocument) {
  JsonValue doc = JsonValue::object();
  doc["name"] = JsonValue("esc \"quote\" \\slash\\ \n\ttail");
  doc["big_uint"] = JsonValue(std::uint64_t{18446744073709551615ull});
  doc["big_int"] = JsonValue(std::int64_t{-9007199254740995ll});  // > 2^53
  doc["pi"] = JsonValue(3.140625);  // exactly representable
  doc["flag"] = JsonValue(true);
  JsonValue& arr = doc["arr"];
  arr.push_back(JsonValue(1u));
  arr.push_back(JsonValue());
  arr.push_back(JsonValue::object());

  const std::string text = doc.dump();
  JsonValue back;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(text, &back, &err)) << err;
  EXPECT_EQ(back.find("name")->as_string(), "esc \"quote\" \\slash\\ \n\ttail");
  EXPECT_EQ(back.find("big_uint")->as_uint(), 18446744073709551615ull);
  EXPECT_EQ(back.find("big_int")->as_int(), -9007199254740995ll);
  EXPECT_EQ(back.find("pi")->as_double(), 3.140625);
  EXPECT_TRUE(back.find("flag")->as_bool());
  EXPECT_EQ(back.find("arr")->size(), 3u);
  // Stable output: dumping the parsed document reproduces the text.
  EXPECT_EQ(back.dump(), text);
  // Compact form parses too.
  JsonValue compact;
  ASSERT_TRUE(JsonValue::parse(doc.dump(-1), &compact, &err)) << err;
  EXPECT_EQ(compact.dump(), text);
}

TEST(Json, ParserRejectsGarbage) {
  JsonValue v;
  EXPECT_FALSE(JsonValue::parse("{\"a\":}", &v));
  EXPECT_FALSE(JsonValue::parse("[1,2", &v));
  EXPECT_FALSE(JsonValue::parse("{} trailing", &v));
  EXPECT_FALSE(JsonValue::parse("\"unterminated", &v));
}

TEST(Json, ParserDecodesEveryEscape) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(R"("\" \\ \/ \b \f \n \r \t")", &v, &err))
      << err;
  EXPECT_EQ(v.as_string(), "\" \\ / \b \f \n \r \t");
  // \u escapes cover the 1-, 2- and 3-byte UTF-8 ranges (BMP only).
  ASSERT_TRUE(JsonValue::parse("\"\\u0041\\u00e9\\u20AC\"", &v, &err)) << err;
  EXPECT_EQ(v.as_string(), "A\xC3\xA9\xE2\x82\xAC");
  // Malformed escapes are errors, not silently dropped bytes.
  EXPECT_FALSE(JsonValue::parse(R"("\uZZZZ")", &v));
  EXPECT_FALSE(JsonValue::parse(R"("\u00")", &v));  // short
  EXPECT_FALSE(JsonValue::parse(R"("\q")", &v));    // unknown escape
  EXPECT_FALSE(JsonValue::parse("\"dangling\\", &v));
}

TEST(Json, Uint64BoundaryValuesRoundTrip) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::parse("18446744073709551615", &v, &err)) << err;
  EXPECT_EQ(v.as_uint(), 18446744073709551615ull);
  EXPECT_EQ(v.dump(-1), "18446744073709551615");
  ASSERT_TRUE(JsonValue::parse("-9223372036854775808", &v, &err)) << err;
  EXPECT_EQ(v.as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.dump(-1), "-9223372036854775808");
  ASSERT_TRUE(JsonValue::parse("0", &v, &err)) << err;
  EXPECT_EQ(v.as_uint(), 0u);
}

TEST(Json, DeeplyNestedDocumentRoundTrips) {
  constexpr int kDepth = 200;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += "[";
  text += "7";
  for (int i = 0; i < kDepth; ++i) text += "]";
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(text, &v, &err)) << err;
  const JsonValue* p = &v;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_EQ(p->size(), 1u) << "level " << i;
    p = &p->items()[0];
  }
  EXPECT_EQ(p->as_uint(), 7u);
  // The writer's output (whatever its layout) must re-parse to a stable
  // fixed point at this depth.
  JsonValue again;
  ASSERT_TRUE(JsonValue::parse(v.dump(), &again, &err)) << err;
  EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, TruncatedInputsAreRejectedNotCrashed) {
  // Every prefix of a valid document must fail cleanly (the artifact
  // readers parse files that may have been cut off mid-write).
  const std::string full =
      R"({"a":[1,{"b":"x\n"},true],"c":null,"d":1.5e3})";
  JsonValue v;
  for (std::size_t n = 0; n < full.size(); ++n) {
    std::string err;
    EXPECT_FALSE(JsonValue::parse(full.substr(0, n), &v, &err))
        << "prefix length " << n;
    EXPECT_FALSE(err.empty()) << "prefix length " << n;
  }
  std::string err;
  EXPECT_TRUE(JsonValue::parse(full, &v, &err)) << err;
}

TEST(MetricsRegistry, StampedDocumentRoundTripsThroughDisk) {
  obs::MetricsRegistry reg;
  const char* argv[] = {const_cast<char*>("bench"),
                        const_cast<char*>("--json"),
                        const_cast<char*>("out.json")};
  reg.stamp("fig_test", 3, const_cast<char**>(argv));
  JsonValue& run = reg.add_run("mp-server/t4");
  run["config"]["app_threads"] = JsonValue(4u);

  const std::string path = "/tmp/hmps_metrics_test.json";
  ASSERT_TRUE(reg.write(path));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(ss.str(), &doc, &err)) << err;
  EXPECT_EQ(doc.find("schema")->as_string(), "hmps-metrics-v2");
  EXPECT_EQ(doc.find("bench")->as_string(), "fig_test");
  EXPECT_EQ(doc.find("argv")->size(), 3u);
  EXPECT_TRUE(doc.has("git"));
  EXPECT_TRUE(doc.has("build_flags"));
  ASSERT_EQ(doc.find("runs")->size(), 1u);
  const JsonValue& r0 = doc.find("runs")->items()[0];
  EXPECT_EQ(r0.find("label")->as_string(), "mp-server/t4");
  EXPECT_EQ(r0.find("config")->find("app_threads")->as_uint(), 4u);
  std::remove(path.c_str());
}

TEST(MetricsRegistry, CycleAccountJsonHasAllBucketsAndTotal) {
  CycleAccount a;
  a.reset(0);
  a.charge(Bucket::kCompute, 0, 7);
  a.settle(10);
  const JsonValue j = obs::MetricsRegistry::cycle_account_json(a);
  for (int b = 0; b < Bucket::kNumBuckets; ++b) {
    const char* name = CycleAccount::bucket_name(static_cast<Bucket>(b));
    ASSERT_TRUE(j.has(name)) << name;
  }
  EXPECT_EQ(j.find("compute")->as_uint(), 7u);
  EXPECT_EQ(j.find("idle")->as_uint(), 3u);
  EXPECT_EQ(j.find("total")->as_uint(), 10u);
}

TEST(Profiler, LabelHonorsConfiguredLineBytes) {
  arch::CoherenceProfiler p;
  EXPECT_EQ(p.line_bytes(), 64u);  // default matches the old behavior
  p.set_line_bytes(128);
  EXPECT_EQ(p.line_bytes(), 128u);
  p.set_line_bytes(0);  // ignored
  EXPECT_EQ(p.line_bytes(), 128u);
  // Two addresses 64 bytes apart share a 128-byte line: the second label
  // overwrites the first (before the fix they landed on distinct lines).
  p.label(reinterpret_cast<const void*>(0x1000), "first");
  p.label(reinterpret_cast<const void*>(0x1040), "second");
  p.on_read(0x1000 / 128, 10);
  const auto top = p.top_lines(4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].label, "second");
}

// --- harness plumbing -----------------------------------------------------

harness::RunCfg small_cfg() {
  harness::RunCfg cfg;
  cfg.app_threads = 3;
  cfg.warmup = 20'000;
  cfg.window = 50'000;
  cfg.reps = 2;
  cfg.seed = 7;
  return cfg;
}

TEST(HarnessObs, CollectingArtifactsHasZeroObserverEffect) {
  const harness::RunResult plain =
      harness::run_counter(small_cfg(), harness::Approach::kMpServer);

  obs::MetricsRegistry reg;
  sim::Tracer sink;
  harness::RunCfg cfg = small_cfg();
  cfg.obs.metrics = &reg;
  cfg.obs.trace = &sink;
  cfg.obs.label = "mp-server";
  const harness::RunResult observed =
      harness::run_counter(cfg, harness::Approach::kMpServer);

  // Identical simulated outcome, bit for bit: observability never advances
  // simulated time or perturbs scheduling.
  EXPECT_EQ(plain.total_ops, observed.total_ops);
  EXPECT_EQ(plain.mops, observed.mops);
  EXPECT_EQ(plain.lat_mean, observed.lat_mean);
  EXPECT_EQ(plain.serv_stall_per_op, observed.serv_stall_per_op);
  EXPECT_GT(sink.size(), 0u);
  EXPECT_EQ(reg.root()["runs"].size(), 1u);
}

// A fiber charges its current operation before sleeping through it, so an
// account's mark can sit up to one operation past a window horizon. The
// windowed total therefore matches reps * window only up to one in-flight
// operation at each boundary; the unconditional invariant is that the
// buckets sum to exactly the cycle span the account covers (mark - origin).
constexpr sim::Cycle kBoundarySlop = 2'000;

void expect_covers_window(const CycleAccount& a, sim::Cycle window,
                          const char* what) {
  EXPECT_EQ(a.total(), a.mark() - a.origin()) << what;  // exact, always
  EXPECT_GE(a.total() + kBoundarySlop, window) << what;
  EXPECT_LE(a.total(), window + kBoundarySlop) << what;
}

TEST(HarnessObs, ServicingAccountSumsToMeasuredCycles) {
  harness::RunCfg cfg = small_cfg();
  const harness::RunResult r =
      harness::run_counter(cfg, harness::Approach::kMpServer);
  expect_covers_window(r.serv_account, cfg.reps * cfg.window, "mp-server");
  // A message-passing server core is busy receiving/serving, not
  // coherence-stalled: the account must show UDN waits, not idle guesswork.
  EXPECT_GT(r.serv_account.bucket(CycleAccount::kCompute), 0u);
  EXPECT_GT(r.serv_account.bucket(CycleAccount::kUdnRecvWait), 0u);
}

TEST(HarnessObs, AccountsCoverEveryCoreAndConstruction) {
  for (const auto a :
       {harness::Approach::kShmServer, harness::Approach::kCcSynch,
        harness::Approach::kHybComb}) {
    harness::RunCfg cfg = small_cfg();
    const harness::RunResult r = harness::run_counter(cfg, a);
    expect_covers_window(r.serv_account, cfg.reps * cfg.window,
                         harness::approach_name(a));
  }
}

TEST(HarnessObs, MetricsRunEntryIsComplete) {
  obs::MetricsRegistry reg;
  harness::RunCfg cfg = small_cfg();
  cfg.obs.metrics = &reg;
  cfg.obs.label = "hybcomb";
  (void)harness::run_counter(cfg, harness::Approach::kHybComb);
  ASSERT_EQ(reg.root()["runs"].size(), 1u);
  const JsonValue& run = reg.root()["runs"].items()[0];
  EXPECT_EQ(run.find("label")->as_string(), "hybcomb");
  ASSERT_TRUE(run.has("config"));
  ASSERT_TRUE(run.has("results"));
  ASSERT_TRUE(run.has("sync_stats"));
  ASSERT_TRUE(run.has("machine"));
  ASSERT_TRUE(run.has("cycle_accounts"));
  const JsonValue* accts = run.find("cycle_accounts");
  EXPECT_EQ(accts->size(), std::size_t{36});  // one per tilegx36 core
  const std::uint64_t window = cfg.reps * cfg.window;
  for (const JsonValue& a : accts->items()) {
    const std::uint64_t total = a.find("total")->as_uint();
    EXPECT_GE(total + kBoundarySlop, window);
    EXPECT_LE(total, window + kBoundarySlop);
  }
  EXPECT_EQ(run.find("config")->find("seed")->as_uint(), 7u);
  EXPECT_GT(run.find("results")->find("total_ops")->as_uint(), 0u);
}

}  // namespace
}  // namespace hmps
