// Tests for the optional link-contention NoC model and its integration
// with the UDN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "arch/noc.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "ds/counter.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sync/mp_server.hpp"

namespace hmps::arch {
namespace {

class NocTest : public ::testing::Test {
 protected:
  NocTest() : p_(MachineParams::tilegx36()), topo_(p_), noc_(p_, topo_) {}
  MachineParams p_;
  MeshTopology topo_;
  NocModel noc_;
};

TEST_F(NocTest, UncontendedMatchesWireFormula) {
  // A lone message's route time equals router + hop * distance.
  const Cycle t = noc_.route(0, 35, 1000, 3);
  EXPECT_EQ(t, 1000 + topo_.wire(0, 35));
  EXPECT_EQ(noc_.counters().link_wait, 0u);
  EXPECT_EQ(noc_.counters().hops, topo_.hops(0, 35));
}

TEST_F(NocTest, SameSourceBackToBackQueues) {
  // Two messages leaving core 0 eastward at the same time share the first
  // link: the second one waits for the first one's flits.
  const Cycle a = noc_.route(0, 5, 1000, 3);
  const Cycle b = noc_.route(0, 5, 1000, 3);
  EXPECT_GT(b, a);
  EXPECT_GT(noc_.counters().link_wait, 0u);
}

TEST_F(NocTest, DisjointPathsDoNotInterfere) {
  // Rows 0 and 5 never share a link under XY routing.
  const Cycle a = noc_.route(0, 5, 1000, 3);   // row 0 eastward
  const Cycle b = noc_.route(30, 35, 1000, 3); // row 5 eastward
  EXPECT_EQ(a, 1000 + topo_.wire(0, 5));
  EXPECT_EQ(b, 1000 + topo_.wire(30, 35));
  EXPECT_EQ(noc_.counters().link_wait, 0u);
}

TEST_F(NocTest, XyRoutingGoesXFirst) {
  // 0 -> 35 takes 5 east hops then 5 south hops; the east links of row 0
  // must be reserved (observable by a second message through them).
  noc_.route(0, 35, 1000, 4);
  const Cycle t = noc_.route(0, 5, 1000, 1);  // same row-0 east links
  EXPECT_GT(t, 1000 + topo_.wire(0, 5));
}

TEST_F(NocTest, ZeroHopRouteIsRouterOnly) {
  const Cycle t = noc_.route(7, 7, 500, 3);
  EXPECT_EQ(t, 500 + p_.router);
}

// Reference model for route(): walks the XY route coordinate by coordinate,
// with its own link reservations, counters and chip-boundary test, so the
// model's arithmetic walk is checked against an independent derivation.
struct RefNoc {
  RefNoc(const MachineParams& p, sim::FaultInjector* faults)
      : p(p), faults(faults),
        busy(std::size_t{p.mesh_w} * p.mesh_h * NocModel::kDirs, 0),
        link_busy(busy.size(), 0), link_wait(busy.size(), 0) {}

  std::size_t chip_of(std::int32_t x, std::int32_t y) const {
    return static_cast<std::size_t>(y / static_cast<std::int32_t>(p.chip_h())) *
               p.chips_x +
           static_cast<std::size_t>(x / static_cast<std::int32_t>(p.chip_w()));
  }

  Cycle route(Tid src, Tid dst, Cycle inject, std::uint32_t words) {
    const std::int32_t w = static_cast<std::int32_t>(p.mesh_w);
    std::int32_t x = static_cast<std::int32_t>(src) % w;
    std::int32_t y = static_cast<std::int32_t>(src) / w;
    const std::int32_t ex = static_cast<std::int32_t>(dst) % w;
    const std::int32_t ey = static_cast<std::int32_t>(dst) / w;
    const Cycle hold = p.udn_per_word_wire * words;
    Cycle t = inject + p.router;
    auto step = [&](NocModel::Dir d, std::int32_t nx, std::int32_t ny) {
      const std::size_t link =
          static_cast<std::size_t>(y * w + x) * NocModel::kDirs + d;
      const Cycle jit =
          faults != nullptr && faults->active() ? faults->hop_jitter() : 0;
      const Cycle start = std::max(busy[link], t);
      wait += start - t;
      link_wait[link] += start - t;
      link_busy[link] += hold + jit;
      busy[link] = start + hold + jit;
      t = start + p.hop + jit;
      if (p.chips() > 1 && chip_of(x, y) != chip_of(nx, ny)) {
        t += p.chip_hop_extra;
      }
      ++hops;
      x = nx;
      y = ny;
    };
    while (x != ex) {
      if (x < ex) {
        step(NocModel::kEast, x + 1, y);
      } else {
        step(NocModel::kWest, x - 1, y);
      }
    }
    while (y != ey) {
      if (y < ey) {
        step(NocModel::kSouth, x, y + 1);
      } else {
        step(NocModel::kNorth, x, y - 1);
      }
    }
    return t;
  }

  const MachineParams& p;
  sim::FaultInjector* faults;
  std::vector<Cycle> busy, link_busy, link_wait;
  std::uint64_t hops = 0;
  Cycle wait = 0;
};

/// Routes every ordered (src, dst) pair of `p`'s mesh `rounds` times, in a
/// shuffled order with clustered inject times so routes queue on shared
/// links, through route() and through the reference; every arrival time,
/// counter and per-link accumulator must agree.
void expect_route_matches_reference(const MachineParams& p, int rounds,
                                    const sim::FaultPlan& plan = {}) {
  const MeshTopology topo(p);
  NocModel noc(p, topo);
  noc.enable_link_stats();
  sim::Scheduler s_model, s_ref;
  sim::FaultInjector f_model(s_model), f_ref(s_ref);
  f_model.install(plan, topo.cores());
  f_ref.install(plan, topo.cores());
  noc.attach_faults(&f_model);
  RefNoc ref(p, &f_ref);

  const std::uint32_t n = topo.cores();
  std::vector<std::uint32_t> pairs(std::size_t{n} * n);
  for (std::uint32_t i = 0; i < pairs.size(); ++i) pairs[i] = i;
  sim::Xoshiro256 rng(p.mesh_w * 1000 + p.mesh_h);
  std::uint64_t msgs = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = pairs.size(); i > 1; --i) {
      std::swap(pairs[i - 1], pairs[rng.below(i)]);
    }
    Cycle clock = 1000 * static_cast<Cycle>(r + 1);
    for (const std::uint32_t pair : pairs) {
      const Tid src = pair / n, dst = pair % n;
      const Cycle inject = clock + rng.below(16);
      const auto words = static_cast<std::uint32_t>(1 + rng.below(4));
      clock += rng.below(3) == 0 ? 1 : 0;
      const Cycle want = ref.route(src, dst, inject, words);
      ASSERT_EQ(noc.route(src, dst, inject, words), want)
          << src << " -> " << dst << " round " << r;
      ++msgs;
    }
  }
  EXPECT_EQ(noc.counters().messages, msgs);
  EXPECT_EQ(noc.counters().hops, ref.hops);
  EXPECT_EQ(noc.counters().link_wait, ref.wait);
  EXPECT_GT(ref.wait, 0u);  // the traffic really contended
  EXPECT_EQ(noc.link_busy(), ref.link_busy);
  EXPECT_EQ(noc.link_wait(), ref.link_wait);
}

TEST(NocRouteWalk, MatchesReferenceOn6x6) {
  expect_route_matches_reference(MachineParams::tilegx36(), 3);
}

TEST(NocRouteWalk, MatchesReferenceOnNonSquare5x3) {
  expect_route_matches_reference(MachineParams::tilegx_small(5, 3), 4);
}

TEST(NocRouteWalk, MatchesReferenceOn16x16) {
  expect_route_matches_reference(MachineParams::tilegx_small(16, 16), 2);
}

TEST(NocRouteWalk, MatchesReferenceOnMultiChip2x2) {
  MachineParams p;
  p.mesh_w = 8;
  p.mesh_h = 8;
  p.chips_x = 2;
  p.chips_y = 2;
  p.chip_hop_extra = 12;
  expect_route_matches_reference(p, 3);
}

TEST(NocRouteWalk, MatchesReferenceUnderHopJitter) {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.jitter_permille = 300;
  plan.jitter_max = 5;
  expect_route_matches_reference(MachineParams::tilegx_small(5, 3), 4, plan);
}

TEST(NocIntegration, ManyToOneSlowsDeliveryUnderContention) {
  using rt::SimCtx;
  // 35 clients hammer one server with and without link modeling; with the
  // wormhole model enabled, total served throughput must not increase and
  // the NoC must report queueing.
  auto run = [](bool contention) {
    arch::MachineParams p = arch::MachineParams::tilegx36();
    p.model_link_contention = contention;
    rt::SimExecutor ex(p, 17);
    static ds::SeqCounter counter;  // fresh value below
    counter.value.store(0);
    sync::MpServer<SimCtx> mp(0, &counter);
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
    for (int i = 0; i < 35; ++i) {
      ex.add_thread([&](SimCtx& ctx) {
        for (;;) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
      });
    }
    ex.run_until(150'000);
    return std::pair<std::uint64_t, Cycle>(
        counter.value.load(),
        ex.machine().udn().noc().counters().link_wait);
  };
  const auto [ops_plain, wait_plain] = run(false);
  const auto [ops_noc, wait_noc] = run(true);
  EXPECT_EQ(wait_plain, 0u);        // model off: never consulted
  EXPECT_GT(wait_noc, 0u);          // model on: real queueing observed
  EXPECT_LE(ops_noc, ops_plain);    // contention cannot speed things up
  EXPECT_GT(ops_noc, ops_plain / 2);  // ...and is a second-order effect
}

}  // namespace
}  // namespace hmps::arch
