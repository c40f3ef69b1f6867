// MP-SERVER-HUB: one dedicated server core serving MANY concurrent objects
// through the paper's Section 5.2 opcode interface.
//
// Instead of a function pointer, requests carry a small opcode indexing a
// registered (function, object) pair — the interface the paper used to let
// the compiler inline CS bodies at the servicing thread. The hub form also
// addresses the intro's observation that "dedicating cores is less
// feasible if an application includes a large number of potentially
// contended concurrent objects": k objects share one server core, trading
// per-object throughput for core economy (see the
// abl_server_consolidation bench).
//
// The client path carries the same Section 6 overflow guard, capacity
// checks and obs::Span / explore_point instrumentation as MpServer — a hub
// with many clients can wedge the UDN exactly as bench/sec6_overflow
// demonstrates for unguarded servers — plus the async ticket API of
// docs/MODEL.md §9.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <vector>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class MpServerHub {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxThreads = 64;

  /// `max_inflight` > 0 enables the Section 6 overflow guard: at most that
  /// many requests outstanding across all clients and all registered
  /// objects (one hardware buffer serves them all, so one credit pool
  /// bounds it). 0 leaves the fast path untouched.
  explicit MpServerHub(Tid server_tid, std::uint64_t max_inflight = 0)
      : server_(server_tid), max_inflight_(max_inflight) {}

  /// Registers a critical-section body bound to an object; returns its
  /// opcode. All registrations must happen before serve() starts.
  std::uint64_t add_op(Fn fn, void* obj) {
    ops_.push_back(Entry{fn, obj});
    return ops_.size();  // opcode 0 is the stop word
  }

  Tid server_tid() const { return server_; }
  std::size_t op_count() const { return ops_.size(); }

  /// Opcode of the first registration of `fn`.
  std::uint64_t opcode_of(Fn fn) const {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].fn == fn) return i + 1;
    }
    std::fprintf(stderr, "hmps fatal: MpServerHub: unregistered CS body\n");
    std::abort();
  }

  /// Client side: executes the CS registered under `opcode`. With async
  /// tickets outstanding the call is routed through the async path to keep
  /// the reply stream framed (docs/MODEL.md §9).
  std::uint64_t apply(Ctx& ctx, std::uint64_t opcode, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServerHub::apply");
    assert(opcode >= 1 && opcode <= ops_.size());
    if (async_[tid].outstanding > 0) {
      Ticket t = apply_async(ctx, opcode, arg);
      return wait(ctx, t);
    }
    obs::Span<Ctx> span(ctx, "hub.request");
    explore_point(ctx, "hub.pre_send");
    if (max_inflight_ == 0) {
      ctx.send(server_, {tid, opcode, arg});
      return ctx.receive1();
    }
    acquire_credit(ctx, &inflight_, max_inflight_, stats_[tid].s);
    ctx.send(server_, {tid, opcode, arg});
    const std::uint64_t ret = ctx.receive1();
    ctx.faa(&inflight_, ~std::uint64_t{0});  // release (+(-1))
    return ret;
  }

  /// Issues the CS registered under `opcode` without blocking on the
  /// response; reap with wait() / wait_all() on the issuing thread.
  Ticket apply_async(Ctx& ctx, std::uint64_t opcode, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServerHub::apply_async");
    assert(opcode >= 1 && opcode <= ops_.size());
    SyncStats& st = stats_[tid].s;
    AsyncSt& a = async_[tid];
    obs::Span<Ctx> span(ctx, "hub.request");
    explore_point(ctx, "hub.async_issue");
    if (max_inflight_ != 0) {
      acquire_credit(ctx, &inflight_, max_inflight_, st, [&] {
        return drain_udn_reply(ctx, a.outstanding, &inflight_);
      });
    }
    const std::uint64_t tag = a.next_tag;
    a.next_tag = a.next_tag == kAsyncTagMask ? 1 : a.next_tag + 1;
    ctx.send(server_, {pack_request_id(tid, tag), opcode, arg});
    ++st.async_issued;
    ++a.outstanding;
    Ticket t{tag, 0, 0};
    t.issued = ctx.now();
    return t;
  }

  /// Reaps one ticket, returning its CS result (issuing thread only).
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServerHub::wait");
    AsyncSt& a = async_[tid];
    if (t.tag == 0) return t.value;  // completed inline
    explore_point(ctx, "hub.reap");
    std::uint64_t val;
    if (ctx.take_staged_reply(t.tag, &val)) {
      --a.outstanding;
      t.completed = ctx.now();
      return val;
    }
    for (;;) {
      std::uint64_t m[2];
      ctx.receive_async(m, 2);
      if (max_inflight_ != 0) ctx.faa(&inflight_, ~std::uint64_t{0});
      const std::uint64_t got = reply_tag(m[0]);
      if (got == t.tag) {
        --a.outstanding;
        t.completed = ctx.now();
        return m[1];
      }
      ctx.stage_reply(got, m[1]);
    }
  }

  /// Reaps every outstanding ticket of the calling thread, discarding the
  /// results.
  void wait_all(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServerHub::wait_all");
    AsyncSt& a = async_[tid];
    explore_point(ctx, "hub.reap");
    std::uint64_t tag, val;
    while (a.outstanding > 0) {
      if (ctx.take_any_staged_reply(&tag, &val)) {
        --a.outstanding;
        continue;
      }
      std::uint64_t m[2];
      ctx.receive_async(m, 2);
      if (max_inflight_ != 0) ctx.faa(&inflight_, ~std::uint64_t{0});
      --a.outstanding;
    }
  }

  /// Server side: serves all registered objects until a stop request.
  void serve(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "MpServerHub::serve");
    SyncStats& st = stats_[ctx.tid()].s;
    for (;;) {
      explore_point(ctx, "hub.serve");
      std::uint64_t m[3];
      ctx.receive(m, 3);
      if (m[1] == kStopWord) return;
      obs::Span<Ctx> cs(ctx, "hub.cs");
      const Entry& e = ops_[m[1] - 1];
      const std::uint64_t ret = e.fn(ctx, e.obj, m[2]);
      const std::uint64_t tag = request_tag(m[0]);
      if (tag != 0) {
        ctx.send(request_tid(m[0]), {kAsyncReplyMark | tag, ret});
      } else {
        ctx.send(request_tid(m[0]), {ret});
      }
      ++st.served;
    }
  }

  void request_stop(Ctx& ctx) { ctx.send(server_, {0, kStopWord, 0}); }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "MpServerHub::stats");
    return stats_[t].s;
  }

 private:
  struct Entry {
    Fn fn;
    void* obj;
  };
  struct alignas(rt::kCacheLine) PaddedStats {
    SyncStats s;
  };
  struct alignas(rt::kCacheLine) AsyncSt {
    std::uint64_t next_tag = 1;
    std::uint32_t outstanding = 0;  ///< issued minus reaped
  };

  Tid server_;
  std::uint64_t max_inflight_;
  std::vector<Entry> ops_;
  alignas(rt::kCacheLine) Word inflight_{0};
  PaddedStats stats_[kMaxThreads];
  AsyncSt async_[kMaxThreads];
};

/// MpServerHub behind the CsFn interface of the other constructions: every
/// body in `fns` is registered on `obj` up front (opcodes 1..n in order, as
/// serve() requires), and apply() maps each CsFn to its opcode.
template <class Ctx>
class FnHub : public MpServerHub<Ctx> {
 public:
  using Fn = CsFn<Ctx>;

  FnHub(Tid server_tid, void* obj, std::initializer_list<Fn> fns,
        std::uint64_t max_inflight = 0)
      : MpServerHub<Ctx>(server_tid, max_inflight) {
    for (const Fn fn : fns) this->add_op(fn, obj);
  }

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    return MpServerHub<Ctx>::apply(ctx, this->opcode_of(fn), arg);
  }
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t arg) {
    return MpServerHub<Ctx>::apply_async(ctx, this->opcode_of(fn), arg);
  }
};

}  // namespace hmps::sync
