// MP-SERVER (paper Section 4.1): the client/server (delegation) approach on
// top of hardware message passing.
//
// A dedicated server thread executes all critical sections of one object.
// Clients send a 3-word request over the message network and block on a
// 1-word response. Because the server's receive reads from its local
// hardware buffer and its send is asynchronous, no coherence-related stalls
// remain on the server's critical path (Fig. 2 of the paper).
#pragma once

#include <cstdint>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class MpServer {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxThreads = 64;

  /// `server_tid`: the thread that will run serve(); `obj`: the concurrent
  /// object whose CSes this instance executes. `max_inflight` > 0 enables
  /// the Section 6 overflow guard: at most that many requests may be
  /// outstanding across all clients (credit acquired before the send,
  /// released after the response), which bounds the words resident in the
  /// server's hardware buffer to 4 * max_inflight regardless of client
  /// count or buffer size. 0 leaves the fast path untouched.
  MpServer(Tid server_tid, void* obj, std::uint64_t max_inflight = 0)
      : server_(server_tid), obj_(obj), max_inflight_(max_inflight) {}

  Tid server_tid() const { return server_; }
  void* object() const { return obj_; }

  /// Client side: executes `fn(obj, arg)` in mutual exclusion on the server
  /// and returns its result. Must not be called from the server thread.
  /// With async tickets outstanding the call is routed through the async
  /// path: a bare 1-word response would misframe behind the pending tagged
  /// reply pairs (docs/MODEL.md §9).
  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServer::apply");
    if (async_[tid].outstanding > 0) {
      Ticket t = apply_async(ctx, fn, arg);
      return wait(ctx, t);
    }
    obs::Span<Ctx> span(ctx, "mp.request");
    explore_point(ctx, "mp.pre_send");
    if (max_inflight_ == 0) {
      ctx.send(server_, {tid, rt::to_word(fn), arg});
      return ctx.receive1();
    }
    acquire_credit(ctx, &inflight_, max_inflight_, stats_[tid].s);
    ctx.send(server_, {tid, rt::to_word(fn), arg});
    const std::uint64_t ret = ctx.receive1();
    ctx.faa(&inflight_, ~std::uint64_t{0});  // release (+(-1))
    return ret;
  }

  /// Issues `fn(obj, arg)` without blocking on the response: the request is
  /// tagged and the matching 2-word reply is claimed later by wait() /
  /// wait_all(). A pending ticket holds its in-flight credit until the
  /// reply reaches this client (docs/MODEL.md §9).
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServer::apply_async");
    SyncStats& st = stats_[tid].s;
    AsyncSt& a = async_[tid];
    obs::Span<Ctx> span(ctx, "mp.request");
    explore_point(ctx, "mp.async_issue");
    if (max_inflight_ != 0) {
      acquire_credit(ctx, &inflight_, max_inflight_, st, [&] {
        return drain_udn_reply(ctx, a.outstanding, &inflight_);
      });
    }
    const std::uint64_t tag = a.next_tag;
    a.next_tag = a.next_tag == kAsyncTagMask ? 1 : a.next_tag + 1;
    ctx.send(server_, {pack_request_id(tid, tag), rt::to_word(fn), arg});
    ++st.async_issued;
    ++a.outstanding;
    Ticket t{tag, 0, 0};
    t.issued = ctx.now();
    return t;
  }

  /// Reaps one ticket, returning its CS result. Must run on the issuing
  /// thread. Replies for other outstanding tickets arriving first are
  /// staged in the context for their own wait().
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServer::wait");
    AsyncSt& a = async_[tid];
    if (t.tag == 0) return t.value;  // completed inline
    explore_point(ctx, "mp.reap");
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
  /// results (use wait() per ticket when the values matter).
  void wait_all(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "MpServer::wait_all");
    AsyncSt& a = async_[tid];
    explore_point(ctx, "mp.reap");
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

  /// Server side: serves requests until a stop request arrives (see
  /// request_stop). Runs forever under open-ended simulation windows.
  void serve(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "MpServer::serve");
    SyncStats& st = stats_[ctx.tid()].s;
    for (;;) {
      explore_point(ctx, "mp.serve");
      std::uint64_t m[3];
      ctx.receive(m, 3);
      if (m[1] == kStopWord) return;
      // CS + response phase on the server's critical path.
      obs::Span<Ctx> cs(ctx, "mp.cs");
      Fn fn = rt::from_word<std::remove_pointer_t<Fn>>(m[1]);
      const std::uint64_t ret = fn(ctx, obj_, m[2]);
      const std::uint64_t tag = request_tag(m[0]);
      if (tag != 0) {
        ctx.send(request_tid(m[0]), {kAsyncReplyMark | tag, ret});
      } else {
        ctx.send(request_tid(m[0]), {ret});
      }
      ++st.served;
    }
  }

  /// Asks the server loop to exit. Safe to call while requests from other
  /// clients are still queued ahead of the stop message; they are served
  /// first (FIFO hardware queue).
  void request_stop(Ctx& ctx) { ctx.send(server_, {0, kStopWord, 0}); }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "MpServer::stats");
    return stats_[t].s;
  }

  /// Requests currently holding an overflow-guard credit (0 when the guard
  /// is off). Telemetry gauge — a plain snapshot read, never synchronizing.
  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(rt::kCacheLine) PaddedStats {
    SyncStats s;
  };
  struct alignas(rt::kCacheLine) AsyncSt {
    std::uint64_t next_tag = 1;
    std::uint32_t outstanding = 0;  ///< issued minus reaped
  };

  Tid server_;
  void* obj_;
  std::uint64_t max_inflight_;
  alignas(rt::kCacheLine) Word inflight_{0};
  PaddedStats stats_[kMaxThreads];
  AsyncSt async_[kMaxThreads];
};

}  // namespace hmps::sync
