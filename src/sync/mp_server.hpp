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

/// Names of an MP-SERVER flavour's capacity checks, spans and explore
/// points (MpServer's "mp.*", MpServerHub's "hub.*").
struct MpServerNames {
  const char* who;
  const char* request;
  const char* pre_send;
  const char* async_issue;
  const char* reap;
  const char* serve;
  const char* cs;
};

inline constexpr MpServerNames kMpServerNames{
    "MpServer", "mp.request", "mp.pre_send", "mp.async_issue",
    "mp.reap",  "mp.serve",   "mp.cs"};

template <class Ctx, const MpServerNames& kNames = kMpServerNames>
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
  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    return request(ctx, rt::to_word(fn), arg);
  }

  /// Issues `fn(obj, arg)` without blocking on the response: the request is
  /// tagged and the matching 2-word reply is claimed later by wait() /
  /// wait_all(). A pending ticket holds its in-flight credit until the
  /// reply reaches this client (docs/MODEL.md §9).
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t arg) {
    return request_async(ctx, rt::to_word(fn), arg);
  }

  /// Reaps one ticket, returning its CS result. Must run on the issuing
  /// thread. Replies for other outstanding tickets arriving first are
  /// staged in the context for their own wait().
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    return reap(ctx, book(ctx), replies(), t, kNames.reap);
  }

  /// Reaps every outstanding ticket of the calling thread, discarding the
  /// results (use wait() per ticket when the values matter).
  void wait_all(Ctx& ctx) {
    reap_all(ctx, book(ctx), replies(), kNames.reap);
  }

  /// Server side: serves requests until a stop request arrives (see
  /// request_stop). Runs forever under open-ended simulation windows.
  void serve(Ctx& ctx) {
    serve_with(ctx, [this](Ctx& c, std::uint64_t fn, std::uint64_t arg) {
      return rt::from_word<std::remove_pointer_t<Fn>>(fn)(c, obj_, arg);
    });
  }

  /// Asks the server loop to exit. Safe to call while requests from other
  /// clients are still queued ahead of the stop message; they are served
  /// first (FIFO hardware queue).
  void request_stop(Ctx& ctx) { ctx.send(server_, {0, kStopWord, 0}); }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, kNames.who);
    return stats_[t].s;
  }

  /// Requests currently holding an overflow-guard credit (0 when the guard
  /// is off). Telemetry gauge — a plain snapshot read, never synchronizing.
  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 protected:
  /// The request path with request word 1 given (a CS body or an opcode).
  /// With async tickets outstanding a synchronous request is routed through
  /// the async path: a bare 1-word response would misframe behind the
  /// pending tagged reply pairs (docs/MODEL.md §9).
  std::uint64_t request(Ctx& ctx, std::uint64_t w1, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    if (book(ctx).outstanding > 0) {
      Ticket t = request_async(ctx, w1, arg);
      return wait(ctx, t);
    }
    obs::Span<Ctx> span(ctx, kNames.request);
    explore_point(ctx, kNames.pre_send);
    if (max_inflight_ == 0) {
      ctx.send(server_, {tid, w1, arg});
      return ctx.receive1();
    }
    acquire_credit(ctx, &inflight_, max_inflight_, stats_[tid].s);
    ctx.send(server_, {tid, w1, arg});
    const std::uint64_t ret = ctx.receive1();
    ctx.faa(&inflight_, ~std::uint64_t{0});  // release (+(-1))
    return ret;
  }

  Ticket request_async(Ctx& ctx, std::uint64_t w1, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    TicketBook& a = book(ctx);
    SyncStats& st = stats_[tid].s;
    obs::Span<Ctx> span(ctx, kNames.request);
    explore_point(ctx, kNames.async_issue);
    if (max_inflight_ != 0) {
      acquire_credit(ctx, &inflight_, max_inflight_, st,
                     [&] { return drain_reply(ctx, a, replies()); });
    }
    const std::uint64_t tag = a.issue();
    ctx.send(server_, {pack_request_id(tid, tag), w1, arg});
    ++st.async_issued;
    return Ticket{.tag = tag, .issued = ctx.now()};
  }

  /// The server loop; `call(ctx, w1, arg)` runs the CS request word 1
  /// names.
  template <class Call>
  void serve_with(Ctx& ctx, Call call) {
    check_tid(ctx.tid(), kMaxThreads, kNames.who);
    SyncStats& st = stats_[ctx.tid()].s;
    for (;;) {
      explore_point(ctx, kNames.serve);
      std::uint64_t m[3];
      ctx.receive(m, 3);
      if (m[1] == kStopWord) return;
      // CS + response phase on the server's critical path.
      obs::Span<Ctx> cs(ctx, kNames.cs);
      const std::uint64_t ret = call(ctx, m[1], m[2]);
      const std::uint64_t tag = request_tag(m[0]);
      if (tag != 0) {
        ctx.send(request_tid(m[0]), {kAsyncReplyMark | tag, ret});
      } else {
        ctx.send(request_tid(m[0]), {ret});
      }
      ++st.served;
    }
  }

 private:
  struct alignas(rt::kCacheLine) PaddedStats {
    SyncStats s;
  };

  TicketBook& book(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, kNames.who);
    return async_[ctx.tid()];
  }
  UdnReplies<> replies() {
    return {max_inflight_ != 0 ? &inflight_ : nullptr};
  }

  Tid server_;
  void* obj_;
  std::uint64_t max_inflight_;
  alignas(rt::kCacheLine) Word inflight_{0};
  PaddedStats stats_[kMaxThreads];
  TicketBook async_[kMaxThreads];
};

}  // namespace hmps::sync
