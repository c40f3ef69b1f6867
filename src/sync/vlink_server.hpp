// VLINK-SERVER: delegation over a Virtual-Link MPMC channel
// (arch/vlink.hpp, docs/MODEL.md §12).
//
// Same client/server shape as MP-SERVER (paper Section 4.1) with the
// transport swapped: instead of addressing the server's per-core hardware
// receive buffer, clients push 3-word requests into one shared MPMC channel
// anchored at the server's tile, and each client pops 2-word replies from
// its own single-consumer reply channel. Because the request channel is
// many-to-many, a pool of servers can drain it concurrently (pass each one
// to serve(); frame-atomic pops keep requests whole) — the UDN needs the
// hub/sharded machinery to get the same effect.
//
// Wire format is the cs.hpp request format with 2-word replies throughout
// (tag 0 = synchronous), so the per-channel frame size is homogeneous.
// Section 6 overflow credits, async tickets, spans, and explore points all
// mirror MpServer, bucket for bucket.
//
// Sim-only: the fabric is a simulator model, so this construction is not
// instantiated over NativeCtx (like sync::ShardedServer).
#pragma once

#include <cstdint>

#include "arch/vlink.hpp"
#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class VlinkServer {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxThreads = 64;
  static constexpr std::uint32_t kNoChannel = ~std::uint32_t{0};
  /// Request-channel capacity in words (42 in-flight 3-word frames at the
  /// default — matches the UDN buffer's order of magnitude so backpressure
  /// engages at comparable depth).
  static constexpr std::size_t kDefaultReqWords = 126;
  /// Reply channels hold a client's whole outstanding train (<= 16 tickets
  /// of 2 words) with room to spare.
  static constexpr std::size_t kReplyWords = 64;

  /// `server_core`: home tile of the shared request channel (the tile the
  /// serving thread runs on; with a server pool, the first server's tile).
  /// `max_inflight` > 0 enables the Section 6 overflow guard exactly as in
  /// MpServer.
  VlinkServer(arch::VlinkFabric& fab, rt::Tid server_core, void* obj,
              std::uint64_t max_inflight = 0,
              std::size_t req_words = kDefaultReqWords)
      : fab_(fab), obj_(obj), max_inflight_(max_inflight) {
    req_ch_ = fab_.create_channel(server_core, req_words);
    for (auto& r : reply_ch_) r = kNoChannel;
  }

  void* object() const { return obj_; }
  std::uint32_t request_channel() const { return req_ch_; }

  /// Client side: executes `fn(obj, arg)` under the server and returns its
  /// result. Routed through the async path while tickets are outstanding
  /// (a plain pop would reap another ticket's reply first).
  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "VlinkServer::apply");
    if (async_[tid].outstanding > 0) {
      Ticket t = apply_async(ctx, fn, arg);
      return wait(ctx, t);
    }
    ensure_reply_channel(ctx, tid);
    obs::Span<Ctx> span(ctx, "vlink.request");
    explore_point(ctx, "vlink.pre_send");
    if (max_inflight_ != 0) {
      acquire_credit(ctx, &inflight_, max_inflight_, stats_[tid].s);
    }
    ctx.vlink_push(req_ch_, {tid, rt::to_word(fn), arg});
    std::uint64_t m[2];
    ctx.vlink_pop(reply_ch_[tid], m, 2);
    if (max_inflight_ != 0) ctx.faa(&inflight_, ~std::uint64_t{0});
    return m[1];
  }

  /// Issues `fn(obj, arg)` without blocking on the reply; reap with wait()
  /// or wait_all(). A pending ticket holds its in-flight credit until the
  /// reply reaches this client (docs/MODEL.md §9).
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "VlinkServer::apply_async");
    ensure_reply_channel(ctx, tid);
    SyncStats& st = stats_[tid].s;
    TicketBook& a = async_[tid];
    obs::Span<Ctx> span(ctx, "vlink.request");
    explore_point(ctx, "vlink.async_issue");
    if (max_inflight_ != 0) {
      acquire_credit(ctx, &inflight_, max_inflight_, st,
                     [&] { return drain_reply(ctx, a, replies(tid)); });
    }
    const std::uint64_t tag = a.issue();
    ctx.vlink_push(req_ch_, {pack_request_id(tid, tag), rt::to_word(fn), arg});
    ++st.async_issued;
    return Ticket{.tag = tag, .issued = ctx.now()};
  }

  /// Reaps one ticket on the issuing thread. Replies for other outstanding
  /// tickets arriving first are staged in the context for their own wait()
  /// (a server pool may complete requests out of issue order).
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "VlinkServer::wait");
    return reap(ctx, async_[tid], replies(tid), t, "vlink.reap");
  }

  /// Reaps every outstanding ticket of the calling thread.
  void wait_all(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "VlinkServer::wait_all");
    reap_all(ctx, async_[tid], replies(tid), "vlink.reap");
  }

  /// Server side: drains the shared request channel until a stop frame
  /// arrives. Any number of threads may serve concurrently (MPMC pops are
  /// frame-atomic); send one request_stop() per serving thread.
  ///
  /// With a pool, CS bodies run CONCURRENTLY across the serving threads —
  /// unlike single-server delegation, a pool does not serialize the object.
  /// Pool CS bodies must therefore be thread-safe (atomic RMWs, disjoint
  /// state, a lock of their own); a plain load/store body loses updates
  /// exactly as it would under direct concurrent access.
  void serve(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "VlinkServer::serve");
    SyncStats& st = stats_[ctx.tid()].s;
    for (;;) {
      explore_point(ctx, "vlink.serve");
      std::uint64_t m[3];
      ctx.vlink_pop(req_ch_, m, 3);
      if (m[1] == kStopWord) return;
      obs::Span<Ctx> cs(ctx, "vlink.cs");
      Fn fn = rt::from_word<std::remove_pointer_t<Fn>>(m[1]);
      const std::uint64_t ret = fn(ctx, obj_, m[2]);
      const Tid tid = request_tid(m[0]);
      ctx.vlink_push(reply_ch_[tid],
                     {kAsyncReplyMark | request_tag(m[0]), ret});
      ++st.served;
    }
  }

  /// Asks one serving thread to exit (FIFO: queued requests drain first).
  void request_stop(Ctx& ctx) { ctx.vlink_push(req_ch_, {0, kStopWord, 0}); }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "VlinkServer::stats");
    return stats_[t].s;
  }

  /// Requests currently holding an overflow-guard credit (0 when the guard
  /// is off). Telemetry gauge — plain snapshot read, never synchronizing.
  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(rt::kCacheLine) PaddedStats {
    SyncStats s;
  };
  /// A client's reply channel as a ticket-protocol reply stream: 2-word
  /// frames, each releasing one credit of `credits` (null: guard off).
  struct Replies {
    std::uint32_t ch;
    Word* credits;

    bool empty(Ctx& ctx) const { return ctx.vlink_empty(ch); }
    ReplyFrame pull(Ctx& ctx) const {
      std::uint64_t m[2];
      ctx.vlink_pop_async(ch, m, 2);
      if (credits != nullptr) ctx.faa(credits, ~std::uint64_t{0});
      return {reply_tag(m[0]), m[1]};
    }
  };

  /// Lazily anchors this client's reply channel at its current core. First
  /// touch is deterministic (the simulation itself is), so channel ids —
  /// and therefore timing — replay identically for a given seed.
  void ensure_reply_channel(Ctx& ctx, Tid tid) {
    if (reply_ch_[tid] == kNoChannel) {
      reply_ch_[tid] = fab_.create_channel(ctx.core(), kReplyWords);
    }
  }

  Replies replies(Tid tid) {
    return {reply_ch_[tid], max_inflight_ != 0 ? &inflight_ : nullptr};
  }

  arch::VlinkFabric& fab_;
  void* obj_;
  std::uint64_t max_inflight_;
  std::uint32_t req_ch_ = 0;
  alignas(rt::kCacheLine) Word inflight_{0};
  std::uint32_t reply_ch_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
  TicketBook async_[kMaxThreads];
};

}  // namespace hmps::sync
