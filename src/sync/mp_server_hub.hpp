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
// The hub is an MpServer whose request word 1 is an opcode: it shares
// MpServer's request path (Section 6 overflow guard — one hardware buffer
// serves every registered object, so one credit pool bounds it), ticket
// API (docs/MODEL.md §9), stop and stats, under "hub.*" span and explore
// point names. Only serve() differs, in how it turns the opcode into a CS
// call.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <vector>

#include "sync/cs.hpp"
#include "sync/mp_server.hpp"

namespace hmps::sync {

inline constexpr MpServerNames kMpServerHubNames{
    "MpServerHub", "hub.request", "hub.pre_send", "hub.async_issue",
    "hub.reap",    "hub.serve",   "hub.cs"};

template <class Ctx>
class MpServerHub : public MpServer<Ctx, kMpServerHubNames> {
  using Base = MpServer<Ctx, kMpServerHubNames>;

 public:
  using typename Base::Fn;

  explicit MpServerHub(Tid server_tid, std::uint64_t max_inflight = 0)
      : Base(server_tid, nullptr, max_inflight) {}

  /// Registers a critical-section body bound to an object; returns its
  /// opcode. All registrations must happen before serve() starts.
  std::uint64_t add_op(Fn fn, void* obj) {
    ops_.push_back(Entry{fn, obj});
    return ops_.size();  // opcode 0 is the stop word
  }

  std::size_t op_count() const { return ops_.size(); }

  /// Opcode of the first registration of `fn`.
  std::uint64_t opcode_of(Fn fn) const {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].fn == fn) return i + 1;
    }
    std::fprintf(stderr, "hmps fatal: MpServerHub: unregistered CS body\n");
    std::abort();
  }

  /// Client side: executes the CS registered under `opcode`.
  std::uint64_t apply(Ctx& ctx, std::uint64_t opcode, std::uint64_t arg) {
    assert(opcode >= 1 && opcode <= ops_.size());
    return this->request(ctx, opcode, arg);
  }

  /// Issues the CS registered under `opcode` without blocking on the
  /// response; reap with wait() / wait_all() on the issuing thread.
  Ticket apply_async(Ctx& ctx, std::uint64_t opcode, std::uint64_t arg) {
    assert(opcode >= 1 && opcode <= ops_.size());
    return this->request_async(ctx, opcode, arg);
  }

  /// Server side: serves all registered objects until a stop request.
  void serve(Ctx& ctx) {
    this->serve_with(ctx, [this](Ctx& c, std::uint64_t op, std::uint64_t arg) {
      const Entry& e = ops_[op - 1];
      return e.fn(c, e.obj, arg);
    });
  }

 private:
  struct Entry {
    Fn fn;
    void* obj;
  };

  std::vector<Entry> ops_;
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
