// Object farms for the harness drivers: N instances of one sequential
// object behind one serialization domain (a construction or a sharded
// fleet). A CS argument addresses its object in the high half
// (obj << 32 | arg32, sync::ShardedServer::pack_obj_arg). Per-object
// state starts on its own cache line (the ds objects are
// alignas(kCacheLine)), so popularity skew shows up as working-set
// locality at the serving core, and a sharded object is only ever touched
// by its home shard's serve fiber.
#pragma once

#include <cstdint>

#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "runtime/sim_context.hpp"

namespace hmps::harness {

template <class T, std::uint32_t N>
struct Farm {
  T objs[N];  // in place: SeqQueue nodes self-reference, so it must not move
};

/// The farm object a packed argument addresses.
template <class T, std::uint32_t N>
T* farm_obj(void* f, std::uint64_t a) {
  return &static_cast<Farm<T, N>*>(f)->objs[(a >> 32) % N];
}

template <std::uint32_t N>
std::uint64_t farm_inc(rt::SimCtx& ctx, void* f, std::uint64_t a) {
  return ds::counter_inc(ctx, farm_obj<ds::SeqCounter, N>(f, a), 0);
}
template <std::uint32_t N>
std::uint64_t farm_get(rt::SimCtx& ctx, void* f, std::uint64_t a) {
  return ds::counter_get(ctx, farm_obj<ds::SeqCounter, N>(f, a), 0);
}
template <std::uint32_t N>
std::uint64_t farm_enq(rt::SimCtx& ctx, void* f, std::uint64_t a) {
  return ds::q_enqueue(ctx, farm_obj<ds::SeqQueue, N>(f, a), a & 0xFFFFFFFFu);
}
template <std::uint32_t N>
std::uint64_t farm_deq(rt::SimCtx& ctx, void* f, std::uint64_t a) {
  return ds::q_dequeue(ctx, farm_obj<ds::SeqQueue, N>(f, a), 0);
}
template <std::uint32_t N>
std::uint64_t farm_push(rt::SimCtx& ctx, void* f, std::uint64_t a) {
  return ds::s_push(ctx, farm_obj<ds::SeqStack, N>(f, a), a & 0xFFFFFFFFu);
}
template <std::uint32_t N>
std::uint64_t farm_pop(rt::SimCtx& ctx, void* f, std::uint64_t a) {
  return ds::s_pop(ctx, farm_obj<ds::SeqStack, N>(f, a), 0);
}

}  // namespace hmps::harness
