// Cooperative fibers (stackful coroutines).
//
// Each simulated hardware thread runs as one fiber; the discrete-event
// scheduler switches between fibers on a single host thread, which is what
// makes the whole simulation deterministic and data-race-free by
// construction.
//
// On x86-64 ELF targets the switch is a hand-rolled, ABI-minimal context
// swap (callee-saved registers only — no kernel entry); everywhere else it
// falls back to POSIX ucontext, whose swapcontext pays a signal-mask syscall
// pair per switch. Fiber stacks are recycled through a thread-local pool so
// steady-state fiber creation allocates nothing. See docs/ENGINE.md.
//
// Lifetime note: a simulation window may end while fibers are blocked
// (e.g. in a message receive). Such fibers are never resumed again and their
// stack frames are reclaimed WITHOUT unwinding — destructors of locals on a
// blocked fiber's stack do not run. Simulation code therefore keeps only
// trivially-destructible state (or state owned outside the fiber) on fiber
// stacks.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>

#if !(defined(__x86_64__) && defined(__ELF__))
#define HMPS_FIBER_UCONTEXT 1
#include <ucontext.h>
#else
#define HMPS_FIBER_UCONTEXT 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define HMPS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HMPS_FIBER_ASAN 1
#endif
#endif
#ifndef HMPS_FIBER_ASAN
#define HMPS_FIBER_ASAN 0
#endif

#if HMPS_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#if !HMPS_FIBER_UCONTEXT
extern "C" void hmps_fiber_entry();
/// Saves the callee-saved register state on the current stack, parks the
/// stack pointer in *save_sp, and switches to load_sp. Defined (as inline
/// asm) in fiber.cpp.
extern "C" void hmps_ctx_switch(void** save_sp, void* load_sp);
#endif

namespace hmps::sim {

class Fiber {
 public:
  enum class State { kReady, kRunning, kBlocked, kFinished };

  /// `fn` is the fiber body; it runs when the fiber is first resumed.
  Fiber(std::function<void()> fn, std::size_t stack_bytes = kDefaultStack);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  /// Transfers control from the calling (host/scheduler) context into the
  /// fiber. Returns when the fiber yields or finishes. Inline on the asm
  /// path: this runs once per simulated event, so the call overhead of an
  /// out-of-line definition is measurable across a sweep.
  void resume();

  /// Transfers control from inside the fiber back to whoever resumed it.
  /// Must only be called on the currently running fiber.
  void yield();

  /// Transfers control directly from this fiber (which must be the one
  /// currently running) into `next`, without bouncing through the scheduler
  /// context: one context switch instead of the yield+resume pair. The
  /// parked scheduler continuation travels along the switch chain, so
  /// whichever fiber eventually yields returns to the original resume()
  /// call, exactly as if the scheduler had interleaved the two fibers.
  void switch_to(Fiber& next);

  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }

  void set_state(State s) { state_ = s; }

  static constexpr std::size_t kDefaultStack = 256 * 1024;

  /// Stacks reused from the thread-local pool instead of freshly allocated
  /// (observability for the zero-allocation tests and engine_micro).
  static std::uint64_t stack_pool_hits();

 private:
#if !HMPS_FIBER_UCONTEXT
  friend void ::hmps_fiber_entry();
#endif

  static void trampoline();

  std::function<void()> fn_;
  char* stack_;  ///< owned; recycled through a thread-local stack pool
  std::size_t stack_bytes_;
#if HMPS_FIBER_UCONTEXT
  ucontext_t ctx_{};
  ucontext_t caller_{};
#else
  void* ctx_sp_ = nullptr;     ///< fiber's parked stack pointer
  void* caller_sp_ = nullptr;  ///< resumer's parked stack pointer
#if HMPS_FIBER_ASAN
  void* asan_fake_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;

  /// finish_switch_fiber + caller-bounds bookkeeping at a park site (yield
  /// or switch_to): the waker is either resume() — take the bounds ASan
  /// reports — or switch_to(), which staged the scheduler-stack bounds it
  /// inherited (detail::g_xfer_*), since its own stack is NOT where this
  /// fiber's next yield will land.
  void asan_on_wake();
#endif
#endif
  State state_ = State::kReady;
  bool started_ = false;
};

namespace detail {
/// Slots the switch primitives communicate through (the context-switch
/// cannot portably carry a pointer argument). thread_local, not plain
/// globals: each simulation is single-host-threaded, but the run pool
/// (harness/run_pool.hpp) drives independent simulations on separate host
/// threads, and a fiber is always resumed/yielded on the host thread that
/// owns its scheduler. Defined in fiber.cpp.
/// constinit matters beyond style: it removes the thread_local init-wrapper
/// (the `_ZTH` weak-symbol test) from every access. That test sits on the
/// hottest edge in the engine, and under -fsanitize=null GCC 12 fuses the
/// wrapper's flags into the null-check branch for the TLS address itself,
/// producing a bogus "store to null pointer" report on every fiber switch.
extern constinit thread_local Fiber* g_starting;
extern constinit thread_local Fiber* g_current;
#if !HMPS_FIBER_UCONTEXT && HMPS_FIBER_ASAN
/// Scheduler-stack bounds staged by switch_to() for the fiber it wakes
/// (see Fiber::asan_on_wake).
extern constinit thread_local const void* g_xfer_bottom;
extern constinit thread_local std::size_t g_xfer_size;
extern constinit thread_local bool g_xfer_pending;
#endif
}  // namespace detail

#if !HMPS_FIBER_UCONTEXT

inline void Fiber::resume() {
  assert(state_ != State::kFinished && "resuming a finished fiber");
  Fiber* prev = detail::g_current;
  detail::g_current = this;
  state_ = State::kRunning;
  if (!started_) {
    started_ = true;
    detail::g_starting = this;
  }
#if HMPS_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, stack_, stack_bytes_);
#endif
  hmps_ctx_switch(&caller_sp_, ctx_sp_);
#if HMPS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  detail::g_current = prev;
  if (state_ == State::kRunning) state_ = State::kReady;
}

inline void Fiber::yield() {
  assert(detail::g_current == this && "yield called off-fiber");
#if HMPS_FIBER_ASAN
  __sanitizer_start_switch_fiber(&asan_fake_, asan_caller_bottom_,
                                 asan_caller_size_);
#endif
  hmps_ctx_switch(&ctx_sp_, caller_sp_);
#if HMPS_FIBER_ASAN
  asan_on_wake();
#endif
}

inline void Fiber::switch_to(Fiber& next) {
  assert(detail::g_current == this && "switch_to called off-fiber");
  assert(&next != this && "switch_to self");
  assert(next.state_ != State::kFinished && "switching to a finished fiber");
  // The scheduler continuation this fiber holds moves to `next`: when the
  // switch chain ends (some fiber yields), control lands back in the run
  // loop's resume() call.
  next.caller_sp_ = caller_sp_;
  detail::g_current = &next;
  next.state_ = State::kRunning;
  if (!next.started_) {
    next.started_ = true;
    detail::g_starting = &next;
  }
#if HMPS_FIBER_ASAN
  detail::g_xfer_bottom = asan_caller_bottom_;
  detail::g_xfer_size = asan_caller_size_;
  detail::g_xfer_pending = true;
  __sanitizer_start_switch_fiber(&asan_fake_, next.stack_, next.stack_bytes_);
#endif
  hmps_ctx_switch(&ctx_sp_, next.ctx_sp_);
#if HMPS_FIBER_ASAN
  asan_on_wake();
#endif
}

#endif  // !HMPS_FIBER_UCONTEXT

}  // namespace hmps::sim
