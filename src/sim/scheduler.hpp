// Discrete-event scheduler driving a set of fibers on simulated time.
//
// The scheduler owns the global clock. Fibers advance time by calling
// wait_until()/suspend() from inside their bodies; external machine models
// (NoC, message buffers, ...) schedule plain callbacks with at().
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/perturb.hpp"
#include "sim/types.hpp"

namespace hmps::sim {

/// A fiber's wait loop, cut into steps the scheduler can run without
/// switching into the fiber (Scheduler::spin). Each step applies the
/// effects of one operation at the current time and returns the wait that
/// follows it. The object lives on the parked fiber's stack, so its state
/// must stay valid until spin() returns.
class Stepper {
 public:
  struct Wait {
    Cycle until;  ///< absolute end of the wait (clamped to now)
    bool last;    ///< the fiber itself resumes when this wait ends
  };
  virtual Wait step() = 0;

 protected:
  ~Stepper() = default;
};

class Scheduler {
 public:
  using FiberId = std::uint32_t;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates a fiber and schedules its first resume at `start` (default:
  /// current time). Returns its id.
  FiberId spawn(std::function<void()> fn, Cycle start = 0,
                std::size_t stack_bytes = Fiber::kDefaultStack);

  /// Runs events until the queue is empty, `horizon` is passed, or stop()
  /// is called. Returns the simulated time reached.
  Cycle run(Cycle horizon = kCycleMax);

  /// Requests run() to return after the current event completes. Callable
  /// from inside fibers or callbacks.
  void stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  Cycle now() const { return now_; }

  /// Schedules an arbitrary callback at absolute time t (>= now). Small
  /// callables (<= EventFn::kInlineBytes of captures) are stored inline in
  /// the event record — no heap allocation.
  template <class F>
  void at(Cycle t, F&& cb) {
    queue_.schedule(t < now_ ? now_ : t, std::forward<F>(cb));
  }

  /// Engine self-counters (events scheduled/executed, allocation escapes).
  const EngineCounters& engine_counters() const { return queue_.counters(); }

  /// Pre-sizes the event pool, wheel buckets, and overflow heap (see
  /// EventQueue::reserve).
  void reserve_events(std::size_t n, std::size_t per_bucket = 0) {
    queue_.reserve(n, per_bucket);
  }

  /// Enables/disables the wait_until() fast path (on by default). With it
  /// off every wait schedules a resume and round-trips through the event
  /// queue — the reference serial order. Tests assert golden-trace equality
  /// between the two modes to pin the fast path's claim that nothing
  /// observable changes (tests/test_sim_engine.cpp); everything else should
  /// leave it on.
  void set_fast_forward_enabled(bool on) { fast_forward_enabled_ = on; }
  bool fast_forward_enabled() const { return fast_forward_enabled_; }

  /// Installs (or removes, with nullptr) a schedule perturber. Every fiber
  /// resume scheduled afterwards is offered to it; nothing else in the
  /// engine changes, so a null perturber keeps event order byte-identical
  /// to a build without the hook.
  void set_perturber(Perturber* p) { perturber_ = p; }
  Perturber* perturber() const { return perturber_; }

  // ---- Fiber-side API (must be called from inside a running fiber) ----

  /// Blocks the current fiber until absolute time t.
  void wait_until(Cycle t);

  /// Blocks the current fiber for `d` cycles.
  void wait_for(Cycle d) { wait_until(now_ + d); }

  /// Runs `s` as the current fiber's wait loop. Observably the same as
  ///   for (;;) { w = s.step(); wait_until(w.until); if (w.last) break; }
  /// — the same perturber calls, fast-forwards and queue entries in the
  /// same order — but once a wait has to go through the queue the fiber
  /// parks, and the steps that follow run on whichever stack pops the
  /// fiber's step entries (the run loop or another fiber's
  /// park_and_dispatch). The fiber is switched back in only for the last
  /// wait, so a poll loop costs no fiber switch per iteration
  /// (docs/ENGINE.md, "Scheduler-side spin stepping").
  void spin(Stepper& s);

  /// Blocks the current fiber indefinitely; resume via wake().
  void suspend();

  /// Schedules fiber `id` to resume at time t (>= now). Only valid for
  /// fibers blocked via suspend().
  void wake(FiberId id, Cycle t);
  void wake_now(FiberId id) { wake(id, now_); }

  /// Id of the fiber currently executing. Only valid inside a fiber.
  FiberId current() const {
    assert(current_ != kNoFiber);
    return current_;
  }
  bool in_fiber() const { return current_ != kNoFiber; }

  bool fiber_finished(FiberId id) const { return fibers_[id]->finished(); }
  std::size_t fiber_count() const { return fibers_.size(); }

  static constexpr FiberId kNoFiber = ~FiberId{0};

 private:
  void schedule_resume(FiberId id, Cycle t);     // applies the perturber

  /// The one wait primitive behind wait_until() and spin(): applies the
  /// perturber delay to fiber `id`'s wait until `t`, then either
  /// fast-forwards the clock there (returns true) or schedules the fiber's
  /// resume — a step entry when `step` — at that time (returns false).
  bool advance(FiberId id, Cycle t, bool step);

  /// Runs parked fiber `id`'s stepper at now() (its step entry just
  /// popped) until a step's wait is scheduled (returns false) or the last
  /// wait fast-forwards (returns true: the fiber resumes now).
  bool run_steps(FiberId id);

  /// Parks fiber `f` (the one currently running). If the next event due is
  /// another fiber's resume, switches straight into it — one context switch
  /// instead of the yield-to-scheduler + resume pair — repeating the run
  /// loop's skip of finished fibers; otherwise yields to the run loop.
  /// Step entries popped on the way run in place (run_steps), and `f`'s
  /// own resume simply returns: there is nothing to switch to.
  void park_and_dispatch(Fiber& f);

  EventQueue queue_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Stepper*> steppers_;  ///< per fiber; set while parked in spin()
  Cycle now_ = 0;
  Cycle horizon_ = kCycleMax;  ///< run() window; bounds the wait fast path
  FiberId current_ = kNoFiber;
  bool stop_requested_ = false;
  bool fast_forward_enabled_ = true;
  Perturber* perturber_ = nullptr;
};

}  // namespace hmps::sim
