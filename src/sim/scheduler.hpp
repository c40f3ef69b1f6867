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
///
/// A step may instead put the stepper to sleep on a watch key (Wait::watch):
/// the scheduler then schedules nothing for it until Scheduler::notify()
/// names that key. A sleeping stepper promises that every step it would
/// have run is predictable and commutes with everything but a notify of its
/// key, so catch_up() can apply any prefix of them in bulk (docs/ENGINE.md,
/// "Poll elision").
class Stepper {
 public:
  static constexpr std::uint64_t kNoWatch = ~std::uint64_t{0};

  struct Wait {
    Cycle until;  ///< absolute end of the wait (clamped to now)
    bool last;    ///< the fiber itself resumes when this wait ends
    /// Sleep on this key instead of scheduling the wait (never with last).
    std::uint64_t watch = kNoWatch;
  };
  virtual Wait step() = 0;

  /// Applies the effects of every step due strictly before `t` and returns
  /// the time of the next one (>= t); the following step() call runs that
  /// step. Called only on a stepper that is asleep, so a stepper that never
  /// returns a watch key is never asked.
  virtual Cycle catch_up(Cycle t) = 0;

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
  /// is called. Returns the simulated time reached. Sleeping steppers count
  /// as pending work: with a finite horizon a run whose queue drains while
  /// some sleep reaches the horizon, as it would had they kept stepping. On
  /// return their steps up to the time reached are applied (catch_up).
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

  /// Enables/disables sleeping steppers (on by default). With it off every
  /// wait-loop step goes through the queue — the reference the elided runs
  /// are tested against (tests/test_spin_step.cpp). Like the fast-forward
  /// switch it is a test hook, not a model knob.
  void set_poll_elision_enabled(bool on) { poll_elision_enabled_ = on; }

  /// Whether a stepper may sleep now: elision is enabled and no perturber
  /// is installed, so every resume point PCT perturbs stays in the queue.
  bool may_sleep() const {
    return poll_elision_enabled_ && perturber_ == nullptr;
  }

  /// Installs (or removes, with nullptr) a schedule perturber. Every fiber
  /// resume scheduled afterwards is offered to it; nothing else in the
  /// engine changes, so a null perturber keeps event order byte-identical
  /// to a build without the hook. Install it before steppers sleep.
  void set_perturber(Perturber* p) { perturber_ = p; }
  Perturber* perturber() const { return perturber_; }

  /// Wakes every stepper sleeping on `key`: applies its steps due strictly
  /// before now() and schedules its next step as a step entry. The tie
  /// rule (event_queue.hpp) puts that entry after every ordinary event of
  /// its cycle, which is where it would be had the stepper never slept.
  /// Call it at the instant of the event that invalidates the key.
  void notify(std::uint64_t key) {
    if (!sleepers_.empty()) [[unlikely]] notify_slow(key, /*all=*/false);
  }
  /// notify() for every sleeping stepper, whatever its key.
  void notify_all() {
    if (!sleepers_.empty()) notify_slow(0, /*all=*/true);
  }

  /// Applies every sleeping stepper's steps due strictly before now(); they
  /// keep sleeping. Observers of the state steps touch (cycle accounts,
  /// counters) call this before they read it mid-run.
  void catch_up_sleepers() { catch_up_sleepers(now_); }

  /// Steppers currently asleep.
  std::size_t sleeping() const { return sleepers_.size(); }

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
  /// popped) until a step's wait is scheduled or the stepper sleeps
  /// (returns false) or the last wait fast-forwards (returns true: the
  /// fiber resumes now).
  bool run_steps(FiberId id);

  /// Puts parked fiber `id`'s stepper to sleep on `key`.
  void sleep(FiberId id, std::uint64_t key);

  void notify_slow(std::uint64_t key, bool all);
  void catch_up_sleepers(Cycle t);

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
  struct Sleeper {
    std::uint64_t key;
    FiberId id;
  };
  std::vector<Sleeper> sleepers_;  ///< steppers asleep, unordered
  Cycle now_ = 0;
  Cycle horizon_ = kCycleMax;  ///< run() window; bounds the wait fast path
  FiberId current_ = kNoFiber;
  bool stop_requested_ = false;
  bool fast_forward_enabled_ = true;
  bool poll_elision_enabled_ = true;
  Perturber* perturber_ = nullptr;
};

}  // namespace hmps::sim
