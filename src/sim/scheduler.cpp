#include "sim/scheduler.hpp"

namespace hmps::sim {

Scheduler::FiberId Scheduler::spawn(std::function<void()> fn, Cycle start,
                                    std::size_t stack_bytes) {
  const FiberId id = static_cast<FiberId>(fibers_.size());
  assert(id < EventQueue::kMaxFibers);
  fibers_.push_back(std::make_unique<Fiber>(std::move(fn), stack_bytes));
  steppers_.push_back(nullptr);
  schedule_resume(id, start);
  return id;
}

void Scheduler::schedule_resume(FiberId id, Cycle t) {
  if (perturber_ != nullptr) [[unlikely]] {
    t += perturber_->resume_delay(id, t);
  }
  queue_.schedule_resume(t, id);
}

Cycle Scheduler::run(Cycle horizon) {
  stop_requested_ = false;
  horizon_ = horizon;
  while (!queue_.empty() && !stop_requested_) {
    Cycle t;
    const std::uint32_t e = queue_.pop_entry(horizon, &t);
    if (e == EventQueue::kNoEvent) {  // earliest event lies past the horizon
      now_ = horizon;
      break;
    }
    now_ = t;
    if (EventQueue::is_resume(e)) {
      const FiberId id = EventQueue::resume_fiber(e);
      // A stepping fiber is parked, never finished; most of its entries
      // end in run_steps without touching the fiber at all.
      if (EventQueue::is_step(e)) {
        if (!run_steps(id)) continue;
      } else if (fibers_[id]->finished()) {
        continue;  // resume raced the fiber's exit
      }
      const FiberId prev = current_;
      current_ = id;
      fibers_[id]->resume();
      current_ = prev;
    } else {
      EventQueue::Callback cb = queue_.claim(e);
      cb();
    }
  }
  if (!sleepers_.empty()) [[unlikely]] {
    if (stop_requested_) {
      catch_up_sleepers(now_);  // this cycle's steps have not run yet
    } else if (horizon != kCycleMax) {
      // Their steps would have kept the queue busy up to the horizon, and
      // the ones due at the horizon itself would have run.
      now_ = horizon;
      catch_up_sleepers(horizon + 1);
    }
    // With no horizon and only sleepers left the unelided engine would
    // step forever; return instead, leaving them asleep.
  }
  return now_;
}

bool Scheduler::advance(FiberId id, Cycle t, bool step) {
  if (t < now_) t = now_;
  if (perturber_ != nullptr) [[unlikely]] {
    t += perturber_->resume_delay(id, t);
  }
  // Fast path: if no other event fires at or before t, the serial course of
  // events is "pop this fiber's resume at t" with nothing in between — so
  // skip the schedule + pop + two context switches and just advance the
  // clock. Disallowed after stop() (the fiber must yield so run() can
  // return) and past the run() horizon (run() must regain control there).
  if (fast_forward_enabled_ && !stop_requested_ && t <= horizon_ &&
      queue_.fast_forward(t)) {
    now_ = t;
    return true;
  }
  queue_.schedule_resume(t, id, step);
  return false;
}

void Scheduler::wait_until(Cycle t) {
  assert(in_fiber());
  const FiberId id = current_;
  if (!advance(id, t, /*step=*/false)) park_and_dispatch(*fibers_[id]);
}

void Scheduler::spin(Stepper& s) {
  assert(in_fiber());
  const FiberId id = current_;
  steppers_[id] = &s;
  // Steps whose waits fast-forward run right here, on the fiber's stack.
  for (;;) {
    const Stepper::Wait w = s.step();
    if (w.last) {
      wait_until(w.until);
      return;
    }
    if (w.watch != Stepper::kNoWatch) {
      sleep(id, w.watch);
      break;
    }
    if (!advance(id, w.until, /*step=*/true)) break;
  }
  park_and_dispatch(*fibers_[id]);
}

bool Scheduler::run_steps(FiberId id) {
  Stepper& s = *steppers_[id];
  const FiberId prev = current_;
  current_ = id;  // the step acts for the parked fiber
  bool resumes = false;
  for (;;) {
    const Stepper::Wait w = s.step();
    if (w.watch != Stepper::kNoWatch) {
      sleep(id, w.watch);
      break;
    }
    if (!advance(id, w.until, /*step=*/!w.last)) break;
    if (w.last) {  // the last wait fast-forwarded: the fiber resumes now
      resumes = true;
      break;
    }
  }
  current_ = prev;
  return resumes;
}

void Scheduler::sleep(FiberId id, std::uint64_t key) {
  sleepers_.push_back(Sleeper{key, id});
  queue_.count_sleep();
}

void Scheduler::notify_slow(std::uint64_t key, bool all) {
  for (std::size_t i = 0; i < sleepers_.size();) {
    const Sleeper z = sleepers_[i];
    if (!all && z.key != key) {
      ++i;
      continue;
    }
    sleepers_[i] = sleepers_.back();
    sleepers_.pop_back();
    // Never perturbed: steppers only sleep with no perturber installed.
    queue_.schedule_resume(steppers_[z.id]->catch_up(now_), z.id,
                           /*step=*/true);
  }
}

void Scheduler::catch_up_sleepers(Cycle t) {
  for (const Sleeper& z : sleepers_) steppers_[z.id]->catch_up(t);
}

void Scheduler::park_and_dispatch(Fiber& f) {
  f.set_state(Fiber::State::kBlocked);
  if (!stop_requested_) {
    while (!queue_.empty()) {
      Cycle t;
      const std::uint32_t e = queue_.pop_resume(horizon_, &t);
      if (e == EventQueue::kNoEvent) break;  // callback next, or past horizon
      now_ = t;
      const FiberId id = EventQueue::resume_fiber(e);
      if (EventQueue::is_step(e)) {
        if (!run_steps(id)) continue;
      } else if (fibers_[id]->finished()) {
        continue;  // stale resume, same skip as the run loop
      }
      current_ = id;
      Fiber& nf = *fibers_[id];
      if (&nf == &f) {  // this fiber's own wait ended first: no switch
        f.set_state(Fiber::State::kRunning);
        return;
      }
      f.switch_to(nf);
      return;
    }
  }
  f.yield();
}

void Scheduler::suspend() {
  assert(in_fiber());
  park_and_dispatch(*fibers_[current_]);
}

void Scheduler::wake(FiberId id, Cycle t) {
  schedule_resume(id, t < now_ ? now_ : t);
}

}  // namespace hmps::sim
