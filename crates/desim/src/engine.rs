//! The event-driven simulation loop.
//!
//! A model implements [`Model`] over its own event type; [`run_with_queue`]
//! runs its `init` once, then drives `handle` until the queue drains, the
//! model calls [`Ctx::stop`], or an event budget is spent. That is the
//! one loop: [`Simulation`] owns a queue and calls it, and campaign
//! workers call it on a queue they recycle between runs. The model
//! receives a [`Ctx`] giving it scheduling, instant claims and clock
//! access — but not access to the loop itself, so models cannot corrupt
//! the causal order.
//!
//! A model schedules an event with [`Ctx::schedule_in`] or
//! [`Ctx::schedule_at`]; nothing is cancelled, so a model drops an
//! event it no longer wants when it pops. The queue keeps the events
//! `init` schedules in its sorted run and later ones in its heap (see
//! [`EventQueue`]), and every pop takes the earlier of the two heads, so
//! the loop pops once per event in one `(time, seq)` order.
//!
//! A model may keep an instant out of the queue: it arms it with
//! [`Ctx::mark`] and takes it with [`Ctx::claim`], which succeeds where
//! an event scheduled at the arming would have popped next. A claim only
//! moves the clock to an instant that precedes every queued event, so
//! the causal order stays the loop's.
//!
//! ```
//! use pckpt_desim::{Ctx, Model, SimDuration, Simulation};
//!
//! /// Emits one event per second and counts them.
//! struct Heartbeat {
//!     beats: u32,
//! }
//!
//! impl Model for Heartbeat {
//!     type Event = ();
//!     fn init(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         ctx.schedule_in(SimDuration::from_secs(1.0), ());
//!     }
//!     fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
//!         self.beats += 1;
//!         if self.beats < 5 {
//!             ctx.schedule_in(SimDuration::from_secs(1.0), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Heartbeat { beats: 0 });
//! sim.run();
//! assert_eq!(sim.model().beats, 5);
//! assert_eq!(sim.now().as_secs(), 5.0);
//! ```

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Why the simulation loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No live events remained.
    Drained,
    /// The model requested a stop via [`Ctx::stop`].
    Requested,
    /// The configured event budget was exhausted (runaway protection).
    EventBudget,
}

/// Scheduling context handed to [`Model::handle`].
pub struct Ctx<'a, E> {
    queue: &'a mut EventQueue<E>,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules an event after `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule_in(delay, event)
    }

    /// Schedules an event at absolute time `at` (must not be in the past).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.schedule_at(at, event)
    }

    /// The tie mark of an instant armed now, to [`claim`](Self::claim) it
    /// by later (see [`EventQueue::mark`]).
    #[inline]
    pub fn mark(&self) -> u64 {
        self.queue.mark()
    }

    /// Takes the instant `at` armed with `mark`, moving the clock there,
    /// unless a queued event comes first (see [`EventQueue::claim`]).
    #[inline]
    pub fn claim(&mut self, at: SimTime, mark: u64) -> bool {
        self.queue.claim(at, mark)
    }

    /// Requests the loop to stop after the current event is handled.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// A discrete-event model: typed events plus a handler.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Called once before the first event, to seed the queue.
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Event>);

    /// Handles one event at its scheduled time.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);
}

/// Owns the queue and runs a [`Model`] to completion, once.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    events_handled: u64,
    event_budget: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation around `model`. `init` has not run yet; it
    /// runs when [`run`](Self::run) is called.
    pub fn new(model: M) -> Self {
        Self {
            model,
            queue: EventQueue::new(),
            events_handled: 0,
            event_budget: u64::MAX,
        }
    }

    /// Caps the total number of handled events (default: unlimited). A
    /// safety net for property tests over adversarial inputs.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Runs `init`, then events until the queue drains, the model stops
    /// or the event budget is spent, through [`run_with_queue`] on the
    /// owned queue. Returns why.
    ///
    /// Call it once: a second call panics in [`run_with_queue`]'s
    /// empty-queue-at-t = 0 check whenever the first run moved the clock
    /// past t = 0 or left events pending.
    pub fn run(&mut self) -> StopReason {
        let (reason, handled) = run_with_queue(&mut self.model, &mut self.queue, self.event_budget);
        self.events_handled = handled;
        reason
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of events handled by [`run`](Self::run).
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Installs a structured-event recorder on the owned queue.
    pub fn set_recorder(&mut self, rec: pckpt_simobs::Recorder) {
        self.queue.set_recorder(rec);
    }

    /// Read-only access to the owned queue (observability: depth
    /// high-water mark, scheduled totals).
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

/// Runs `model` to completion against a caller-owned queue. This is the
/// one event loop: [`Simulation::run`] calls it on its own queue, and
/// campaign workers call it on one [`EventQueue`] recycled across many
/// runs via [`EventQueue::reset`] instead of constructing a
/// [`Simulation`] (and its queue) per run.
///
/// The queue must be empty and at t = 0 — i.e. freshly constructed or
/// just reset. `init` runs first, then events are handled until the
/// queue drains, the model stops, or `event_budget` events have been
/// handled. Returns the stop reason and the number of events handled.
// simlint: hot
pub fn run_with_queue<M: Model>(
    model: &mut M,
    queue: &mut EventQueue<M::Event>,
    event_budget: u64,
) -> (StopReason, u64) {
    assert!(
        queue.is_empty() && queue.now() == SimTime::ZERO,
        "run_with_queue needs an empty queue at t = 0 (call reset() between runs)"
    );
    let mut stop = false;
    let mut ctx = Ctx {
        queue,
        stop: &mut stop,
    };
    model.init(&mut ctx);
    if stop {
        return (StopReason::Requested, 0);
    }
    let mut handled = 0u64;
    loop {
        if handled >= event_budget {
            return (StopReason::EventBudget, handled);
        }
        let Some((_, _, event)) = queue.pop() else {
            return (StopReason::Drained, handled);
        };
        handled += 1;
        let mut ctx = Ctx {
            queue,
            stop: &mut stop,
        };
        model.handle(&mut ctx, event);
        if stop {
            return (StopReason::Requested, handled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that re-schedules itself `n` times at a fixed period.
    struct Ticker {
        period: SimDuration,
        remaining: u32,
        fire_times: Vec<SimTime>,
    }

    impl Model for Ticker {
        type Event = ();

        fn init(&mut self, ctx: &mut Ctx<'_, ()>) {
            if self.remaining > 0 {
                ctx.schedule_in(self.period, ());
            }
        }

        fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
            self.fire_times.push(ctx.now());
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule_in(self.period, ());
            }
        }
    }

    #[test]
    fn ticker_fires_periodically_and_drains() {
        let mut sim = Simulation::new(Ticker {
            period: SimDuration::from_secs(2.0),
            remaining: 3,
            fire_times: Vec::new(),
        });
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(
            sim.model().fire_times,
            vec![
                SimTime::from_secs(2.0),
                SimTime::from_secs(4.0),
                SimTime::from_secs(6.0)
            ]
        );
        assert_eq!(sim.events_handled(), 3);
    }

    #[test]
    #[should_panic(expected = "empty queue at t = 0")]
    fn simulation_runs_once() {
        let mut sim = Simulation::new(Ticker {
            period: SimDuration::from_secs(2.0),
            remaining: 3,
            fire_times: Vec::new(),
        });
        assert_eq!(sim.run(), StopReason::Drained);
        sim.run();
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..10 {
                ctx.schedule_in(SimDuration::from_secs(i as f64 + 1.0), i);
            }
        }
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
            if ev == 2 {
                ctx.stop();
            }
        }
    }

    #[test]
    fn model_can_stop_the_loop() {
        let mut sim = Simulation::new(Stopper);
        assert_eq!(sim.run(), StopReason::Requested);
        assert_eq!(sim.events_handled(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(3.0));
    }

    #[test]
    fn event_budget_guards_runaway_models() {
        let mut sim = Simulation::new(Ticker {
            period: SimDuration::from_secs(1.0),
            remaining: u32::MAX,
            fire_times: Vec::new(),
        })
        .with_event_budget(50);
        assert_eq!(sim.run(), StopReason::EventBudget);
        assert_eq!(sim.events_handled(), 50);
    }

    struct NowScheduler {
        order: Vec<u32>,
    }
    impl Model for NowScheduler {
        type Event = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.schedule_in(SimDuration::from_secs(1.0), 0);
        }
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
            self.order.push(ev);
            if ev == 0 {
                // Same-timestamp events run after already-queued peers, in
                // scheduling order.
                ctx.schedule_at(ctx.now(), 1);
                ctx.schedule_at(ctx.now(), 2);
            }
        }
    }

    #[test]
    fn run_with_queue_matches_owned_simulation_across_resets() {
        let mut queue = EventQueue::new();
        for _ in 0..3 {
            queue.reset();
            let mut model = Ticker {
                period: SimDuration::from_secs(2.0),
                remaining: 3,
                fire_times: Vec::new(),
            };
            let (reason, handled) = run_with_queue(&mut model, &mut queue, u64::MAX);
            assert_eq!(reason, StopReason::Drained);
            assert_eq!(handled, 3);
            assert_eq!(
                model.fire_times,
                vec![
                    SimTime::from_secs(2.0),
                    SimTime::from_secs(4.0),
                    SimTime::from_secs(6.0)
                ]
            );
        }
    }

    #[test]
    fn run_with_queue_honors_event_budget() {
        let mut queue = EventQueue::new();
        let mut model = Ticker {
            period: SimDuration::from_secs(1.0),
            remaining: u32::MAX,
            fire_times: Vec::new(),
        };
        let (reason, handled) = run_with_queue(&mut model, &mut queue, 50);
        assert_eq!(reason, StopReason::EventBudget);
        assert_eq!(handled, 50);
    }

    #[test]
    fn scheduling_at_now_preserves_fifo_at_same_instant() {
        let mut sim = Simulation::new(NowScheduler { order: Vec::new() });
        sim.run();
        assert_eq!(sim.model().order, vec![0, 1, 2]);
        assert_eq!(sim.now(), SimTime::from_secs(1.0));
    }
}
