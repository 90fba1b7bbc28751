//! Criterion benchmarks of the simulation substrate: event queue
//! throughput, engine dispatch, and fluid-flow link churn.
//!
//! These establish that the DES engine is fast enough for the paper's
//! 1000-run Monte-Carlo campaigns (one CHIMERA run handles a few thousand
//! events; the engine sustains millions per second).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pckpt_desim::{
    Ctx, EventQueue, FlowLink, Model, ReferenceFlowLink, SimDuration, SimTime, Simulation,
};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("schedule_pop_10k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..10_000u64 {
                    // Pseudo-random times. Scheduled before the first pop,
                    // this batch is the queue's sorted run: one in-place
                    // sort at the first pop, then pops from its end.
                    let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
                    q.schedule_at(SimTime::from_nanos(t + 1_000_000), i);
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("schedule_cancel_half_10k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                let ids: Vec<_> = (0..10_000u64)
                    .map(|i| q.schedule_at(SimTime::from_nanos(i + 1), i))
                    .collect();
                for id in ids.iter().step_by(2) {
                    q.cancel(*id);
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// A self-rescheduling ticker used to measure raw dispatch throughput.
struct Ticker {
    remaining: u32,
}

impl Model for Ticker {
    type Event = ();

    fn init(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.schedule_in(SimDuration::from_nanos(1), ());
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.schedule_in(SimDuration::from_nanos(1), ());
        }
    }
}

fn bench_engine_dispatch(c: &mut Criterion) {
    c.bench_function("engine_dispatch_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Ticker { remaining: 100_000 });
            sim.run();
            black_box(sim.events_handled())
        })
    });
}

/// The churn driver shared by the virtual-time and reference links: load
/// the link with 1000 *concurrent* flows of staggered sizes, then for
/// each completion immediately start a replacement, until 1000 flows
/// have churned through. The link therefore holds ~1000 live flows at
/// every completion event — exactly the regime where the reference
/// implementation's per-flow O(n) bookkeeping dominates.
macro_rules! churn_1k_concurrent {
    ($link:expr) => {{
        let mut link = $link;
        let t0 = SimTime::ZERO;
        for i in 0..1_000u64 {
            link.start(t0, 1e6 + i as f64 * 1e3);
        }
        let mut now = t0;
        let mut churned = 0u32;
        while churned < 1_000 {
            let fin = link
                .next_completion(now)
                .expect("churn keeps the link busy");
            now = fin.max(now);
            let done = link.take_completed(now);
            if done.is_empty() {
                // Float dust: the completion rounds to the next ns.
                now += SimDuration::from_nanos(1);
                continue;
            }
            for &(_, bytes, _) in done.iter() {
                link.start(now, bytes);
                churned += 1;
            }
        }
        black_box(link.bytes_moved())
    }};
}

fn bench_flow_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_link_churn");
    group.bench_function("virtual_1k_concurrent", |b| {
        b.iter(|| churn_1k_concurrent!(FlowLink::with_constant_capacity(1e9)))
    });
    group.bench_function("reference_1k_concurrent", |b| {
        b.iter(|| churn_1k_concurrent!(ReferenceFlowLink::with_constant_capacity(1e9)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_engine_dispatch,
    bench_flow_link
);
criterion_main!(benches);
