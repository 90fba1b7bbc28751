//! Property-based tests of the DES engine: event ordering under random
//! schedules and cancellations, the queue's sorted run, heap and
//! uncancellable lane against a reference model, and byte conservation
//! in the fluid-flow link.

use proptest::prelude::*;

use pckpt_desim::{EventId, EventQueue, FlowLink, ReferenceFlowLink, SimTime};

/// Reference pending-event set: every live `(time ns, seq, payload)` in
/// a plain `Vec`; `pop` removes the minimum by `(time, seq)`.
#[derive(Default)]
struct RefQueue {
    live: Vec<(u64, u64, u32)>,
    issued: u64,
    hwm: usize,
}

impl RefQueue {
    fn schedule(&mut self, t: u64, payload: u32) {
        self.live.push((t, self.issued, payload));
        self.issued += 1;
        self.hwm = self.hwm.max(self.live.len());
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let before = self.live.len();
        self.live.retain(|&(_, s, _)| s != seq);
        self.live.len() < before
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        (0..self.live.len())
            .min_by_key(|&i| (self.live[i].0, self.live[i].1))
            .map(|i| self.live.remove(i))
    }
}

proptest! {
    /// The queue keeps cancellable events scheduled before its first pop
    /// in a sorted run, later ones in a heap and uncancellable ones in a
    /// lane of their own; together they behave exactly like the
    /// one-`Vec` reference, which treats an uncancellable event as one
    /// that nobody cancels. An initial batch (some of it cancelled before
    /// the first pop) is followed by random schedules of both kinds,
    /// cancels of any id the caller holds and pops, twice across a
    /// `reset`; every pop (its id included), `len`, `depth_hwm` and
    /// `scheduled_total` agrees. A `schedule_at` or `cancel` after a pop
    /// moves the run/heap head under the queue's cached head key, so a
    /// stale cache shows up here as a wrong pop.
    #[test]
    fn sorted_run_is_observationally_a_heap(
        initial in proptest::collection::vec((0u64..40, any::<bool>()), 0..100),
        ops in proptest::collection::vec((0u8..4, 0u64..40, any::<usize>()), 0..300),
    ) {
        let mut q = EventQueue::new();
        let mut rounds = Vec::new();
        for _ in 0..2 {
            q.reset();
            let mut oracle = RefQueue::default();
            // The id of every event by seq, once the caller holds it: at
            // schedule time for `schedule_at`, at pop time for the lane.
            let mut ids: Vec<Option<EventId>> = Vec::new();
            let mut popped = Vec::new();
            let mut next_payload = 0u32;
            for &(t, _) in &initial {
                ids.push(Some(q.schedule_at(SimTime::from_nanos(t), next_payload)));
                oracle.schedule(t, next_payload);
                next_payload += 1;
            }
            for (seq, &(_, cancel)) in initial.iter().enumerate() {
                if cancel {
                    prop_assert!(q.cancel(ids[seq].unwrap()));
                    prop_assert!(oracle.cancel(seq as u64));
                }
            }
            prop_assert_eq!(q.len(), oracle.live.len());
            for &(op, dt, pick) in &ops {
                let t = q.now().as_nanos() + dt;
                match op {
                    0 => {
                        ids.push(Some(q.schedule_at(SimTime::from_nanos(t), next_payload)));
                        oracle.schedule(t, next_payload);
                        next_payload += 1;
                    }
                    3 => {
                        q.schedule_uncancellable_at(SimTime::from_nanos(t), next_payload);
                        ids.push(None);
                        oracle.schedule(t, next_payload);
                        next_payload += 1;
                    }
                    1 if !ids.is_empty() => {
                        // Half the cancels hit the earliest pending
                        // cancellable event, the one the queue's cached
                        // head key names; the rest pick any seq.
                        let head = oracle
                            .live
                            .iter()
                            .filter(|&&(_, s, _)| ids[s as usize].is_some())
                            .min_by_key(|&&(t, s, _)| (t, s))
                            .map(|&(_, s, _)| s as usize);
                        let seq = match head {
                            Some(seq) if pick % 2 == 0 => seq,
                            _ => pick / 2 % ids.len(),
                        };
                        // A pending lane event has no id to cancel it by.
                        if let Some(id) = ids[seq] {
                            prop_assert_eq!(q.cancel(id), oracle.cancel(seq as u64));
                        }
                    }
                    _ => {
                        let got = q.pop().map(|(t, id, p)| (t.as_nanos(), id, p));
                        let want = oracle.pop();
                        prop_assert_eq!(got.map(|(t, _, p)| (t, p)), want.map(|(t, _, p)| (t, p)));
                        if let (Some((_, id, _)), Some((_, seq, _))) = (got, want) {
                            let seq = seq as usize;
                            match ids[seq] {
                                Some(held) => prop_assert_eq!(id, held),
                                None => {
                                    // A lane event's id comes from the
                                    // same counter as every other.
                                    prop_assert_eq!(format!("{id:?}"), format!("EventId({seq})"));
                                    ids[seq] = Some(id);
                                }
                            }
                        }
                        popped.push(got);
                    }
                }
                prop_assert_eq!(q.len(), oracle.live.len());
                prop_assert_eq!(q.depth_hwm(), oracle.hwm);
                prop_assert_eq!(q.scheduled_total(), oracle.issued);
            }
            rounds.push(popped);
        }
        prop_assert_eq!(&rounds[0], &rounds[1]);
    }

    /// Whatever is scheduled (minus cancellations) pops in
    /// (time, insertion) order, exactly once.
    #[test]
    fn queue_pops_sorted_and_complete(
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule_at(SimTime::from_nanos(t), i))
            .collect();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for (i, (&t, id)) in times.iter().zip(&ids).enumerate() {
            let cancelled = cancel_mask.get(i).copied().unwrap_or(false);
            if cancelled {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push((t, i));
            }
        }
        expected.sort();
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((at, _, payload)) = q.pop() {
            prop_assert!(at >= last, "time went backwards");
            last = at;
            popped.push((at.as_nanos(), payload));
        }
        prop_assert_eq!(popped, expected);
        prop_assert!(q.is_empty());
    }

    /// Bytes in = bytes delivered + bytes returned by cancellation, under
    /// arbitrary interleavings of starts, cancels, and drains.
    #[test]
    fn flow_link_conserves_bytes(
        ops in proptest::collection::vec((0u8..3, 1u64..1_000_000, 1u64..1000), 1..100),
        capacity in 1_000.0f64..1e9,
    ) {
        let mut link = FlowLink::with_constant_capacity(capacity);
        let mut t = 0.0f64;
        let mut injected = 0.0f64;
        let mut returned = 0.0f64;
        let mut live = Vec::new();
        for (op, bytes, dt) in ops {
            t += dt as f64 * 1e-3;
            let now = SimTime::from_secs(t);
            match op {
                0 => {
                    injected += bytes as f64;
                    live.push(link.start(now, bytes as f64));
                }
                1 => {
                    if let Some(id) = live.pop() {
                        if let Some(rem) = link.cancel(now, id) {
                            returned += rem;
                        }
                    } else {
                        link.advance(now);
                    }
                }
                _ => {
                    link.take_completed(now);
                }
            }
        }
        // Drain to completion.
        let mut now = SimTime::from_secs(t);
        while let Some(fin) = link.next_completion(now) {
            now = fin.max(now);
            if link.take_completed(now).is_empty() && !link.is_idle() {
                // All remaining flows finish at exactly `now + epsilon`;
                // advance a step to avoid an infinite loop on float dust.
                now += pckpt_desim::SimDuration::from_nanos(1);
            }
            if link.is_idle() {
                break;
            }
        }
        let moved = link.bytes_moved();
        let err = (injected - returned - moved).abs();
        prop_assert!(
            err < 1.0 + injected * 1e-9,
            "conservation violated: injected {injected}, returned {returned}, moved {moved}"
        );
    }

    /// Queue length accounting stays consistent under mixed operations.
    #[test]
    fn queue_len_is_consistent(
        schedule in proptest::collection::vec(0u64..10_000, 1..100),
        pops in 0usize..50,
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in schedule.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(q.len(), schedule.len());
        let mut popped = 0;
        for _ in 0..pops {
            if q.pop().is_some() {
                popped += 1;
            }
        }
        prop_assert_eq!(q.len(), schedule.len() - popped);
        prop_assert_eq!(q.scheduled_total(), schedule.len() as u64);
    }

    /// The virtual-time [`FlowLink`] is observationally equivalent to the
    /// per-flow [`ReferenceFlowLink`] it replaced: identical completion
    /// order and membership, completion instants within 1 ns, matching
    /// cancel returns and byte accounting, under randomized interleavings
    /// of weighted starts, cancels, and completion harvests on both
    /// constant and load-dependent capacity curves.
    #[test]
    fn virtual_time_link_matches_reference(
        ops in proptest::collection::vec(
            (0u8..4, 1u64..1_000_000_000, 1u64..=64, 0u64..2_000),
            1..120,
        ),
        base_capacity in 1_000.0f64..1e9,
        load_dependent in any::<bool>(),
    ) {
        let make_cap = |base: f64, dep: bool| {
            move |writers: usize| {
                if dep {
                    // Saturating weak-scaling curve, like the PFS matrix.
                    base * (writers as f64).sqrt().min(16.0)
                } else {
                    base
                }
            }
        };
        let mut virt = FlowLink::with_capacity_fn(make_cap(base_capacity, load_dependent));
        let mut refl = ReferenceFlowLink::with_capacity_fn(make_cap(base_capacity, load_dependent));
        let mut t = 0.0f64;
        let mut live: Vec<pckpt_desim::TransferId> = Vec::new();
        for &(op, bytes, weight, dt_ms) in &ops {
            t += dt_ms as f64 * 1e-3;
            let now = SimTime::from_secs(t);
            match op {
                0 | 1 => {
                    // Both links issue ids from the same counter sequence,
                    // so the handles must agree.
                    let a = virt.start_weighted(now, bytes as f64, weight as f64);
                    let b = refl.start_weighted(now, bytes as f64, weight as f64);
                    prop_assert_eq!(a, b);
                    live.push(a);
                }
                2 => {
                    if let Some(id) = live.pop() {
                        let a = virt.cancel(now, id);
                        let b = refl.cancel(now, id);
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(ra), Some(rb)) = (a, b) {
                            prop_assert!(
                                (ra - rb).abs() < 1.0 + rb.abs() * 1e-6,
                                "cancel remainder diverged: {ra} vs {rb}"
                            );
                        }
                    } else {
                        virt.advance(now);
                        refl.advance(now);
                    }
                }
                _ => {
                    let a = virt.take_completed(now);
                    let b = refl.take_completed(now);
                    let ids_a: Vec<_> = a.iter().map(|&(id, _, _)| id).collect();
                    let ids_b: Vec<_> = b.iter().map(|&(id, _, _)| id).collect();
                    prop_assert_eq!(ids_a, ids_b);
                    live.retain(|id| a.iter().all(|&(done, _, _)| done != *id));
                }
            }
            prop_assert_eq!(virt.active(), refl.active());
            match (virt.next_completion(now), refl.next_completion(now)) {
                (None, None) => {}
                (Some(fa), Some(fb)) => prop_assert!(
                    fa.as_nanos().abs_diff(fb.as_nanos()) <= 1,
                    "completion instants diverged: {fa} vs {fb}"
                ),
                (a, b) => prop_assert!(false, "one link idle, one not: {a:?} vs {b:?}"),
            }
        }
        // Drain both to completion, following the *virtual* link's
        // schedule (the reference is within 1 ns of it at every step).
        let mut now = SimTime::from_secs(t);
        while let Some(fin) = virt.next_completion(now) {
            now = fin.max(now);
            let a = virt.take_completed(now);
            let b = refl.take_completed(now);
            let ids_a: Vec<_> = a.iter().map(|&(id, _, _)| id).collect();
            let ids_b: Vec<_> = b.iter().map(|&(id, _, _)| id).collect();
            prop_assert_eq!(ids_a, ids_b);
            if a.is_empty() && !virt.is_idle() {
                now += pckpt_desim::SimDuration::from_nanos(1);
            }
            if virt.is_idle() {
                break;
            }
        }
        prop_assert!(virt.is_idle() && refl.is_idle());
        let (ma, mb) = (virt.bytes_moved(), refl.bytes_moved());
        prop_assert!(
            (ma - mb).abs() < 1.0 + mb.abs() * 1e-6,
            "bytes_moved diverged: {ma} vs {mb}"
        );
    }
}
