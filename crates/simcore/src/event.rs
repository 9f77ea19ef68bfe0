//! What names the event queue from outside: [`EventBackend`], and the
//! tests that pin [`EventQueue`]'s contract through its public surface
//! (the queue itself, the timing wheel, is in [`crate::wheel`]).
//!
//! [`EventQueue`]: crate::EventQueue

/// The event queue a simulation runs on: the timing wheel is the only one.
///
/// Kept only because `perfbench` names it, through `RunSpec.event_backend`
/// and `Simulation::new_with_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventBackend {
    /// Hierarchical timing wheel: amortized O(1) per operation.
    #[default]
    Wheel,
}

#[cfg(test)]
mod tests {
    use crate::snap::{SnapReader, SnapWriter, Snapshot};
    use crate::time::{SimDuration, SimTime};
    use crate::EventQueue;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_millis(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        // Scheduling relative to the advanced clock works.
        q.push(q.now() + SimDuration::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(6)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), ());
        q.pop();
        q.push(SimTime::from_millis(1), ());
    }

    #[test]
    fn len_and_counters() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(1), 1);
        q.push(SimTime::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peak_pending(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peak_pending(), 2);
    }

    #[test]
    fn push_after_is_relative_to_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "first");
        q.pop();
        q.push_after(SimDuration::from_millis(2), "second");
        assert_eq!(q.pop(), Some((SimTime::from_millis(7), "second")));
    }

    #[test]
    fn push_after_matches_push_ordering() {
        // push(now + d) and push_after(d) must interleave identically.
        let mut a = EventQueue::new();
        let mut c = EventQueue::new();
        for i in [7u64, 3, 3, 9, 1] {
            let d = SimDuration::from_nanos(i);
            a.push(a.now() + d, i);
            c.push_after(d, i);
        }
        loop {
            let (x, y) = (a.pop(), c.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "in");
        q.push(SimTime::from_nanos(30), "out");
        let limit = SimTime::from_nanos(20);
        assert_eq!(q.pop_until(limit), Some((SimTime::from_nanos(10), "in")));
        // The later event stays queued and the clock stays put.
        assert_eq!(q.pop_until(limit), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::from_nanos(10));
        // A higher limit releases it.
        assert_eq!(
            q.pop_until(SimTime::from_nanos(30)),
            Some((SimTime::from_nanos(30), "out"))
        );
        assert_eq!(q.pop_until(SimTime::from_nanos(u64::MAX)), None);
    }

    #[test]
    fn pop_until_ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..10 {
            q.push(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop_until(t).unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 10u64);
        q.push(SimTime::from_nanos(50), 50);
        let (t, v) = q.pop().unwrap();
        assert_eq!(v, 10);
        q.push(t + SimDuration::from_nanos(5), 15);
        q.push(t + SimDuration::from_nanos(25), 35);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![15, 35, 50]);
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut q = EventQueue::new();
        // Ties across cascade boundaries plus a popped prefix, so the
        // snapshot sees a mid-run clock and a partly popped window.
        let far = SimTime::from_nanos(1_000_000);
        q.push(far, 0u64);
        q.push(far, 1);
        q.push(SimTime::from_nanos(10), 99);
        q.push(SimTime::from_nanos(300), 50);
        assert_eq!(q.pop().unwrap().1, 99);

        let mut w = SnapWriter::new();
        q.save_into(&mut w);
        let bytes = w.into_bytes();

        // The save itself is invisible: the original keeps running.
        let mut r = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(r.now(), q.now());
        assert_eq!(r.len(), q.len());
        assert_eq!(r.scheduled_total(), q.scheduled_total());
        assert_eq!(r.peak_pending(), q.peak_pending());
        // A post-restore push must order AFTER the pending ties.
        q.push(far, 2);
        r.push(far, 2);
        loop {
            let (a, c) = (q.pop(), r.pop());
            assert_eq!(a, c);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.scheduled_total(), r.scheduled_total());
    }

    #[test]
    fn snapshot_taken_mid_window_pops_identically() {
        // One 256 ns window with ties, half popped (the wheel's cursor
        // is mid-run), and later windows and levels behind it.
        let mut q = EventQueue::new();
        for (i, at) in [1030, 1100, 1040, 1100, 1200, 1100, 2000, 70_000]
            .into_iter()
            .enumerate()
        {
            q.push(SimTime::from_nanos(at), i as u64);
        }
        for _ in 0..3 {
            q.pop();
        }
        assert_eq!(q.now(), SimTime::from_nanos(1100));
        // Pushed into the open window (the wheel's side run), pending
        // when the snapshot is taken: a tie at the clock's own instant
        // and one with what the cascade brought, out of time order.
        q.push(SimTime::from_nanos(1200), 8);
        q.push(SimTime::from_nanos(1100), 9);

        let mut w = SnapWriter::new();
        q.save_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes)).unwrap();
        // Behind the pending ties, restored from either run, and ahead
        // of the rest of the window.
        for (at, id) in [(1100, 10), (1200, 11), (1150, 12)] {
            q.push(SimTime::from_nanos(at), id);
            r.push(SimTime::from_nanos(at), id);
        }
        let order: Vec<u64> = std::iter::from_fn(|| {
            let (a, c) = (q.pop(), r.pop());
            assert_eq!(a, c);
            a.map(|(_, id)| id)
        })
        .collect();
        assert_eq!(order, [3, 5, 9, 10, 12, 4, 8, 11, 6, 7]);
    }

    #[test]
    fn snapshot_restores_pop_order() {
        // The payload is the clock, the counters and the events in pop
        // order, nothing of the layout of the queue that wrote it: written
        // here by hand, it restores onto the wheel and pops in exactly
        // that order.
        let pending = [
            (1000u64, 7u64),
            (1000, 3),
            (1200, 9),
            (70_000, 1),
            (70_000, 0),
        ];
        let mut w = SnapWriter::new();
        w.put_u64(900);
        w.put_u64(12);
        w.put_usize(6);
        w.put_usize(pending.len());
        for (at, ev) in pending {
            w.put_u64(at);
            ev.save(&mut w);
        }
        let bytes = w.into_bytes();
        let mut q = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            (q.now(), q.len(), q.scheduled_total(), q.peak_pending()),
            (SimTime::from_nanos(900), 5, 12, 6)
        );
        // A push after the restore orders behind the restored ties.
        q.push(SimTime::from_nanos(1000), 42);
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, ev)| (t.as_nanos(), ev))).collect();
        assert_eq!(
            order,
            [
                (1000, 7),
                (1000, 3),
                (1000, 42),
                (1200, 9),
                (70_000, 1),
                (70_000, 0)
            ]
        );
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert!(EventQueue::<u64>::restore_from(&mut r).is_err());
    }
}
