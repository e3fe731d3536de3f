//! Property tests for the simcore event queue: an indexed cancellable
//! queue must behave exactly like the obvious reference model — a flat
//! list popped by minimum `(time, insertion-seq)` — under arbitrary
//! interleavings of push, cancel, reschedule and pop, including FIFO
//! ties at equal timestamps and operations on dead handles.
//!
//! Plus a cross-commit pin of the fluid-flow network engine built on
//! that queue: the exact output of `simulate_transfers_counting` on the
//! T-SCALE workload over a generated fat-tree.

use apples_bench::event_engine::build_workload;
use metasim::net::{simulate_transfers_counting, TransferResult};
use metasim::simtrace::NoopSink;
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::SimTime;
use proptest::prelude::*;
use simcore::{EventId, EventQueue};

/// Reference model: handle-indexed entries, popped by min `(time, seq)`.
/// `seq` is a global counter bumped on every push *and* reschedule, so a
/// rescheduled event re-enters the FIFO behind existing ties — the
/// documented simcore semantics.
struct Model {
    entries: Vec<Option<(u64, u64, u32)>>, // (time, seq, payload); None = dead
    next_seq: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: u64, payload: u32) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Some((time, seq, payload)));
        self.entries.len() - 1
    }

    fn cancel(&mut self, h: usize) -> Option<u32> {
        self.entries[h].take().map(|(_, _, p)| p)
    }

    fn reschedule(&mut self, h: usize, time: u64) -> bool {
        match self.entries[h] {
            Some((_, _, p)) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.entries[h] = Some((time, seq, p));
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    fn peek_time(&self) -> Option<u64> {
        self.entries
            .iter()
            .flatten()
            .map(|&(t, s, _)| (t, s))
            .min()
            .map(|(t, _)| t)
    }

    fn pop(&mut self) -> Option<(u64, usize, u32)> {
        let (h, &(t, _, p)) = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|v| (i, v)))
            .min_by_key(|&(_, &(t, s, _))| (t, s))?;
        self.entries[h] = None;
        Some((t, h, p))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Cancel(usize),
    Reschedule(usize, u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Times drawn from a tiny range so equal timestamps (FIFO ties) are
    // common; handle selectors are reduced mod the live universe later,
    // so any usize is valid.
    prop_oneof![
        4 => (0u64..16).prop_map(Op::Push),
        2 => (0usize..1_000_000).prop_map(Op::Cancel),
        2 => (0usize..1_000_000, 0u64..16).prop_map(|(h, t)| Op::Reschedule(h, t)),
        3 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every observable of the indexed queue — pop order, pop payloads,
    /// returned handles, cancel results, reschedule results, live
    /// counts, peeked times — matches the reference model under random
    /// op interleavings, and a final drain empties both identically.
    #[test]
    fn queue_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut q: EventQueue<u64, u32> = EventQueue::new();
        let mut m = Model::new();
        // ids[h] is the real queue's handle for model handle h.
        let mut ids: Vec<EventId> = Vec::new();
        let mut next_payload: u32 = 0;

        for op in ops {
            match op {
                Op::Push(t) => {
                    let p = next_payload;
                    next_payload += 1;
                    ids.push(q.schedule(t, p));
                    m.push(t, p);
                }
                Op::Cancel(sel) => {
                    if !ids.is_empty() {
                        let h = sel % ids.len();
                        prop_assert_eq!(q.cancel(ids[h]), m.cancel(h));
                    }
                }
                Op::Reschedule(sel, t) => {
                    if !ids.is_empty() {
                        let h = sel % ids.len();
                        prop_assert_eq!(q.reschedule(ids[h], t), m.reschedule(h, t));
                    }
                }
                Op::Pop => {
                    let got = q.pop();
                    let want = m.pop();
                    match (got, want) {
                        (None, None) => {}
                        (Some((t, id, p)), Some((wt, wh, wp))) => {
                            prop_assert_eq!((t, p), (wt, wp));
                            prop_assert_eq!(Some(id), ids.get(wh).copied());
                        }
                        (got, want) => {
                            prop_assert!(false, "pop diverged: queue {got:?}, model {want:?}");
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), m.len());
            prop_assert_eq!(q.peek_time(), m.peek_time());
        }

        // Drain: remaining events come out in identical order.
        while let Some((wt, wh, wp)) = m.pop() {
            let Some((t, id, p)) = q.pop() else {
                prop_assert!(false, "queue drained early; model still has {:?}", (wt, wh, wp));
                unreachable!()
            };
            prop_assert_eq!((t, p), (wt, wp));
            prop_assert_eq!(Some(id), ids.get(wh).copied());
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(q.is_empty());
    }

    /// Dead handles stay dead: once an event is popped or cancelled, its
    /// id never matches again, even after its slot is reused.
    #[test]
    fn dead_handles_never_alias(times in prop::collection::vec(0u64..8, 1..40)) {
        let mut q: EventQueue<u64, usize> = EventQueue::new();
        let mut dead: Vec<EventId> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let id = q.schedule(t, i);
            if i % 2 == 0 {
                prop_assert_eq!(q.cancel(id), Some(i));
                dead.push(id);
            }
            // Slot reuse happens on the next schedule; earlier dead ids
            // must not resolve against the new occupant.
            for &d in &dead {
                prop_assert!(!q.contains(d));
                prop_assert_eq!(q.cancel(d), None);
                prop_assert!(!q.reschedule(d, 0));
                prop_assert_eq!(q.time_of(d), None);
            }
        }
    }
}

/// 64-bit FNV-1a over an engine run: the event count, then each
/// result's tag and delivered microseconds (the layout of the e2e
/// `net-fattree` `sim_digest`).
fn engine_digest(results: &[TransferResult], events: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = std::iter::once(events).chain(
        results
            .iter()
            .flat_map(|r| [r.tag as u64, r.delivered.as_micros()]),
    );
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The engine's exact output on 20 000 seeded transfers over a 16-host
/// fat-tree, pinned across commits: a change that only makes the engine
/// faster must leave every delivered microsecond and the event count
/// where they are. When a change is meant to move them, update the
/// digest and say why.
#[test]
fn fat_tree_engine_output_is_pinned() {
    let (jobs, seed) = (20_000, 42);
    let spec = TopoSpec::parse("fat-tree:k=4").unwrap();
    // The T-SCALE topology point's horizon: four submission windows
    // plus an hour.
    let window = (jobs as f64 / spec.host_count() as f64 * 12.0).max(60.0);
    let cfg = TopoGenConfig {
        horizon: SimTime::from_secs_f64(window * 4.0 + 3600.0),
        seed,
        ..TopoGenConfig::default()
    };
    let topo = topogen::generate(&spec, &cfg).unwrap();
    let reqs = build_workload(&topo, jobs, seed);
    let (results, events) = simulate_transfers_counting(&topo, &reqs, &mut NoopSink).unwrap();
    assert_eq!(
        (engine_digest(&results, events), events),
        (0x2960_7392_c480_2382, 40_173),
        "the incremental engine's output moved"
    );
}
