//! A windowed, deterministic time-series engine over the simtrace
//! stream.
//!
//! The metrics registry answers "what were the totals at the end of the
//! run"; this module answers "what was happening at minute 12" — the
//! view that makes two scheduling regimes comparable *over time* rather
//! than only in aggregate. A [`TimeSeriesSink`] folds events into
//! per-window rows as they are emitted:
//!
//! * per-kind event counts (the `apples_events_total` families, now
//!   with a time axis),
//! * busy compute seconds, spread across the windows each worker's
//!   `[finish - elapsed, finish]` interval overlaps,
//! * transfer megabytes and mean contention share,
//! * imposed-load capacity loss (host-seconds lost to background
//!   load, `(1 - factor) ×` overlap),
//! * and, at [`TimeSeriesSink::finalize`], the running gauges:
//!   queue depth (submitted + retried − dispatched), backlog
//!   (submitted − completed − failed) and utilization
//!   (busy seconds / window width).
//!
//! Windows are either fixed-width ([`WindowMode::Fixed`]) or
//! event-aligned ([`WindowMode::EventAligned`], one row per distinct
//! event timestamp — exact change points, no quantization). Rows live
//! in a `BTreeMap` keyed by window start, so out-of-emission-order
//! events (a fractional scheduler writing back load windows with past
//! timestamps at the end of its run) land in the right window without
//! any flushing discipline.
//!
//! The fold is allocation-conscious: each row is a fixed-size
//! accumulator (a per-kind count array, no per-event strings or maps);
//! the only steady-state allocation is the `BTreeMap` node when a
//! window is first touched. Export is byte-deterministic: windows in
//! ascending order, floats in fixed 6-decimal form, per-kind counts in
//! canonical kind order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use metasim::simtrace::{EventSink, TraceEvent, TraceKind, KINDS};
use metasim::SimTime;

/// How event time maps to rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Fixed-width windows of the given width; interval quantities
    /// (busy seconds, imposed load) are spread across every window
    /// they overlap.
    Fixed(SimTime),
    /// One row per distinct event timestamp; interval quantities are
    /// charged to the row of the event that reports them.
    EventAligned,
}

/// Fixed-size per-window accumulator.
#[derive(Debug, Clone, PartialEq)]
struct RowAcc {
    kinds: [u64; KINDS.len()],
    busy_seconds: f64,
    mb: f64,
    imposed_load_seconds: f64,
    share_sum: f64,
    share_count: u64,
}

impl RowAcc {
    fn new() -> RowAcc {
        RowAcc {
            kinds: [0; KINDS.len()],
            busy_seconds: 0.0,
            mb: 0.0,
            imposed_load_seconds: 0.0,
            share_sum: 0.0,
            share_count: 0,
        }
    }
}

/// One finalized window.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive; for event-aligned rows, the next row's
    /// start, or `start` for the final row).
    pub end: SimTime,
    /// Events recorded in the window.
    pub events: u64,
    /// Per-kind event counts, [`KINDS`] order.
    pub kinds: [u64; KINDS.len()],
    /// Compute seconds overlapping the window.
    pub busy_seconds: f64,
    /// Megabytes delivered in the window.
    pub mb: f64,
    /// Host-seconds of capacity lost to imposed background load.
    pub imposed_load_seconds: f64,
    /// Mean transfer contention share of transfers finishing in the
    /// window (`None` when no transfer finished).
    pub mean_share: Option<f64>,
    /// Busy seconds over window width (mean busy hosts; 0 for
    /// zero-width rows).
    pub utilization: f64,
    /// Jobs submitted or awaiting retry but not yet dispatched, at
    /// window end.
    pub queue_depth: u64,
    /// Jobs submitted but neither completed nor failed, at window end.
    pub backlog: u64,
}

/// A finalized series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Rows in ascending window order.
    pub rows: Vec<Row>,
}

impl TimeSeries {
    /// Fold a recorded event stream: the series a [`TimeSeriesSink`]
    /// in `mode` finalizes after recording the same events.
    pub fn from_events(events: &[TraceEvent], mode: WindowMode) -> TimeSeries {
        let mut sink = TimeSeriesSink::new(mode);
        for e in events {
            sink.add(e);
        }
        sink.finalize()
    }

    /// Byte-deterministic JSONL export, one row per line. Per-kind
    /// counts include only non-zero kinds, in canonical order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let mut kinds = String::new();
            for (i, name) in KINDS.iter().enumerate() {
                if r.kinds[i] == 0 {
                    continue;
                }
                if !kinds.is_empty() {
                    kinds.push(',');
                }
                let _ = write!(kinds, "\"{name}\":{}", r.kinds[i]);
            }
            let share = match r.mean_share {
                Some(s) => format!("{s:.6}"),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"start\":{},\"end\":{},\"events\":{},\"busy_seconds\":{:.6},\
                 \"mb\":{:.6},\"imposed_load_seconds\":{:.6},\"mean_share\":{share},\
                 \"utilization\":{:.6},\"queue_depth\":{},\"backlog\":{},\"kinds\":{{{kinds}}}}}",
                r.start.0,
                r.end.0,
                r.events,
                r.busy_seconds,
                r.mb,
                r.imposed_load_seconds,
                r.utilization,
                r.queue_depth,
                r.backlog,
            );
        }
        out
    }

    /// Events of `kind` across every row (0 for a kind not in
    /// [`KINDS`]).
    pub fn count(&self, kind: &str) -> u64 {
        KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| self.rows.iter().map(|r| r.kinds[i]).sum())
    }

    /// Compact human rendering: one line per row with the headline
    /// gauges.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>10} {:>8} {:>8} {:>7} {:>7}",
            "window", "events", "busy", "util", "mb", "queue", "backlog"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>9.1}s {:>8} {:>9.3}s {:>8.3} {:>8.2} {:>7} {:>7}",
                r.start.as_secs_f64(),
                r.events,
                r.busy_seconds,
                r.utilization,
                r.mb,
                r.queue_depth,
                r.backlog,
            );
        }
        out
    }
}

/// An [`EventSink`] folding the stream into windowed rows.
#[derive(Debug)]
pub struct TimeSeriesSink {
    mode: WindowMode,
    width_us: u64,
    rows: BTreeMap<u64, RowAcc>,
}

impl TimeSeriesSink {
    /// A sink with the given window mode. Fixed widths are clamped to
    /// at least 1 µs.
    pub fn new(mode: WindowMode) -> TimeSeriesSink {
        let width_us = match mode {
            WindowMode::Fixed(w) => w.0.max(1),
            WindowMode::EventAligned => 0,
        };
        TimeSeriesSink {
            mode,
            width_us,
            rows: BTreeMap::new(),
        }
    }

    /// Fixed windows of `seconds` width.
    pub fn fixed_seconds(seconds: f64) -> TimeSeriesSink {
        TimeSeriesSink::new(WindowMode::Fixed(SimTime::from_secs_f64(seconds.max(0.0))))
    }

    fn window_start(&self, at: SimTime) -> u64 {
        match self.mode {
            WindowMode::Fixed(_) => (at.0 / self.width_us) * self.width_us,
            WindowMode::EventAligned => at.0,
        }
    }

    fn row(&mut self, at: SimTime) -> &mut RowAcc {
        let key = self.window_start(at);
        self.rows.entry(key).or_insert_with(RowAcc::new)
    }

    /// Spread `amount` (in seconds-like units) over the windows the
    /// interval `[start, end]` overlaps, proportionally to overlap. In
    /// event-aligned mode the whole amount is charged to the reporting
    /// row at `report_at`.
    fn spread(
        &mut self,
        start: SimTime,
        end: SimTime,
        report_at: SimTime,
        amount: f64,
        to_busy: bool,
    ) {
        if !amount.is_finite() || amount.total_cmp(&0.0).is_le() {
            return;
        }
        let add = |acc: &mut RowAcc, v: f64| {
            if to_busy {
                acc.busy_seconds += v;
            } else {
                acc.imposed_load_seconds += v;
            }
        };
        if matches!(self.mode, WindowMode::EventAligned) || end.0 <= start.0 {
            add(self.row(report_at), amount);
            return;
        }
        let span = (end.0 - start.0) as f64;
        let w = self.width_us;
        let first = (start.0 / w) * w;
        let mut win = first;
        while win < end.0 {
            let win_end = win + w;
            let overlap = (end.0.min(win_end) - start.0.max(win)) as f64;
            if overlap > 0.0 {
                add(
                    self.rows.entry(win).or_insert_with(RowAcc::new),
                    amount * overlap / span,
                );
            }
            win = win_end;
        }
    }

    /// Finalize into rows, computing the running gauges in window
    /// order.
    pub fn finalize(&self) -> TimeSeries {
        let mut rows = Vec::with_capacity(self.rows.len());
        let starts: Vec<u64> = self.rows.keys().copied().collect();
        let mut submitted = 0u64;
        let mut dispatched = 0u64;
        let mut retried = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        for (i, (&start, acc)) in self.rows.iter().enumerate() {
            submitted += acc.kinds[TraceKind::JobSubmitted as usize];
            dispatched += acc.kinds[TraceKind::JobDispatched as usize];
            retried += acc.kinds[TraceKind::JobRetried as usize];
            completed += acc.kinds[TraceKind::JobCompleted as usize];
            failed += acc.kinds[TraceKind::JobFailed as usize];
            let end = match self.mode {
                WindowMode::Fixed(_) => start + self.width_us,
                WindowMode::EventAligned => starts.get(i + 1).copied().unwrap_or(start),
            };
            let width_secs = SimTime(end.saturating_sub(start)).as_secs_f64();
            let utilization = if width_secs > 0.0 {
                acc.busy_seconds / width_secs
            } else {
                0.0
            };
            rows.push(Row {
                start: SimTime(start),
                end: SimTime(end),
                events: acc.kinds.iter().sum(),
                kinds: acc.kinds,
                busy_seconds: acc.busy_seconds,
                mb: acc.mb,
                imposed_load_seconds: acc.imposed_load_seconds,
                mean_share: (acc.share_count > 0).then(|| acc.share_sum / acc.share_count as f64),
                utilization,
                queue_depth: (submitted + retried).saturating_sub(dispatched),
                backlog: submitted.saturating_sub(completed + failed),
            });
        }
        TimeSeries { rows }
    }

    /// Fold one event into its rows.
    fn add(&mut self, event: &TraceEvent) {
        let at = event.at();
        self.row(at).kinds[event.kind_index()] += 1;
        match event {
            TraceEvent::ComputeFinish {
                at,
                elapsed_seconds,
                ..
            } => {
                let elapsed = if elapsed_seconds.is_finite() {
                    elapsed_seconds.max(0.0)
                } else {
                    0.0
                };
                let start = SimTime(at.0.saturating_sub(SimTime::from_secs_f64(elapsed).0));
                self.spread(start, *at, *at, elapsed, true);
            }
            TraceEvent::TransferFinish {
                at,
                mb,
                contention_share,
                ..
            } => {
                if mb.is_finite() {
                    self.row(*at).mb += mb.max(0.0);
                }
                if contention_share.is_finite() {
                    let r = self.row(*at);
                    r.share_sum += contention_share.clamp(0.0, 1.0);
                    r.share_count += 1;
                }
            }
            TraceEvent::LoadImposed {
                at, until, factor, ..
            } => {
                let loss_rate = if factor.is_finite() {
                    (1.0 - factor.clamp(0.0, 1.0)).max(0.0)
                } else {
                    0.0
                };
                let seconds = until.saturating_sub(*at).as_secs_f64() * loss_rate;
                self.spread(*at, *until, *at, seconds, false);
            }
            _ => {}
        }
    }
}

impl EventSink for TimeSeriesSink {
    fn record(&mut self, event: TraceEvent) {
        self.add(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim::HostId;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "jacobi".into(),
                at: t(5.0),
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: t(12.0),
                attempt: 1,
            },
            TraceEvent::TransferFinish {
                from: HostId(0),
                to: HostId(1),
                at: t(14.0),
                mb: 8.0,
                contention_share: 0.5,
            },
            // 20 s of compute over [15, 35]: spans windows [10,20),
            // [20,30), [30,40).
            TraceEvent::ComputeFinish {
                host: HostId(1),
                at: t(35.0),
                elapsed_seconds: 20.0,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at: t(35.0),
                exec_seconds: 23.0,
            },
        ]
    }

    #[test]
    fn from_events_matches_the_sink() {
        for mode in [WindowMode::Fixed(t(10.0)), WindowMode::EventAligned] {
            let mut sink = TimeSeriesSink::new(mode);
            for e in stream() {
                sink.record(e);
            }
            assert_eq!(TimeSeries::from_events(&stream(), mode), sink.finalize());
        }
    }

    #[test]
    fn fixed_windows_spread_busy_time_proportionally() {
        let mut sink = TimeSeriesSink::fixed_seconds(10.0);
        for e in stream() {
            sink.record(e);
        }
        let ts = sink.finalize();
        let by_start: BTreeMap<u64, &Row> = ts.rows.iter().map(|r| (r.start.0, r)).collect();
        assert!((by_start[&10_000_000].busy_seconds - 5.0).abs() < 1e-9);
        assert!((by_start[&20_000_000].busy_seconds - 10.0).abs() < 1e-9);
        assert!((by_start[&30_000_000].busy_seconds - 5.0).abs() < 1e-9);
        assert!((by_start[&20_000_000].utilization - 1.0).abs() < 1e-9);
        let total: f64 = ts.rows.iter().map(|r| r.busy_seconds).sum();
        assert!((total - 20.0).abs() < 1e-9);
        assert!((by_start[&10_000_000].mb - 8.0).abs() < 1e-9);
        assert_eq!(by_start[&10_000_000].mean_share, Some(0.5));
        assert_eq!(by_start[&0].mean_share, None);
    }

    #[test]
    fn gauges_run_cumulatively_across_windows() {
        let mut sink = TimeSeriesSink::fixed_seconds(10.0);
        for e in stream() {
            sink.record(e);
        }
        let ts = sink.finalize();
        let by_start: BTreeMap<u64, &Row> = ts.rows.iter().map(|r| (r.start.0, r)).collect();
        // After window [0,10): submitted, not yet dispatched.
        assert_eq!(by_start[&0].queue_depth, 1);
        assert_eq!(by_start[&0].backlog, 1);
        // After [10,20): dispatched.
        assert_eq!(by_start[&10_000_000].queue_depth, 0);
        assert_eq!(by_start[&10_000_000].backlog, 1);
        // After [30,40): completed.
        assert_eq!(by_start[&30_000_000].backlog, 0);
    }

    #[test]
    fn event_aligned_rows_are_exact_change_points() {
        let mut sink = TimeSeriesSink::new(WindowMode::EventAligned);
        for e in stream() {
            sink.record(e);
        }
        let ts = sink.finalize();
        let starts: Vec<u64> = ts.rows.iter().map(|r| r.start.0).collect();
        assert_eq!(starts, vec![5_000_000, 12_000_000, 14_000_000, 35_000_000]);
        // Rows tile: each end is the next start.
        for w in ts.rows.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Busy time is charged to the reporting row.
        assert!((ts.rows[3].busy_seconds - 20.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_load_events_land_in_their_window() {
        let mut sink = TimeSeriesSink::fixed_seconds(10.0);
        // The lifecycle runs to 35 s first…
        for e in stream() {
            sink.record(e);
        }
        // …then a fractional scheduler writes back a load window with a
        // past timestamp: [12, 22] at factor 0.5 → 5 host-seconds lost.
        sink.record(TraceEvent::LoadImposed {
            host: HostId(1),
            at: t(12.0),
            until: t(22.0),
            factor: 0.5,
        });
        let ts = sink.finalize();
        let by_start: BTreeMap<u64, &Row> = ts.rows.iter().map(|r| (r.start.0, r)).collect();
        assert!((by_start[&10_000_000].imposed_load_seconds - 4.0).abs() < 1e-9);
        assert!((by_start[&20_000_000].imposed_load_seconds - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jsonl_is_byte_deterministic_and_parsable_shape() {
        let run = || {
            let mut sink = TimeSeriesSink::fixed_seconds(10.0);
            for e in stream() {
                sink.record(e);
            }
            sink.finalize().to_jsonl()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"job_submitted\":1"));
        assert!(a.contains("\"mean_share\":null"));
        assert!(a.lines().count() == 4);
        let r = run();
        let rendered = {
            let mut sink = TimeSeriesSink::fixed_seconds(10.0);
            for e in stream() {
                sink.record(e);
            }
            sink.finalize().render()
        };
        assert!(rendered.contains("backlog"));
        assert!(!r.is_empty());
    }

    #[test]
    fn every_kind_has_its_own_row_slot() {
        // One wire line per kind, in taxonomy order.
        let lines = [
            r#"{"kind":"compute_start","at":1,"host":0,"work_mflop":1}"#,
            r#"{"kind":"compute_finish","at":1,"host":0,"elapsed_seconds":0}"#,
            r#"{"kind":"transfer_start","at":1,"from":0,"to":1,"mb":1}"#,
            r#"{"kind":"transfer_finish","at":1,"from":0,"to":1,"mb":1,"contention_share":1}"#,
            r#"{"kind":"host_fault_injected","at":1,"host":0,"recover":null}"#,
            r#"{"kind":"link_fault_injected","at":1,"link":0,"recover":5}"#,
            r#"{"kind":"placement_revoked","at":1,"host":0}"#,
            r#"{"kind":"load_imposed","at":1,"host":0,"until":2,"factor":0.5}"#,
            r#"{"kind":"forecast_issued","at":1,"resource":"cpu:0","predicted":1,"observed":1,"error":0,"method":"mean"}"#,
            r#"{"kind":"resource_selection","at":1,"candidates":2}"#,
            r#"{"kind":"candidate_considered","at":1,"index":0,"hosts":1,"predicted_seconds":1,"objective":1}"#,
            r#"{"kind":"schedule_chosen","at":1,"index":0,"predicted_seconds":1}"#,
            r#"{"kind":"actuated","at":1,"finish":2,"elapsed_seconds":1}"#,
            r#"{"kind":"reschedule_triggered","at":1,"phase":0}"#,
            r#"{"kind":"reschedule_decision","at":1,"keep_seconds":1,"move_seconds":2,"move_cost_seconds":1,"migrated":false}"#,
            r#"{"kind":"job_submitted","at":1,"job":0,"class":"jacobi2d"}"#,
            r#"{"kind":"job_dispatched","at":1,"job":0,"attempt":1}"#,
            r#"{"kind":"job_retried","at":1,"job":0,"attempt":1}"#,
            r#"{"kind":"job_backfilled","at":1,"job":0,"reservation":2}"#,
            r#"{"kind":"job_work_measured","at":1,"job":0,"dedicated_seconds":1}"#,
            r#"{"kind":"job_completed","at":1,"job":0,"exec_seconds":1}"#,
            r#"{"kind":"job_failed","at":1,"job":0,"attempts":3}"#,
        ];
        assert_eq!(lines.len(), KINDS.len());
        let events: Vec<TraceEvent> = lines
            .iter()
            .map(|l| TraceEvent::from_json(l).expect("every kind parses"))
            .collect();
        for (i, (e, line)) in events.iter().zip(lines).enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(KINDS[e.kind_index()], e.kind());
            assert_eq!(e.to_json(), line);
        }
        let series = TimeSeries::from_events(&events, WindowMode::EventAligned);
        assert_eq!(series.rows.len(), 1);
        assert_eq!(series.rows[0].kinds, [1; KINDS.len()]);
        assert!(KINDS.iter().all(|k| series.count(k) == 1));
    }
}
