//! simtrace JSON round-trip properties: `render → parse → render` must
//! be byte-identical for every event kind the stack can emit,
//! including strings full of JSON-hostile characters (quotes,
//! backslashes, control bytes, non-ASCII) and non-finite floats (which
//! serialize as `null` and re-parse as NaN → `null` again). The trace
//! is part of the reproducibility contract, so its serialization must
//! be a fixed point after one round trip.

use metasim::net::LinkId;
use metasim::simtrace::TraceEvent;
use metasim::{HostId, SimTime};
use proptest::prelude::*;
use proptest::strategy::Union;

/// Strings over an alphabet chosen to stress the string escaping: every
/// escape class (quote, backslash, the named controls, other control
/// bytes) plus non-ASCII and innocent filler.
fn arb_string() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'µ', '入',
        ':', ',',
    ];
    prop::collection::vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Floats including the non-finite values the writer spells as null.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1.0e6f64..1.0e6,
        2 => 1.0e-9f64..1.0e-6,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

fn arb_time() -> impl Strategy<Value = SimTime> {
    (0u64..4_000_000_000_000).prop_map(SimTime)
}

fn arb_opt_time() -> impl Strategy<Value = Option<SimTime>> {
    prop_oneof![
        1 => Just(None),
        2 => (0u64..4_000_000_000_000).prop_map(|t| Some(SimTime(t))),
    ]
}

/// One arbitrary event of any of the 22 kinds.
fn arb_event() -> Union<TraceEvent> {
    let host = || (0usize..4096).prop_map(HostId);
    prop_oneof![
        (host(), arb_time(), arb_f64()).prop_map(|(host, at, work_mflop)| {
            TraceEvent::ComputeStart {
                host,
                at,
                work_mflop,
            }
        }),
        (host(), arb_time(), arb_f64()).prop_map(|(host, at, elapsed_seconds)| {
            TraceEvent::ComputeFinish {
                host,
                at,
                elapsed_seconds,
            }
        }),
        (host(), host(), arb_time(), arb_f64())
            .prop_map(|(from, to, at, mb)| { TraceEvent::TransferStart { from, to, at, mb } }),
        (host(), host(), arb_time(), arb_f64(), arb_f64()).prop_map(
            |(from, to, at, mb, contention_share)| TraceEvent::TransferFinish {
                from,
                to,
                at,
                mb,
                contention_share,
            }
        ),
        (host(), arb_time(), arb_opt_time()).prop_map(|(host, at, recover)| {
            TraceEvent::HostFaultInjected { host, at, recover }
        }),
        (0usize..64, arb_time(), arb_opt_time()).prop_map(|(link, at, recover)| {
            TraceEvent::LinkFaultInjected {
                link: LinkId(link),
                at,
                recover,
            }
        }),
        (host(), arb_time()).prop_map(|(host, at)| TraceEvent::PlacementRevoked { host, at }),
        (host(), arb_time(), arb_time(), arb_f64()).prop_map(|(host, at, until, factor)| {
            TraceEvent::LoadImposed {
                host,
                at,
                until,
                factor,
            }
        }),
        (
            arb_string(),
            arb_time(),
            arb_f64(),
            arb_f64(),
            arb_f64(),
            arb_string()
        )
            .prop_map(|(resource, at, predicted, observed, error, method)| {
                TraceEvent::ForecastIssued {
                    resource,
                    at,
                    predicted,
                    observed,
                    error,
                    method,
                }
            }),
        (arb_time(), 0usize..1000)
            .prop_map(|(at, candidates)| TraceEvent::ResourceSelection { at, candidates }),
        (arb_time(), 0usize..100, 0usize..100, arb_f64(), arb_f64()).prop_map(
            |(at, index, hosts, predicted_seconds, objective)| TraceEvent::CandidateConsidered {
                at,
                index,
                hosts,
                predicted_seconds,
                objective,
            }
        ),
        (arb_time(), 0usize..100, arb_f64()).prop_map(|(at, index, predicted_seconds)| {
            TraceEvent::ScheduleChosen {
                at,
                index,
                predicted_seconds,
            }
        }),
        (arb_time(), arb_time(), arb_f64()).prop_map(|(at, finish, elapsed_seconds)| {
            TraceEvent::Actuated {
                at,
                finish,
                elapsed_seconds,
            }
        }),
        (arb_time(), 0usize..32)
            .prop_map(|(at, phase)| TraceEvent::RescheduleTriggered { at, phase }),
        (arb_time(), arb_f64(), arb_f64(), arb_f64(), 0u32..2).prop_map(
            |(at, keep_seconds, move_seconds, move_cost_seconds, m)| {
                TraceEvent::RescheduleDecision {
                    at,
                    keep_seconds,
                    move_seconds,
                    move_cost_seconds,
                    migrated: m == 1,
                }
            }
        ),
        (0usize..10_000, arb_string(), arb_time())
            .prop_map(|(job, kind, at)| TraceEvent::JobSubmitted { job, kind, at }),
        (0usize..10_000, arb_time(), 1u32..16)
            .prop_map(|(job, at, attempt)| TraceEvent::JobDispatched { job, at, attempt }),
        (0usize..10_000, arb_time(), 1u32..16)
            .prop_map(|(job, at, attempt)| TraceEvent::JobRetried { job, at, attempt }),
        (0usize..10_000, arb_time(), arb_time()).prop_map(|(job, at, reservation)| {
            TraceEvent::JobBackfilled {
                job,
                at,
                reservation,
            }
        }),
        (0usize..10_000, arb_time(), arb_f64()).prop_map(|(job, at, dedicated_seconds)| {
            TraceEvent::JobWorkMeasured {
                job,
                at,
                dedicated_seconds,
            }
        }),
        (0usize..10_000, arb_time(), arb_f64()).prop_map(|(job, at, exec_seconds)| {
            TraceEvent::JobCompleted {
                job,
                at,
                exec_seconds,
            }
        }),
        (0usize..10_000, arb_time(), 1u32..16)
            .prop_map(|(job, at, attempts)| TraceEvent::JobFailed { job, at, attempts }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One render→parse→render cycle is the identity on bytes, per
    /// event and over a whole stream.
    #[test]
    fn render_parse_render_is_byte_identity(
        events in prop::collection::vec(arb_event(), 1..40),
    ) {
        for e in &events {
            let json = e.to_json();
            let back = TraceEvent::from_json(&json);
            prop_assert!(back.is_some(), "failed to parse own output: {json}");
            let json2 = back.map(|b| b.to_json()).unwrap_or_default();
            prop_assert_eq!(&json, &json2, "not a fixed point");
            prop_assert!(!json.contains('\n'), "JSONL line embeds a newline: {json}");
        }

        let stream: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let (parsed, skipped) = TraceEvent::from_jsonl(&stream);
        prop_assert_eq!(skipped, 0, "own stream had unparseable lines");
        prop_assert_eq!(parsed.len(), events.len());
        let stream2: String = parsed.iter().map(|e| e.to_json() + "\n").collect();
        prop_assert_eq!(stream, stream2);
    }

    /// `kind()` and `at()` survive the trip — the summary machinery
    /// keys on them.
    #[test]
    fn kind_and_time_survive_the_trip(e in arb_event()) {
        let back = TraceEvent::from_json(&e.to_json());
        prop_assert!(back.is_some());
        if let Some(b) = back {
            prop_assert_eq!(b.kind(), e.kind());
            prop_assert_eq!(b.at(), e.at());
        }
    }
}

#[test]
fn malformed_lines_are_counted_not_fatal() {
    let good = TraceEvent::JobDispatched {
        job: 3,
        at: SimTime(1_000_000),
        attempt: 1,
    }
    .to_json();
    let text = format!(
        "{good}\n\
         \n\
         not json at all\n\
         {{\"kind\":\"job_dispatched\",\"at\":5}}\n\
         {{\"kind\":\"no_such_kind\",\"at\":5,\"job\":1}}\n\
         {{\"at\":5,\"job\":1}}\n\
         {good}\n"
    );
    let (events, skipped) = TraceEvent::from_jsonl(&text);
    assert_eq!(events.len(), 2, "only the two good lines parse");
    assert_eq!(
        skipped, 4,
        "garbage, missing-field, unknown-kind and keyless lines all count"
    );
    assert_eq!(events[0], events[1]);
}

#[test]
fn truncated_fields_do_not_parse_as_something_else() {
    // A dispatched event whose attempt field is missing its value.
    assert!(
        TraceEvent::from_json("{\"kind\":\"job_dispatched\",\"at\":5,\"job\":1,\"attempt\":}")
            .is_none()
    );
    // An unterminated string never finds its closing quote.
    assert!(TraceEvent::from_json(
        "{\"kind\":\"job_submitted\",\"at\":5,\"job\":1,\"class\":\"spm"
    )
    .is_none());
    // Negative microseconds cannot be u64.
    assert!(
        TraceEvent::from_json("{\"kind\":\"placement_revoked\",\"at\":-5,\"host\":1}").is_none()
    );
}
