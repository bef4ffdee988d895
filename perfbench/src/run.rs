//! The closed-loop client run: every client prepares a request outside
//! the clock, times it from submit to its last `Done`, then checks each
//! delivered target against its reference outside the clock.

use crate::setup::{fingerprint, Client, Setup, Step, Workload};
use crate::spans::Tracer;
use crate::stats::{self, process_cpu_ns, thread_cpu_ns};
use std::cell::RefCell;
use std::time::{Duration, Instant};
use xdx_net::{FaultProfile, Link, NetworkProfile};
use xdx_relational::Database;
use xdx_runtime::{
    ExchangeRequest, PublishRequest, Runtime, SessionMetrics, SessionResult, SessionState,
};

/// How often the load thread samples process CPU for the drift diagnostic.
const CPU_SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// What one session (a runtime lane or a publish&map run) reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lane {
    /// Reached `Done` and matched its reference.
    pub ok: bool,
    pub bytes: u64,
    /// Modelled link time, retry backoff included.
    pub comm: Duration,
    pub queue_wait: Duration,
    pub planning: Duration,
    pub chunks_shipped: u64,
    pub chunks_retried: u64,
    pub patches_applied: u64,
    /// Publish&map only: its non-wire step times (queries, tagging,
    /// shredding, loading, indexing).
    pub pm_nonwire: Duration,
}

impl Lane {
    fn from_metrics(m: &SessionMetrics) -> Lane {
        Lane {
            ok: false,
            bytes: m.bytes_shipped,
            comm: m.communication,
            queue_wait: m.queue_wait,
            planning: m.planning,
            chunks_shipped: m.chunks_shipped,
            chunks_retried: m.chunks_retried,
            patches_applied: m.delta_patches_applied,
            pm_nonwire: Duration::ZERO,
        }
    }
}

/// One closed-loop request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub client: usize,
    /// The request's index in its client's sequence.
    pub index: usize,
    /// Completion time, from the start of the run.
    pub end: Duration,
    pub latency: Duration,
    pub lanes: Vec<Lane>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        !self.lanes.is_empty() && self.lanes.iter().all(|l| l.ok)
    }

    pub fn sessions(&self) -> u64 {
        self.lanes.iter().filter(|l| l.ok).count() as u64
    }
}

/// `(time since the run started, program CPU ns, sessions)`, cumulative.
pub type CpuPoint = (Duration, u64, u64);

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Requests per client the count metrics average over.
    pub counted: usize,
    /// Untimed warm-up requests, one per client.
    pub warm_ups: u64,
    /// Warm-up requests that failed.
    pub warm_up_failed: u64,
    pub wall: Duration,
    pub samples: Vec<Sample>,
    /// Process CPU over the run.
    pub cpu_ns: u64,
    /// Client CPU spent outside request clocks (preparing sources,
    /// checking targets) — benchmark work, not program work.
    pub excluded_cpu_ns: u64,
    /// Program CPU samples over the run.
    pub cpu_trace: Vec<CpuPoint>,
}

enum Prepared {
    Session(ExchangeRequest),
    Publish(PublishRequest),
    PublishAndMap {
        source: Database,
        target: Database,
        link: Link,
    },
}

fn prepare(setup: &Setup, (c, i): (usize, usize), step: &Step) -> Prepared {
    let client = &setup.clients[c];
    let name = format!("c{c}-r{i}");
    let source = client.sources[step.source].clone();
    match setup.workload {
        Workload::PmBaseline => Prepared::PublishAndMap {
            source,
            target: Database::new(name),
            link: Link::new(NetworkProfile::lan()),
        },
        Workload::Fanout => Prepared::Publish(
            PublishRequest::new(
                name,
                source,
                client.source_frag.clone(),
                client.target_frag.clone(),
                client.target_endpoints.clone(),
            )
            .with_source_endpoint(client.source_endpoint.clone()),
        ),
        Workload::Exchange | Workload::Resync => {
            let runtime = setup.runtime.as_ref().expect("runtime workload");
            let (src, dst) = (&client.source_endpoint, &client.target_endpoints[0]);
            if setup.workload == Workload::Exchange {
                // Only this client's closed loop uses the link, so the
                // reset gives every request its own repeatable stream.
                runtime.set_link_fault_profile(
                    src,
                    dst,
                    FaultProfile::drops(
                        crate::setup::DROP_PROBABILITY,
                        setup.seeds.fault_request(c, i),
                    ),
                );
            }
            let mut request = ExchangeRequest::new(
                name,
                source,
                client.source_frag.clone(),
                client.target_frag.clone(),
            )
            .with_route(src.clone(), dst.clone());
            if let Some(format) = step.format {
                request = request.with_wire_format(format);
            }
            // A client's untimed first request ships in full, so every
            // run's timed rounds start from the same target version
            // whatever an earlier run in the process left behind.
            if setup.workload == Workload::Resync && i > 0 {
                let base = runtime.feed_version(
                    src,
                    dst,
                    &client.source_frag.name,
                    &client.target_frag.name,
                );
                request = request.with_base_version(base);
            }
            Prepared::Session(request)
        }
    }
}

/// Sends a prepared request and waits for every lane.
fn call(setup: &Setup, client: &Client, prepared: Prepared) -> Vec<(Lane, Option<Database>)> {
    let runtime = || -> &Runtime { setup.runtime.as_ref().expect("runtime workload") };
    let lane_of = |r: SessionResult| {
        let mut lane = Lane::from_metrics(&r.metrics);
        lane.ok = r.state == SessionState::Done;
        (lane, r.target)
    };
    match prepared {
        Prepared::Session(request) => match runtime().submit(request) {
            Ok(handle) => vec![lane_of(handle.wait())],
            Err(_) => vec![(Lane::default(), None)],
        },
        Prepared::Publish(request) => match runtime().publish(request) {
            Ok(handle) => handle.wait().into_iter().map(lane_of).collect(),
            Err(_) => vec![(Lane::default(), None); client.target_endpoints.len()],
        },
        Prepared::PublishAndMap {
            mut source,
            mut target,
            mut link,
        } => {
            let report = xdx_core::pm::publish_and_map(
                &setup.schema,
                &client.source_frag,
                &client.target_frag,
                &mut source,
                &mut target,
                &mut link,
            );
            match report {
                Ok(report) => {
                    let t = report.times;
                    let lane = Lane {
                        ok: true,
                        bytes: report.bytes_shipped,
                        comm: t.communication,
                        pm_nonwire: t.total() - t.communication,
                        ..Lane::default()
                    };
                    vec![(lane, Some(target))]
                }
                Err(_) => vec![(Lane::default(), None)],
            }
        }
    }
}

/// Prepares, times and checks a client's request number `seq`. Returns
/// its latency, its lanes and the client CPU spent outside the clock.
/// With a tracer, the request is recorded as a span with its
/// prepare/call/check children.
fn send(
    setup: &Setup,
    c: usize,
    seq: usize,
    tracer: Option<&RefCell<Tracer>>,
) -> (Duration, Vec<Lane>, u64) {
    let client = &setup.clients[c];
    let step = &client.steps[seq % client.period()];
    let session_id = ((c as u64) << 48) | seq as u64;
    let span = |name, parent| tracer.map(|t| t.borrow_mut().open(name, session_id, parent));
    let close = |open: Option<crate::spans::Open>| {
        if let (Some(t), Some(open)) = (tracer, open) {
            t.borrow_mut().close(open);
        }
    };
    let root = span("request", 0);
    let parent = root.map_or(0, |r| r.id());

    let prep = span("prepare", parent);
    let cpu_a = thread_cpu_ns();
    let prepared = prepare(setup, (c, seq), step);
    let cpu_b = thread_cpu_ns();
    close(prep);

    let call_span = span("call", parent);
    let clock = Instant::now();
    let results = call(setup, client, prepared);
    let latency = clock.elapsed();
    close(call_span);

    let check = span("check", parent);
    let cpu_c = thread_cpu_ns();
    let lanes = results
        .into_iter()
        .map(|(mut lane, target)| {
            lane.ok &= target.is_some_and(|t| fingerprint(&t) == step.expected);
            lane
        })
        .collect();
    let cpu_d = thread_cpu_ns();
    close(check);
    close(root);
    (latency, lanes, (cpu_b - cpu_a) + (cpu_d - cpu_c))
}

/// Runs the clients until `seconds` have passed and each has completed
/// the workload's counted requests or, when set, until each has run
/// `max_requests` timed requests. One load thread — the caller's —
/// drives every client in turn, one request each per round, so the run
/// never has more request threads than the runtime's workers and every
/// client makes the same number of requests. Each client first makes one
/// untimed request, so allocator and caches are warm when the clock
/// starts; its outcome still counts as attempted.
pub fn run(
    setup: &Setup,
    seconds: f64,
    max_requests: Option<usize>,
    tracer: Option<&RefCell<Tracer>>,
) -> Run {
    let clients = setup.clients.len();
    let counted = setup.workload.counted_requests();
    let mut run = Run {
        counted,
        ..Run::default()
    };
    for c in 0..clients {
        let (_, lanes, _) = send(setup, c, 0, None);
        run.warm_ups += 1;
        run.warm_up_failed += u64::from(lanes.is_empty() || !lanes.iter().all(|l| l.ok));
    }
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let cpu0 = process_cpu_ns();
    let (mut sessions, mut excluded) = (0, 0);
    let mut next_cpu_sample = CPU_SAMPLE_EVERY;
    run.cpu_trace.push((Duration::ZERO, 0, 0));
    for i in 0.. {
        let done = match max_requests {
            Some(max) => i >= max,
            None => i >= counted && start.elapsed() >= budget,
        };
        if done {
            break;
        }
        for c in 0..clients {
            let (latency, lanes, outside) = send(setup, c, i + 1, tracer);
            excluded += outside;
            let sample = Sample {
                client: c,
                index: i,
                end: start.elapsed(),
                latency,
                lanes,
            };
            sessions += sample.sessions();
            if sample.end >= next_cpu_sample {
                let cpu = process_cpu_ns() - cpu0;
                run.cpu_trace
                    .push((sample.end, cpu.saturating_sub(excluded), sessions));
                next_cpu_sample = sample.end + CPU_SAMPLE_EVERY;
            }
            run.samples.push(sample);
        }
    }
    run.wall = start.elapsed();
    run.cpu_ns = process_cpu_ns() - cpu0;
    run.excluded_cpu_ns = excluded;
    run.cpu_trace.push((
        run.wall,
        run.cpu_ns.saturating_sub(excluded),
        run.sessions(),
    ));
    run
}

impl Run {
    /// Requests made, the untimed warm-ups included.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.warm_ups
    }

    /// Failed requests, the untimed warm-ups included.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok()).count() as u64 + self.warm_up_failed
    }

    pub fn sessions(&self) -> u64 {
        self.samples.iter().map(Sample::sessions).sum()
    }

    pub fn lanes(&self) -> impl Iterator<Item = &Lane> {
        self.samples.iter().flat_map(|s| s.lanes.iter())
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }

    /// Program CPU per completed session, in ms.
    pub fn cpu_ms_per_session(&self) -> f64 {
        let program_ns = self.cpu_ns.saturating_sub(self.excluded_cpu_ns);
        program_ns as f64 / 1e6 / self.sessions().max(1) as f64
    }

    /// Lanes of the counted requests of client `c`.
    fn counted_lanes(&self, c: usize) -> impl Iterator<Item = &Lane> {
        self.samples
            .iter()
            .filter(move |s| s.client == c && s.index < self.counted)
            .flat_map(|s| s.lanes.iter())
    }

    fn clients(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.client)
            .max()
            .map_or(0, |c| c + 1)
    }

    /// Mean over clients of a per-session lane quantity, over each
    /// client's counted requests — the same requests for a seed, so the
    /// value repeats exactly.
    pub fn per_session_by_client(&self, value: impl Fn(&Lane) -> f64) -> f64 {
        let means: Vec<f64> = (0..self.clients())
            .filter_map(|c| {
                let lanes: Vec<&Lane> = self.counted_lanes(c).collect();
                (!lanes.is_empty())
                    .then(|| lanes.iter().map(|l| value(l)).sum::<f64>() / lanes.len() as f64)
            })
            .collect();
        means.iter().sum::<f64>() / means.len().max(1) as f64
    }

    /// Mean over clients of a per-client ratio of lane sums, over the
    /// counted requests.
    pub fn ratio_by_client(&self, num: impl Fn(&Lane) -> f64, den: impl Fn(&Lane) -> f64) -> f64 {
        let ratios: Vec<f64> = (0..self.clients())
            .map(|c| {
                let (n, d) = self
                    .counted_lanes(c)
                    .fold((0.0, 0.0), |(n, d), l| (n + num(l), d + den(l)));
                if d > 0.0 {
                    n / d
                } else {
                    0.0
                }
            })
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }

    /// Program CPU per session in the last tenth of the run over the
    /// first tenth. `None` when either tenth completed no session.
    pub fn session_cost_drift(&self) -> Option<f64> {
        session_cost_drift(&self.cpu_trace, self.wall)
    }
}

/// The drift rule over cumulative `(time, cpu, sessions)` samples: cost
/// per session between the start and the last sample inside the first
/// tenth, against cost per session between the last sample before the
/// final tenth and the end.
pub fn session_cost_drift(trace: &[CpuPoint], wall: Duration) -> Option<f64> {
    let first_end = trace.iter().rfind(|s| s.0 <= wall / 10)?;
    let first = trace.first()?;
    let last_start = trace.iter().rfind(|s| s.0 <= wall * 9 / 10)?;
    let last = trace.last()?;
    let cost = |a: &CpuPoint, b: &CpuPoint| {
        let sessions = b.2.checked_sub(a.2).filter(|n| *n > 0)?;
        Some(b.1.saturating_sub(a.1) as f64 / sessions as f64)
    };
    let early = cost(first, first_end)?;
    let late = cost(last_start, last)?;
    (early > 0.0).then(|| late / early)
}

/// Median of per-lane durations in ms.
pub fn lane_median_ms(run: &Run, value: impl Fn(&Lane) -> Duration) -> f64 {
    let values: Vec<f64> = run.lanes().map(|l| value(l).as_secs_f64() * 1e3).collect();
    stats::median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_compares_first_and_last_tenths() {
        let s = |ms: u64, cpu: u64, n: u64| (Duration::from_millis(ms), cpu, n);
        // 10 ms per session early, 20 ms per session late.
        let trace = vec![
            s(0, 0, 0),
            s(50, 100, 10),
            s(100, 200, 20),
            s(500, 1000, 80),
            s(900, 2000, 120),
            s(1000, 4000, 220),
        ];
        let drift = session_cost_drift(&trace, Duration::from_millis(1000)).unwrap();
        assert!((drift - 2.0).abs() < 1e-9, "{drift}");
        // No session in the first tenth: no drift figure.
        let idle = vec![s(0, 0, 0), s(100, 50, 0), s(1000, 900, 10)];
        assert_eq!(session_cost_drift(&idle, Duration::from_millis(1000)), None);
    }
}

#[cfg(test)]
mod determinism {
    use super::*;
    use crate::setup::{Seeds, Sizes};

    const SMALL: Sizes = Sizes {
        exchange_doc: 120_000,
        fanout_doc: 10_000,
        fanout_pool: 2,
        resync_doc: 40_000,
    };

    /// The count metrics of a run: wire bytes and modelled wire time per
    /// session, retry ratio, patches per round. A second run in the same
    /// process (as the traced pass makes) must count the same.
    fn counts(workload: Workload, seed: u64, requests: usize) -> [f64; 4] {
        let setup = Setup::build(workload, Seeds::derive(seed), SMALL).expect("set-up");
        let count = || {
            let run = run(&setup, 0.0, Some(requests), None);
            assert_eq!(
                run.failed(),
                0,
                "{workload:?}: every target matches its reference"
            );
            [
                run.per_session_by_client(|l| l.bytes as f64),
                run.per_session_by_client(|l| l.comm.as_secs_f64()),
                run.ratio_by_client(|l| l.chunks_retried as f64, |l| l.chunks_shipped as f64),
                run.per_session_by_client(|l| l.patches_applied as f64),
            ]
        };
        let first = count();
        assert_eq!(first, count(), "{workload:?}: second run in one process");
        first
    }

    /// One seed fixes every count metric exactly, whatever the timing
    /// of the requests; another seed moves them.
    #[test]
    fn count_metrics_repeat_exactly_for_a_seed() {
        for (workload, requests) in [
            (Workload::Exchange, 6),
            (Workload::Fanout, 2),
            // Not a whole cycle: the next run must still start alike.
            (Workload::Resync, 5),
        ] {
            let first = counts(workload, 7, requests);
            assert_eq!(first, counts(workload, 7, requests), "{workload:?}");
            assert_ne!(first, counts(workload, 8, requests), "{workload:?}");
            match workload {
                Workload::Exchange => assert!(first[2] > 0.0, "2% drops retry some chunks"),
                Workload::Resync => assert_eq!(first[3], 1.0, "every round ships a patch"),
                _ => {}
            }
        }
    }
}
