//! The repository benchmark. Runs one named workload from a seed,
//! checks every delivered target against the publish&map oracle, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a traced pass (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exchange --seed 1 --seconds 10 --trace 0
//! ```

mod alloc;
mod layers;
mod run;
mod setup;
mod spans;
mod stats;

use setup::{Seeds, Setup, Sizes, Workload, CLIENTS, WORKERS};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <exchange|fanout|resync|pm-baseline> \
                     --seed <u64> --seconds <f64> --trace <0|1>";

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("latency_mean_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_session", "ms"),
    ("wire_bytes_per_session", "B"),
    ("wire_model_ms_per_session", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 49] = [
    ("shred.ns_per_byte", "ns/B"),
    ("shred.allocs_per_row", "allocs/row"),
    ("publish.query_ns_per_row", "ns/row"),
    ("publish.tag_ns_per_row", "ns/row"),
    ("plan.probe_us", "us"),
    ("plan.optimize_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("exec.scan_ns_per_row", "ns/row"),
    ("exec.combine_src_ns_per_row", "ns/row"),
    ("exec.split_src_ns_per_row", "ns/row"),
    ("codec.encode.columnar.ns_per_row", "ns/row"),
    ("codec.encode.xml.ns_per_row", "ns/row"),
    ("codec.encode.columnar.bytes_per_row", "B/row"),
    ("codec.encode.xml.bytes_per_row", "B/row"),
    ("codec.decode.columnar.ns_per_row", "ns/row"),
    ("codec.decode.xml.ns_per_row", "ns/row"),
    ("codec.alloc_bytes_per_row", "B/row"),
    ("net.frame_ns_per_kib", "ns/KiB"),
    ("net.chunks_per_session", "count"),
    ("ledger.file_ns_per_chunk", "ns/chunk"),
    ("ship.retry_ratio", "ratio"),
    ("runtime.queue_wait_ms_p50", "ms"),
    ("runtime.planning_ms_p50", "ms"),
    ("exec.write_ns_per_row", "ns/row"),
    ("exec.combine_tgt_ns_per_row", "ns/row"),
    ("exec.commit_ns_per_row", "ns/row"),
    ("exec.index_ns_per_row", "ns/row"),
    ("delta.snapshot_record_us", "us"),
    ("delta.diff_ns_per_row", "ns/row"),
    ("delta.patch_bytes_per_round", "B"),
    ("delta.patch_steps_per_round", "count"),
    ("delta.patch_decode_us", "us"),
    ("delta.patch_apply_ns_per_row", "ns/row"),
    ("delta.patch_share", "ratio"),
    ("multicast.encodes_per_feed", "ratio"),
    ("multicast.shared_reuses", "count"),
    ("multicast.fallbacks", "count"),
    ("cp.queue_ms", "ms"),
    ("cp.plan_ms", "ms"),
    ("cp.compute_ms", "ms"),
    ("cp.encode_ms", "ms"),
    ("cp.wire_ms", "ms"),
    ("cp.decode_ms", "ms"),
    ("cp.stage_ms", "ms"),
    ("cp.settle_ms", "ms"),
    ("cp.coverage", "ratio"),
    ("reconcile.gap_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("runtime.session_cost_drift", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: every metric of `table`, missing ones as 0.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &HashMap<&str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seeds = Seeds::derive(args.seed);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} generator_seed={} churn_seed={} fault_seed={} \
         clients={CLIENTS} load_threads=1 workers={WORKERS} cpus={cpus} seconds={} trace={}",
        args.workload.name(),
        seeds.run,
        seeds.generator,
        seeds.churn,
        seeds.fault,
        args.seconds,
        u8::from(args.trace),
    );

    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let started = Instant::now();
        match Setup::build(args.workload, seeds, Sizes::FULL) {
            Ok(built) => setup = Some(built),
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
                println!("{}", result_line(false, 1, 1, table, &HashMap::new()));
                std::process::exit(1);
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("set up at least once");

    let measured = run::run(&setup, args.seconds, None, None);
    let failed = measured.failed();
    let attempted = measured.attempted();
    println!(
        "# measured: {} requests ({} untimed warm-ups), {} sessions, {failed} failed, \
         wall {:.3} s, failed_frac {}",
        attempted,
        measured.warm_ups,
        measured.sessions(),
        measured.wall.as_secs_f64(),
        failed as f64 / attempted.max(1) as f64
    );
    let line = if args.trace {
        match traced(&setup, &args, &measured) {
            Ok(values) => result_line(failed == 0, attempted, failed, &PER_LAYER, &values),
            Err(e) => {
                eprintln!("error: traced pass failed: {e}");
                result_line(false, attempted, failed.max(1), &PER_LAYER, &HashMap::new())
            }
        }
    } else {
        let values = end_to_end(&measured, args.workload, &setup_s);
        result_line(failed == 0, attempted, failed, &END_TO_END, &values)
    };
    drop(setup);
    println!("{line}");
}

fn end_to_end(run: &run::Run, workload: Workload, setup_s: &[f64]) -> HashMap<&'static str, f64> {
    let latencies = run.latencies_ms();
    let (tail_pct, tail_ms) = stats::tail_at(&latencies, workload.tail_percentile())
        .unwrap_or((50.0, stats::median(&latencies)));
    println!(
        "# latency_tail_ms is p{tail_pct:.2} of {} requests; latency p50 {:.3} ms; \
         session_cost_drift {}",
        latencies.len(),
        stats::median(&latencies),
        run.session_cost_drift()
            .map_or("n/a".to_string(), |d| format!("{d:.3}"))
    );
    let failed_frac = run.failed() as f64 / run.attempted().max(1) as f64;
    [
        ("setup_s", stats::median(setup_s)),
        (
            "sessions_per_s",
            run.sessions() as f64 / run.wall.as_secs_f64(),
        ),
        ("latency_mean_ms", stats::mean(&latencies)),
        ("latency_tail_ms", tail_ms),
        ("cpu_ms_per_session", run.cpu_ms_per_session()),
        (
            "wire_bytes_per_session",
            run.per_session_by_client(|l| l.bytes as f64),
        ),
        (
            "wire_model_ms_per_session",
            run.per_session_by_client(|l| l.comm.as_secs_f64() * 1e3),
        ),
        ("ok_frac", 1.0 - failed_frac),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ]
    .into_iter()
    .collect()
}

/// The traced pass: a runtime pass with the same inputs that records a
/// span per request, then the direct per-layer pass with the counting
/// allocator on.
fn traced(
    setup: &Setup,
    args: &Args,
    measured: &run::Run,
) -> Result<HashMap<&'static str, f64>, String> {
    let tracer = RefCell::new(spans::Tracer::new());
    let before = setup.runtime.as_ref().map(|r| r.stats());
    let traced = run::run(setup, args.seconds, None, Some(&tracer));
    if traced.failed() > 0 {
        return Err(format!("{} traced requests failed", traced.failed()));
    }
    let mut tracer = tracer.into_inner();
    let layers = layers::layer_pass(setup, &mut tracer)?;
    let mut values = layers.metrics;

    values.insert(
        "ship.retry_ratio",
        traced.ratio_by_client(|l| l.chunks_retried as f64, |l| l.chunks_shipped as f64),
    );
    values.insert(
        "net.chunks_per_session",
        traced.per_session_by_client(|l| l.chunks_shipped as f64),
    );
    values.insert(
        "delta.patch_share",
        traced.per_session_by_client(|l| l.patches_applied as f64),
    );
    values.insert(
        "runtime.queue_wait_ms_p50",
        run::lane_median_ms(&traced, |l| l.queue_wait),
    );
    values.insert(
        "runtime.planning_ms_p50",
        run::lane_median_ms(&traced, |l| l.planning),
    );
    let cp_nonwire_ms = if let (Some(runtime), Some(before)) = (&setup.runtime, before) {
        let after = runtime.stats();
        let hits = (after.plan_cache_hits - before.plan_cache_hits) as f64;
        let misses = (after.plan_cache_misses - before.plan_cache_misses) as f64;
        values.insert("plan.cache_hit_ratio", hits / (hits + misses).max(1.0));
        let encoded = (after.messages_serialized - before.messages_serialized) as f64;
        let shared = (after.multicast_encode_shared - before.multicast_encode_shared) as f64;
        values.insert(
            "multicast.encodes_per_feed",
            encoded / (encoded + shared).max(1.0),
        );
        values.insert(
            "multicast.shared_reuses",
            shared / traced.attempted().max(1) as f64,
        );
        values.insert(
            "multicast.fallbacks",
            (after.multicast_encode_fallback - before.multicast_encode_fallback) as f64,
        );
        let report = runtime.critical_path();
        let stage_ms = |i: usize| {
            let v: Vec<f64> = report
                .sessions
                .iter()
                .map(|s| s.stage_ns[i] as f64 / 1e6)
                .collect();
            stats::median(&v)
        };
        for (i, stage) in xdx_runtime::STAGES.iter().enumerate() {
            let name: &'static str = PER_LAYER
                .iter()
                .find(|(n, _)| *n == format!("cp.{stage}_ms"))
                .map(|(n, _)| *n)
                .ok_or_else(|| format!("no metric for stage {stage}"))?;
            values.insert(name, stage_ms(i));
        }
        let coverage: Vec<f64> = report.sessions.iter().map(|s| s.coverage).collect();
        values.insert("cp.coverage", stats::median(&coverage));
        // Waiting in the queue is not work any layer does.
        let nonwire: Vec<f64> = report
            .sessions
            .iter()
            .map(|s| {
                xdx_runtime::STAGES
                    .iter()
                    .zip(s.stage_ns)
                    .filter(|(stage, _)| !matches!(**stage, "wire" | "queue"))
                    .map(|(_, ns)| ns as f64 / 1e6)
                    .sum()
            })
            .collect();
        stats::median(&nonwire)
    } else {
        run::lane_median_ms(&traced, |l| l.pm_nonwire)
    };
    let gap_pct = 100.0 * (layers.layer_sum_ms - cp_nonwire_ms) / cp_nonwire_ms;
    values.insert("reconcile.gap_pct", gap_pct.abs());
    let overhead = 100.0 * (traced.cpu_ms_per_session() / measured.cpu_ms_per_session() - 1.0);
    values.insert("trace.overhead_pct", overhead);
    values.insert(
        "runtime.session_cost_drift",
        measured.session_cost_drift().unwrap_or(0.0),
    );
    println!(
        "# layer sum {:.3} ms vs non-wire critical path {:.3} ms per session (gap {gap_pct:+.1}%); \
         traced cpu {:.3} vs measured {:.3} ms/session",
        layers.layer_sum_ms,
        cp_nonwire_ms,
        traced.cpu_ms_per_session(),
        measured.cpu_ms_per_session()
    );

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!(
        "{dir}/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
    println!("# spans: {} written to {path}", tracer.spans().len());
    let mut by_self: Vec<(&str, u64)> = spans::self_time_by_name(tracer.spans())
        .into_iter()
        .collect();
    by_self.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (name, ns) in by_self {
        println!("#   self {:>12.3} ms  {name}", ns as f64 / 1e6);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let ok = args(&[
            "--workload",
            "fanout",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]);
        assert_eq!(
            ok,
            Ok(Args {
                workload: Workload::Fanout,
                seed: 7,
                seconds: 2.5,
                trace: true
            })
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fanout",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fanout",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "fanout", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_has_every_metric_with_units() {
        let values: HashMap<&str, f64> = [("setup_s", 0.5), ("ok_frac", f64::NAN)]
            .into_iter()
            .collect();
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.5,"));
        assert!(
            line.contains("\"ok_frac\": {\"value\": 0,"),
            "non-finite values print as 0"
        );
    }

    /// The metric tables here and `BENCHMARK.json` name the same
    /// metrics with the same units, and it lists every workload but
    /// `pm-baseline`, which is run by hand.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len() - 1
        );
        for w in Workload::ALL {
            let entry = format!("\"name\": \"{}\", \"why\"", w.name());
            assert_eq!(json.contains(&entry), w != Workload::PmBaseline, "{entry}");
        }
    }
}
