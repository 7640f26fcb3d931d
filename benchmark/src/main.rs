//! `sciera-e2e`: the repository's end-to-end benchmark. See `README.md`
//! beside this package for the metric catalogue and the measurement rules.

mod deploy;
mod layers;
mod seeded;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use deploy::{Deployment, Raw, Timed, Wire, N_ASES};
use spans::{Recorder, Span};
use stats::{median, phase_stats, BLOCKS};
use workloads::connect::Connect;
use workloads::datagram::Datagram;
use workloads::frame_load::FrameLoad;
use workloads::link_churn::LinkChurn;
use workloads::{Counts, Workload};

const WORKLOADS: [&str; 5] = [
    "connect_cold",
    "connect_warm",
    "datagram_stream",
    "frame_load",
    "link_churn",
];
/// Complete set-ups per untraced run; `setup_s` is the fastest (noise rule
/// 2: one set-up is a sub-second one-shot, its first instance in a process
/// runs up to twice as long, and whatever disturbs the machine only ever
/// adds time). The first serves the run; the others follow it, each
/// dropped as soon as it is timed.
const SETUPS: usize = 9;
/// Share of `--seconds` run untimed before measuring.
const WARMUP_SHARE: f64 = 0.05;
/// The traced run spends this share of `--seconds` untraced and the same
/// again traced.
const TRACED_SHARE: f64 = 0.25;
/// Spans kept per traced run (about 100 bytes each once written).
const SPAN_CAP: usize = 120_000;
const DEFAULT_SEED: u64 = 71;
const DEFAULT_SECONDS: f64 = 12.0;
const SMOKE_SECONDS: f64 = 0.25;
/// Set-ups of a `--smoke` run.
const SMOKE_SETUPS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setups: SETUPS,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or(format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
                args.workload = known;
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--smoke" => (args.seconds, args.setups) = (SMOKE_SECONDS, SMOKE_SETUPS),
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Further figures for the detail file: not metrics of the contract.
    detail: Vec<Metric>,
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One complete set-up: builds the deployment and prepares the workload.
/// Returns it with the wall time it took.
fn set_up<W: Wire, L: Workload<W>>(seed: u64, wire: W) -> (L, f64) {
    let t = Instant::now();
    let load = L::prepare(Deployment::build(), seed, wire);
    (load, t.elapsed().as_secs_f64())
}

/// One measured phase: samples until `seconds` have passed (or `stop`
/// says so), with the counter movement across it checked.
struct Phase {
    sample_ns: Vec<u64>,
    /// Machine-speed gauge readings: `gauge_ns[i]` before sample `i`,
    /// `gauge_ns[i + 1]` after it.
    gauge_ns: Vec<u64>,
    ops: u64,
    failed: u64,
    moved: Counts,
}

fn run_phase<W: Wire, L: Workload<W>>(
    load: &mut L,
    seconds: f64,
    check: bool,
    stop: impl Fn() -> bool,
) -> Phase {
    let telemetry = load.deployment().net.telemetry();
    let before = Counts::read(&telemetry);
    let mut sample_ns = Vec::new();
    let mut gauge_ns = vec![stats::speed_gauge_ns()];
    let mut failed = 0u64;
    let start = Instant::now();
    loop {
        let s = load.sample();
        sample_ns.push(s.ns);
        gauge_ns.push(stats::speed_gauge_ns());
        failed += u64::from(s.failed);
        if start.elapsed().as_secs_f64() >= seconds || stop() {
            break;
        }
    }
    let ops = (sample_ns.len() * L::BATCH) as u64;
    let moved = Counts::read(&telemetry).since(&before);
    if check {
        for complaint in load.check_counts(&moved, ops) {
            eprintln!("check failed: {complaint}");
            failed += 1;
        }
    }
    Phase {
        sample_ns,
        gauge_ns,
        ops,
        failed,
        moved,
    }
}

/// The untraced run: yields the end-to-end metrics.
fn run_untraced<L: Workload<Raw>>(args: &Args) -> Outcome {
    let (mut load, first) = set_up::<Raw, L>(args.seed, Raw);
    run_phase(&mut load, args.seconds * WARMUP_SHARE, false, || false);
    let phase = run_phase(&mut load, args.seconds, true, || false);
    // Memory is read before the repeated set-ups below, which are there to
    // time set-up and would otherwise grow the heap the run is charged for.
    let peak_rss = peak_rss_mb();
    drop(load);
    let mut setups = vec![first];
    for _ in 1..args.setups {
        setups.push(set_up::<Raw, L>(args.seed, Raw).1);
    }
    let st = phase_stats(&phase.sample_ns, &phase.gauge_ns, L::BATCH);
    let timed_s = phase.sample_ns.iter().sum::<u64>() as f64 / 1e9;
    Outcome {
        attempted: phase.ops,
        failed: phase.failed,
        metrics: vec![
            metric("ops_per_s", st.ops_per_s, "1/s"),
            metric("op_p50_us", st.op_p50_us, "us"),
            metric("op_p90_us", st.op_p90_us, "us"),
            metric(
                "setup_s",
                setups.iter().copied().fold(f64::MAX, f64::min),
                "s",
            ),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
        detail: vec![
            metric("op_p99_us", st.op_p99_us, "us"),
            metric("samples", st.samples as f64, "count"),
            metric("quiet_share", st.quiet_share, "ratio"),
            metric("timed_s", timed_s, "s"),
            metric("setup_first_s", setups[0], "s"),
            metric("setup_median_s", median(&setups), "s"),
        ],
    }
}

/// Durations (ns) of the spans called `name`.
fn durs(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: yields the per-layer metrics and the span file. A
/// metric of a layer that is not on the workload's path reads 0.
fn run_traced<L: Workload<Timed>>(args: &Args, name: &str, out_dir: &std::path::Path) -> Outcome {
    let rec = Rc::new(Recorder::new());
    let (mut load, _) = set_up::<Timed, L>(args.seed, Timed(Rc::clone(&rec)));
    let telemetry = load.deployment().net.telemetry();
    let churn_before = load.deployment().net.churn_events().len();

    run_phase(&mut load, args.seconds * WARMUP_SHARE, false, || false);
    let plain = run_phase(&mut load, args.seconds * TRACED_SHARE, true, || false);
    let churn_events = load.deployment().net.churn_events().len() - churn_before;
    let db = load.deployment().net.pathdb();
    let bytes_per_entry = ratio(db.approx_cache_bytes() as u64, db.cached_entries() as u64);
    let shard_peak = telemetry.gauge("dispatcher.shard.depth_watermark").peak();
    let pool_peak = telemetry.gauge("pool.frame.high_watermark").peak();

    rec.set_on(true);
    let traced = run_phase(&mut load, args.seconds * TRACED_SHARE, false, || {
        rec.len() >= SPAN_CAP
    });
    rec.set_on(false);
    let spans = rec.take();
    let trace_file = out_dir.join(format!("{name}.trace.jsonl"));
    if let Err(e) = spans::write_jsonl(&trace_file, &spans) {
        eprintln!("cannot write {}: {e}", trace_file.display());
    }

    let paths = load.probe_paths();
    load.deployment().net.pathdb().flush();
    let probes = layers::probe(load.deployment(), &paths);
    let setup = layers::setup_shares();

    // Span-derived figures.
    let own = spans::self_times(&spans);
    let own_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64)
            .collect()
    };
    let op_ns = durs(&spans, "op");
    // An `op` span covers one sample of frame_load, one operation elsewhere.
    let traced_rate = ratio(traced.ops * 1_000_000_000, op_ns.iter().sum::<f64>() as u64);
    let plain_rate = ratio(plain.ops * 1_000_000_000, plain.sample_ns.iter().sum());
    let span_us = |name: &str| median(&durs(&spans, name)) / 1e3;
    // A connect workload probes the path database in one cache state only.
    let (miss_us, hit_us) = (
        span_us("control.pathdb.miss"),
        span_us("control.pathdb.hit"),
    );
    let m = &plain.moved;
    let samples = plain.sample_ns.len() as u64;
    let chunk_ns = span_us("core.run_frame_load") * 1e3;
    let router_ops_per_chunk = ratio(m.get("router.batch.frames"), samples);
    let frame_load_self = if chunk_ns > 0.0 && router_ops_per_chunk > 0.0 {
        chunk_ns / router_ops_per_chunk - probes.batch_ns
    } else {
        0.0
    };
    // Only a failover sends echoes; elsewhere the per-failover figures are 0.
    let failovers = if m.get("prober.echo_sent") > 0 {
        plain.ops
    } else {
        0
    };
    let per_churn = |n: u64| ratio(n, failovers);

    let metrics = vec![
        metric("topology.synth_s", setup.synth_s, "s"),
        metric("topology.link_index_ns", probes.link_index_ns, "ns"),
        metric("control.beacon.busy_s", setup.beacon_s, "s"),
        metric("control.beacon.rounds", setup.beacon_rounds as f64, "count"),
        metric("control.store.segments", setup.segments as f64, "count"),
        metric("control.pathdb.miss_us", miss_us, "us"),
        metric("control.pathdb.hit_us", hit_us, "us"),
        metric(
            "control.pathdb.hit_ratio",
            m.share("pathdb.cache.hit", "pathdb.cache.miss"),
            "ratio",
        ),
        metric(
            "control.pathdb.paths_per_answer",
            ratio(
                m.get("control.paths_combined"),
                m.get("pathdb.cache.hit") + m.get("pathdb.cache.miss"),
            ),
            "count",
        ),
        metric("control.pathdb.cache_bytes_per_entry", bytes_per_entry, "B"),
        metric(
            "control.pathdb.recombines_per_churn",
            per_churn(m.get("pathdb.cache.miss") + m.get("pathdb.cache.partial")),
            "count",
        ),
        metric(
            "control.pathdb.revalidates_per_churn",
            per_churn(m.get("pathdb.cache.revalidate")),
            "count",
        ),
        metric(
            "control.pathdb.invalidated_per_churn",
            per_churn(m.get("pathdb.cache.invalidate")),
            "count",
        ),
        metric("core.build_rest_s", setup.build_rest_s, "s"),
        metric(
            "core.lookup_filter_us",
            span_us("core.lookup_paths") - miss_us - hit_us,
            "us",
        ),
        metric("core.paths_us", span_us("core.paths"), "us"),
        metric("core.walk_self_ns", probes.walk_self_ns, "ns"),
        metric("core.walk.hops", probes.walk_hops, "count"),
        metric("core.frame_load_self_ns", frame_load_self, "ns"),
        metric(
            "pan.connect_self_us",
            median(&own_of("pan.connect")) / 1e3,
            "us",
        ),
        metric(
            "pan.first_send_self_us",
            median(&own_of("pan.first_send")) / 1e3,
            "us",
        ),
        metric("pan.send_self_ns", median(&own_of("pan.send")), "ns"),
        metric("pan.recv_self_ns", median(&own_of("pan.poll_recv")), "ns"),
        metric("proto.encode_64_ns", probes.encode_ns[0], "ns"),
        metric("proto.encode_512_ns", probes.encode_ns[1], "ns"),
        metric("proto.encode_1200_ns", probes.encode_ns[2], "ns"),
        metric("proto.decode_64_ns", probes.decode_ns[0], "ns"),
        metric("proto.decode_512_ns", probes.decode_ns[1], "ns"),
        metric("proto.decode_1200_ns", probes.decode_ns[2], "ns"),
        metric("dataplane.frame_ns", probes.frame_ns, "ns"),
        metric("dataplane.batch_ns", probes.batch_ns, "ns"),
        metric(
            "dataplane.maccache.hit_ratio",
            m.share("router.maccache.hit", "router.maccache.miss"),
            "ratio",
        ),
        metric(
            "dataplane.fastpath.fallback_ratio",
            m.share("router.fastpath.fallback", "router.fastpath.hit"),
            "ratio",
        ),
        metric(
            "dataplane.batch.mac_dedup_ratio",
            ratio(
                m.get("router.batch.mac_dedup"),
                m.get("router.batch.frames"),
            ),
            "ratio",
        ),
        metric(
            "dataplane.shard.dropped",
            m.get("dispatcher.shard.dropped") as f64,
            "count",
        ),
        metric("dataplane.shard.depth_peak", shard_peak as f64, "count"),
        metric(
            "netsim.pool.hit_ratio",
            m.share("pool.frame.hit", "pool.frame.miss"),
            "ratio",
        ),
        metric("netsim.pool.high_watermark", pool_peak as f64, "count"),
        metric("crypto.hop_mac_ns", probes.hop_mac_ns, "ns"),
        metric("flowgen.generate_s", load.schedule_s(), "s"),
        metric(
            "orchestrator.probe_round_us",
            span_us("orchestrator.probe_round"),
            "us",
        ),
        metric(
            "orchestrator.echoes_per_round",
            ratio(m.get("prober.echo_sent"), 2 * failovers),
            "count",
        ),
        metric(
            "orchestrator.churn_events_per_op",
            per_churn(churn_events as u64),
            "count",
        ),
        metric("trace.overhead_ratio", traced_rate / plain_rate, "ratio"),
        metric("trace.closure_ratio", spans::closure_ratio(&spans), "ratio"),
    ];
    Outcome {
        attempted: plain.ops + traced.ops,
        failed: plain.failed + traced.failed + u64::from(probes.failed),
        metrics,
        detail: vec![
            metric("spans", spans.len() as f64, "count"),
            metric("traced_ops", traced.ops as f64, "count"),
            metric("untraced_ops_per_s", plain_rate, "1/s"),
            metric("traced_ops_per_s", traced_rate, "1/s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

fn run_one(args: &Args, name: &str, out_dir: &std::path::Path) -> Outcome {
    macro_rules! go {
        ($load:ident $(, $cold:literal)?) => {
            if args.trace {
                run_traced::<$load<Timed $(, $cold)?>>(args, name, out_dir)
            } else {
                run_untraced::<$load<Raw $(, $cold)?>>(args)
            }
        };
    }
    match name {
        "connect_cold" => go!(Connect, true),
        "connect_warm" => go!(Connect, false),
        "datagram_stream" => go!(Datagram),
        "frame_load" => go!(FrameLoad),
        "link_churn" => go!(LinkChurn),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String");
    }
    s.push('}');
    s
}

/// Where a number came from: stamped on every output.
fn provenance(args: &Args, name: &str) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"facade_features\": \"default (trace)\", \
         \"nproc\": {nproc}, \"generator_threads\": 1, \"workload\": \"{name}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"n_ases\": {N_ASES}, \"blocks\": {BLOCKS}, \
         \"setups\": {}, \"batch\": {{\"datagram_stream\": {}, \"frame_load\": {}}}}}",
        env("SCIERA_E2E_COMMIT"),
        env("SCIERA_E2E_RUSTC"),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.trace { 1 } else { args.setups },
        <Datagram<Raw> as Workload<Raw>>::BATCH,
        <FrameLoad<Raw> as Workload<Raw>>::BATCH,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sciera-e2e: {e}");
            eprintln!(
                "usage: sciera-e2e --workload W [--seed N] [--seconds S] [--trace [0|1]] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir =
        PathBuf::from(std::env::var("SCIERA_E2E_OUT").unwrap_or_else(|_| "benchmark/out".into()));
    let name = args.workload;
    let out = run_one(&args, name, &out_dir);
    let prov = provenance(&args, name);
    eprintln!(
        "== {name} (seed {}, {} s, trace {}) ==",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in out.metrics.iter().chain(&out.detail) {
        eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("  attempted {}  failed {}", out.attempted, out.failed);
    eprintln!("  provenance {prov}");
    let correct = out.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&out.metrics)
    );
    let detail = format!(
        "{{\"provenance\": {prov}, \"result\": {result}, \"detail\": {}}}\n",
        json_metrics(&out.detail)
    );
    let file = out_dir.join(format!("{name}.trace{}.json", u8::from(args.trace)));
    if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&file, detail)) {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
