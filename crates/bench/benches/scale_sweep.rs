//! The scale-observatory sweep: 100 → 5000 ASes through the full stack
//! (synthetic topology → beaconing → path-database workload → router
//! frame load → discrete-event stage), emitting `BENCH_scale.json` at the
//! repo root
//! with per-N convergence time, cache hit rate, memory footprints,
//! throughput and — when built with `--features profile` — the ranked
//! per-subsystem self-time table naming the bottleneck at each size. The
//! report names the SHA-256 kernel the run hashed with (`sha_kernel`), since
//! beaconing and path combination are bound by it.
//!
//! Environment overrides (both optional):
//! * `SCIERA_SCALE_NS` — comma-separated AS counts (e.g. `100,300`); CI
//!   uses this for a bounded smoke sweep.
//! * `SCIERA_SCALE_OUT` — output path for the JSON report.

use sciera_measure::scale::{run_sweep, ScaleConfig, ScalePoint};

fn point_json(p: &ScalePoint) -> String {
    let self_time = p
        .self_time_ms
        .iter()
        .map(|(name, ms)| format!("{{\"scope\": \"{name}\", \"self_ms\": {ms:.3}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let bottleneck = match &p.bottleneck {
        Some(b) => format!("\"{b}\""),
        None => "null".to_string(),
    };
    format!(
        "    {{\n      \"n_ases\": {}, \"links\": {},\n      \"gen_ms\": {:.1}, \"convergence_ms\": {:.1}, \"beacon_rounds\": {},\n      \"segments\": {}, \"store_bytes\": {}, \"pathdb_bytes\": {},\n      \"queries\": {}, \"query_pairs\": {}, \"hit_rate\": {:.4}, \"hit_rate_cold\": {:.4}, \"hit_rate_warm\": {:.4}, \"queries_per_sec\": {:.0},\n      \"router_ops\": {}, \"delivered\": {}, \"dropped\": {}, \"router_ns_per_op\": {:.0},\n      \"sim_events\": {},\n      \"bottleneck\": {},\n      \"self_time\": [{}]\n    }}",
        p.n_ases,
        p.links,
        p.gen_ms,
        p.convergence_ms,
        p.beacon_rounds,
        p.segments,
        p.store_bytes,
        p.pathdb_bytes,
        p.queries,
        p.query_pairs,
        p.hit_rate,
        p.hit_rate_cold,
        p.hit_rate_warm,
        p.queries_per_sec,
        p.router_ops,
        p.delivered,
        p.dropped,
        p.router_ns_per_op,
        p.sim_events,
        bottleneck,
        self_time,
    )
}

fn main() {
    let mut cfg = ScaleConfig::default();
    if let Ok(spec) = std::env::var("SCIERA_SCALE_NS") {
        let sizes: Vec<usize> = spec
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect();
        if !sizes.is_empty() {
            cfg.sizes = sizes;
        }
    }
    let points = run_sweep(&cfg);
    for p in &points {
        let top = p
            .self_time_ms
            .iter()
            .take(3)
            .map(|(n, ms)| format!("{n} {ms:.1}ms"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "scale_sweep: N={:<5} links={:<6} converge={:>8.1}ms ({} rounds)  hit={:.2} (cold {:.2} / warm {:.2}, {} pairs)  {:>8.0} q/s  router {:>5.0} ns/op  store {:>9}B  hotspots: {}",
            p.n_ases,
            p.links,
            p.convergence_ms,
            p.beacon_rounds,
            p.hit_rate,
            p.hit_rate_cold,
            p.hit_rate_warm,
            p.query_pairs,
            p.queries_per_sec,
            p.router_ns_per_op,
            p.store_bytes,
            if top.is_empty() { "(profile off)" } else { &top },
        );
    }
    let body = points
        .iter()
        .map(point_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"scale_sweep\",\n  \"profile_feature\": {},\n  \"sha_kernel\": \"{}\",\n  \"points\": [\n{}\n  ]\n}}\n",
        cfg!(feature = "profile"),
        scion_crypto::sha256::kernel(),
        body
    );
    let path = std::env::var("SCIERA_SCALE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json").into());
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("[scale_sweep] could not write {path}: {e}");
    } else {
        println!("scale_sweep: wrote {path}");
    }
}
