//! Wall-clock benchmark of the live wizard daemon and the simulator catalog.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-select --seed 7 --seconds 25 --trace 0
//! ```
//!
//! One run sets the daemon up, drives it through the open-loop, closed-loop
//! and report-flood phases, checks every reply, and prints every metric by
//! name and unit. The last line of standard output is the result object.
//! With `--trace 0` it holds the end-to-end metrics. With `--trace 1` the
//! run also replays its datagrams through a traced in-process engine and
//! times the simulator catalog, and prints the per-layer metrics instead.
//! See `perfbench/README.md`.

mod catalog;
mod check;
mod live;
mod stats;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{beyond, median, quantile, result_line, Metric};
use workload::Workload;

/// The catalog runs at the repository's default experiment seed in every
/// run: see the README for why it does not follow `--seed`.
const CATALOG_SEED: u64 = smartsock_bench::DEFAULT_SEED;
/// Catalog passes in a traced run.
const CATALOG_PASSES: usize = 7;
/// Shares of `--seconds` given to the open-loop, closed-loop and flood
/// phases. The open-loop phase's request count follows from its share and
/// the workload's rate.
const OPEN_SHARE: f64 = 0.5;
const CLOSED_SHARE: f64 = 0.25;
const FLOOD_SHARE: f64 = 0.25;
/// Share of requests checked only loosely, above which the run is invalid:
/// by the oracle, where rows change tier inside a request's window
/// (`check::Verdicts::tier_ambiguous`), and by the replay, where the live
/// daemon read a request late (`check::Layers::shifted`). Each is counted
/// on its own.
const MAX_LOOSE_SHARE: f64 = 0.01;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("no workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Names and units of the metrics `BENCHMARK.json` lists under `section`,
/// read with a scan that fits the file's fixed layout.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let found = scan(&text, section);
    if found.is_empty() {
        return Err(format!("BENCHMARK.json lists no {section} metrics"));
    }
    Ok(found)
}

fn scan(text: &str, section: &str) -> Vec<(String, String)> {
    let Some(start) = text.find(&format!("\"{section}\"")) else { return Vec::new() };
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[at..].split('"').next()?.to_owned())
    };
    body.split('{').filter_map(|e| Some((field(e, "name")?, field(e, "unit")?))).collect()
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let ns = |share: f64| (share * seconds * 1e9) as u64;
    let open_requests = (OPEN_SHARE * seconds * w.request_rate() as f64) as usize;
    let run = live::run(w, seed, open_requests, ns(CLOSED_SHARE), ns(FLOOD_SHARE))
        .map_err(|e| e.to_string())?;
    let read_at = check::read_times(&run);
    let verdicts = check::oracle(&run, &read_at);

    let mut problems: Vec<String> = Vec::new();
    for (idx, why) in verdicts.wrong.iter().take(5) {
        problems.push(format!("request {} answered wrongly: {why}", idx + 1));
    }
    if verdicts.tier_ambiguous as f64 > MAX_LOOSE_SHARE * run.requests.len() as f64 {
        problems.push(format!(
            "{} of {} replies match the reference only loosely",
            verdicts.tier_ambiguous,
            run.requests.len()
        ));
    }
    let lat = run.open_latencies_ms();
    let open_n = run.requests.iter().filter(|r| r.phase == live::Phase::Open).count();
    let late = run.late_sends();
    // Every open-loop request is timed from its due time, so a stall of the
    // generator counts against the requests it delays. The run is invalid
    // only when the median request itself was sent late: the generator was
    // behind its schedule for most of the phase, and `req_p50_ms` would
    // measure the harness rather than the daemon.
    let send_lag_p50_ms = median(&run.open_send_lags_ms());
    if send_lag_p50_ms > live::LATE_SEND_NS as f64 / 1e6 {
        problems.push(format!(
            "generator fell behind: median send lag {send_lag_p50_ms:.3} ms, \
             {late} of {open_n} requests sent late"
        ));
    }
    if beyond(&lat, 0.99) < 10 {
        problems.push(format!("only {} samples beyond p99", beyond(&lat, 0.99)));
    }
    let lost = run.reports_sent.saturating_sub(run.reports_ingested);
    let failed_requests = (verdicts.unanswered + verdicts.wrong.len()) as u64;
    let mut attempted = run.requests.len() as u64 + run.reports_sent;
    let mut failed = failed_requests + lost;
    eprintln!(
        "{}: seed {seed}: {open_n} open-loop requests ({} timed, {late} sent late, \
         median send lag {send_lag_p50_ms:.3} ms), {} closed-loop, {} unanswered, {} checked loosely; {} reports sent, {lost} lost",
        w.name(),
        lat.len(),
        run.requests.len() - open_n,
        verdicts.unanswered,
        verdicts.tier_ambiguous,
        run.reports_sent,
    );
    eprintln!("{}: set-ups (s): {:.3?}", w.name(), run.setup_s);

    let mut metrics = Vec::new();
    let mut m = |name, unit, value| metrics.push(Metric { name, unit, value });
    if !trace {
        m("setup_s", "s", median(&run.setup_s));
        m("req_p50_ms", "ms", median(&lat));
        // Capacity is the rate over all the run's segments together: over
        // ten seeds it spread less than quantiles of 250 ms window rates.
        m("req_per_s_max", "req/s", run.req_per_s());
        m("report_per_s_max", "reports/s", run.report_per_s);
        m("rss_mb", "MB", run.rss_mb);
    } else {
        let out = out_dir().join(format!("spans-{}-{seed}.jsonl", w.name()));
        let _ = std::fs::remove_file(&out);
        let layers = check::replay(&run, &read_at, &verdicts, &out).map_err(|e| e.to_string())?;
        if !layers.mismatched.is_empty() {
            problems.push(format!("replay differs on {} requests", layers.mismatched.len()));
        }
        if layers.shifted as f64 > MAX_LOOSE_SHARE * run.requests.len() as f64 {
            problems.push(format!(
                "replay differs, for a late read, on {} of {} requests",
                layers.shifted,
                run.requests.len()
            ));
        }
        if layers.reports_ingested != run.reports_ingested {
            problems.push(format!(
                "replay ingested {} reports, the daemon {}",
                layers.reports_ingested, run.reports_ingested
            ));
        }
        let cat = catalog::run(CATALOG_SEED, CATALOG_PASSES)?;
        attempted += cat.experiments;
        failed += cat.problems.len() as u64;
        problems.extend(cat.problems.iter().take(5).cloned());
        let (events, records) = catalog::profile(CATALOG_SEED);
        let pass_ms = median(&cat.pass_s) * 1e3;
        let family = |i: usize| median(&cat.family_ms.iter().map(|f| f[i]).collect::<Vec<_>>());
        let lags_ms: Vec<f64> = run.gen_lag_ns.iter().map(|&l| l as f64 / 1e6).collect();
        m("req_p99_ms", "ms", quantile(&lat, 0.99));
        m("proto.status_parse_us", "us", layers.parse_us);
        m("proto.request_decode_us", "us", layers.decode_us);
        m("proto.reply_encode_us", "us", layers.encode_us);
        m("lang.compile_us", "us", layers.compile_us);
        m("lang.may_qualify_us", "us", layers.may_qualify_us);
        m("wizard.select_us", "us", layers.select_us);
        m("wizard.rows_evaluated", "count", layers.rows_evaluated);
        m("wizard.shards_pruned_ratio", "ratio", layers.shards_pruned_ratio);
        m("wizard.eval_ns_per_row", "ns", layers.select_us * 1e3 / layers.rows_evaluated);
        m("wizard.qualified_per_evaluated", "ratio", layers.qualified_per_evaluated);
        m("monitor.upsert_us", "us", layers.upsert_us);
        m("monitor.sweep_us", "us", layers.sweep_us);
        m("monitor.evicted_per_sweep", "count", layers.evicted_per_sweep);
        m("telemetry.record_ns", "ns", layers.record_ns);
        m("telemetry.trace_bytes_per_req", "B", run.trace_bytes as f64 / run.served.max(1) as f64);
        m("live.overhead_us", "us", 1e6 / run.req_per_s() - layers.engine_us_per_closed_reply);
        m("hostsim.expand_ms", "ms", median(&run.expand_ms));
        m("catalog.pass_ms", "ms", pass_ms);
        for (i, name) in
            ["catalog.paper_ms", "catalog.ablation_ms", "catalog.hostile_ms", "catalog.fleet_ms"]
                .into_iter()
                .enumerate()
        {
            m(name, "ms", family(i));
        }
        m("sim.events", "count", events as f64);
        m("sim.events_per_ms", "events/ms", events as f64 / pass_ms);
        m("telemetry.records", "count", records as f64);
        m("harness.gen_lag_ms", "ms", quantile(&lags_ms, 0.99));
        m("harness.late_sends", "count", late as f64);
        m("harness.open_loop_samples", "count", lat.len() as f64);
        m("harness.trace_overhead_ratio", "ratio", layers.trace_overhead_ratio);
        m("harness.replay_shifted", "count", layers.shifted as f64);
        m("harness.req_fail_ratio", "ratio", failed_requests as f64 / run.requests.len() as f64);
        m("harness.report_loss_ratio", "ratio", lost as f64 / run.reports_sent as f64);
        eprintln!("{}: catalog passes (s): {:.3?}", w.name(), cat.pass_s);
        eprintln!("{}: spans written to {}", w.name(), out.display());
    }
    if metrics.iter().any(|m| !m.value.is_finite()) {
        problems.push("a metric is not a finite number".to_owned());
    }
    for p in &problems {
        eprintln!("{}: {p}", w.name());
    }
    Ok(Outcome { correct: problems.is_empty(), attempted, failed, metrics })
}

/// Where traced runs write their spans: under the build directory.
fn out_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("--catalog-pass") {
        catalog::pass(argv.next().and_then(|s| s.parse().ok()).unwrap_or(CATALOG_SEED));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let declared = match declared(section) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}; run from the repository root");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut o = match run_workload(w, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let printed: Vec<(String, String)> =
        o.metrics.iter().map(|m| (m.name.to_owned(), m.unit.to_owned())).collect();
    if printed != declared {
        eprintln!("perfbench: the metrics printed differ from BENCHMARK.json's {section}");
        o.correct = false;
    }
    for m in &o.metrics {
        println!("{:<12} {:<34} {:>14.6} {}", w.name(), m.name, m.value, m.unit);
    }
    println!("{}", result_line(o.correct, o.attempted, o.failed, &o.metrics));
    ExitCode::SUCCESS
}
