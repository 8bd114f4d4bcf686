//! The simulator catalog, timed in traced runs: serial passes over
//! `smartsock_bench::catalog()`, every report shape-checked and compared
//! with the first pass's.
//!
//! Each pass runs in a fresh child process (this binary with
//! `--catalog-pass`). In one process the passes slow down one after
//! another, because every pass leaves memory behind; a fresh process per
//! pass keeps the pass time independent of how many passes ran before.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use smartsock_bench::{catalog, profile_call, shapes};

/// The catalog's experiment families, by id prefix.
pub const FAMILIES: [&str; 4] = ["paper", "ablation", "hostile", "fleet"];

fn family(id: &str) -> usize {
    FAMILIES
        .iter()
        .position(|f| id.strip_prefix(f).is_some_and(|rest| rest.starts_with('.')))
        .unwrap_or(0)
}

pub struct CatalogRun {
    /// Wall time of each whole pass (the sum of its experiments'), seconds.
    pub pass_s: Vec<f64>,
    /// Per pass, wall time of each family, milliseconds.
    pub family_ms: Vec<[f64; 4]>,
    pub experiments: u64,
    /// Shape-check violations and reports that differ between passes.
    pub problems: Vec<String>,
}

/// One pass in this process: a line per experiment with its id, wall
/// nanoseconds and a digest of its report, then a line per shape-check
/// violation.
pub fn pass(seed: u64) {
    for (id, f) in catalog() {
        let t = Instant::now();
        let report = black_box(f(seed));
        let ns = t.elapsed().as_nanos();
        let mut h = DefaultHasher::new();
        report.body.hash(&mut h);
        for (k, v) in &report.figures {
            (k, v.to_bits()).hash(&mut h);
        }
        println!("exp {id} {ns} {:016x}", h.finish());
        for v in shapes::check(id, &report).unwrap_or_default() {
            println!("violation {id} {v}");
        }
    }
}

/// Run `passes` passes, each in a child process.
pub fn run(seed: u64, passes: usize) -> Result<CatalogRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = CatalogRun {
        pass_s: Vec::new(),
        family_ms: Vec::new(),
        experiments: 0,
        problems: Vec::new(),
    };
    let mut first: Option<Vec<String>> = None;
    for _ in 0..passes {
        let child = Command::new(&exe)
            .args(["--catalog-pass", &seed.to_string()])
            .output()
            .map_err(|e| format!("catalog pass: {e}"))?;
        if !child.status.success() {
            return Err(format!("catalog pass failed: {}", String::from_utf8_lossy(&child.stderr)));
        }
        let text = String::from_utf8_lossy(&child.stdout);
        let mut fam = [0.0; 4];
        let mut digests = Vec::new();
        for line in text.lines() {
            let mut it = line.splitn(3, ' ');
            match (it.next(), it.next(), it.next()) {
                (Some("exp"), Some(id), Some(rest)) => {
                    let (ns, digest) = rest.split_once(' ').unwrap_or((rest, ""));
                    fam[family(id)] += ns.parse::<f64>().unwrap_or(f64::NAN) / 1e6;
                    digests.push(format!("{id} {digest}"));
                    out.experiments += 1;
                }
                (Some("violation"), Some(id), Some(v)) => out.problems.push(format!("{id}: {v}")),
                _ => {}
            }
        }
        out.pass_s.push(fam.iter().sum::<f64>() / 1e3);
        out.family_ms.push(fam);
        match &first {
            None => first = Some(digests),
            Some(f) if *f != digests => out.problems.push("a report differs between passes".into()),
            Some(_) => {}
        }
    }
    Ok(out)
}

/// Simulated events dispatched and telemetry lines exported over one
/// profiled pass. Both are pure functions of the seed.
pub fn profile(seed: u64) -> (u64, u64) {
    catalog().into_iter().fold((0, 0), |(events, records), (id, f)| {
        let (_, p) = profile_call(id, f, seed);
        (events + p.sim_events, records + p.records)
    })
}
