//! Checking the live run, and the traced replay the per-layer numbers
//! come from.
//!
//! **The oracle** rebuilds the daemon's status table from the logged
//! reports, stamped with the earliest instant the daemon can have read them
//! ([`read_times`]), and checks every reply against it. Each returned server must qualify under `Evaluator`, the count must
//! equal `min(server_num, qualified)`, and the reply must equal
//! `select_flat`'s at some instant the daemon could have handled the
//! request at. That instant is not known exactly: the daemon stamps rows
//! and requests with its own receive time. So the reply is first compared
//! with the reference at the earliest read time and at the reply's
//! arrival, and then at every instant in between (widened by the slowest
//! round trip of the run, for the rows' own stamps) where some row changes
//! freshness tier or goes stale. Between those instants the reference
//! cannot change.
//!
//! **The replay** runs the logged datagrams, at the same read times, through a
//! `WizardEngine` with a null transport, as the daemon's loop does: a sweep,
//! then `handle`, per datagram. It must give every request the reply the
//! live daemon gave and ingest as many reports. A reply may differ only
//! where the live daemon read the request late enough for a row to change
//! tier: the live reply then matches the reference only later in its
//! window, and the replay's matches it at the read time. Those requests
//! are counted, and the caller bounds their share. Spans around each call into
//! a layer are kept in memory and written out at the end, with each
//! layer's totals.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use smartsock_lang::{compile, may_qualify, Evaluator, HostLists, RangeProvider, Requirement};
use smartsock_monitor::db::VarRanges;
use smartsock_monitor::health::HealthTable;
use smartsock_monitor::{NetDb, SecDb, SysDb};
use smartsock_proto::consts::ports;
use smartsock_proto::{
    Endpoint, HostName, Ip, ServerStatusReport, Transport, TransportError, UserRequest,
    WizardReply, MAX_SERVERS_PER_REPLY,
};
use smartsock_sim::{SimDuration, SimTime};
use smartsock_telemetry::{AccumSink, RollupSink, TeeSink, Telemetry};
use smartsock_wizard::{
    select_flat, select_with_stats, Ingest, SelectPolicy, SelectView, ServerVars, WizardEngine,
};

use crate::live::{Dgram, LiveRun, Phase, REPLY_TIMEOUT_NS};

const LOOPBACK: Ip = Ip::new(127, 0, 0, 1);
/// Where replayed requests come from; the reply does not depend on it.
const CLIENT: Endpoint = Endpoint::new(LOOPBACK, 40_000);

/// What the oracle found, per request (indexed like `LiveRun::requests`).
pub struct Verdicts {
    /// Requests with no reply within the timeout.
    pub unanswered: usize,
    /// Requests answered wrongly, with the reason.
    pub wrong: Vec<(usize, String)>,
    /// The reference reply at each request's earliest read time.
    pub at_read: Vec<Option<Vec<Endpoint>>>,
    /// Whether the live reply equals `at_read`.
    pub matched_at_read: Vec<bool>,
    /// Rows qualified at the instant the live reply matched.
    pub qualified: Vec<usize>,
    /// Requests whose reply no single instant of the reference gives
    /// while rows changed tier inside their window; only qualification
    /// and the count are checked for these.
    pub tier_ambiguous: usize,
}

/// The state `select` consults besides the status table, as a fresh
/// `WizardEngine` holds it.
struct Context {
    netdb: NetDb,
    secdb: SecDb,
    health: HealthTable,
    group_map: BTreeMap<Ip, Ip>,
    templates: BTreeMap<u8, String>,
    policy: SelectPolicy,
}

impl Context {
    fn new() -> Context {
        Context {
            netdb: NetDb::default(),
            secdb: SecDb::default(),
            health: HealthTable::new(Default::default()),
            group_map: BTreeMap::new(),
            templates: smartsock_wizard::templates::defaults(),
            policy: SelectPolicy::default(),
        }
    }

    fn view<'a>(&'a self, sysdb: &'a SysDb) -> SelectView<'a> {
        SelectView {
            sysdb,
            netdb: &self.netdb,
            secdb: &self.secdb,
            health: &self.health,
            group_map: &self.group_map,
            templates: &self.templates,
        }
    }

    fn max_age(&self) -> SimDuration {
        self.policy.stale_max_age.expect("the default policy has a staleness window")
    }
}

/// A host designator (address, domain or bare name) names this report.
fn designates(designator: &str, report: &ServerStatusReport) -> bool {
    match designator.parse::<Ip>() {
        Ok(ip) => ip == report.ip,
        Err(_) => report.host.matches(&HostName::new(designator)),
    }
}

fn qualifies(req: &Requirement, lists: &HostLists, r: &ServerStatusReport) -> bool {
    if lists.denied.iter().any(|d| designates(d, r)) {
        return false;
    }
    let vars = ServerVars { report: r, security_level: None, net_record: None, same_group: false };
    Evaluator::evaluate(req, &vars).qualified
}

/// Check one reply at the instant `t`: every server qualifies and the
/// count is `min(server_num, qualified)`. Returns the qualified count.
fn check_at(
    db: &SysDb,
    max_age: SimDuration,
    t: SimTime,
    req: &UserRequest,
    compiled: &(Requirement, HostLists),
    servers: &[Endpoint],
) -> Result<usize, String> {
    let (requirement, lists) = compiled;
    let fresh = |recorded_at: SimTime| t.since(recorded_at) <= max_age;
    for s in servers {
        let row = db.get(s.ip).ok_or_else(|| format!("{} is not a known server", s.ip))?;
        if s.port != ports::SERVICE || !fresh(row.recorded_at) {
            return Err(format!("{s} is not a live service endpoint"));
        }
        if !qualifies(requirement, lists, &row.report) {
            return Err(format!("{} does not qualify", s.ip));
        }
    }
    let qualified = db
        .iter()
        .filter(|(_, row)| fresh(row.recorded_at) && qualifies(requirement, lists, &row.report))
        .count();
    let want = qualified.min(usize::from(req.server_num)).min(MAX_SERVERS_PER_REPLY);
    if servers.len() != want {
        return Err(format!(
            "{} servers, want min({}, {qualified})",
            servers.len(),
            req.server_num
        ));
    }
    Ok(qualified)
}

/// Instants in `[lo, hi]` where some row changes freshness tier or goes
/// stale under the default policy.
fn tier_changes(db: &SysDb, max_age: SimDuration, lo: u64, hi: u64) -> Vec<u64> {
    let max = max_age.as_nanos();
    let mut at: Vec<u64> = db
        .iter()
        .flat_map(|(_, row)| {
            let r = row.recorded_at.0;
            [r + max / 2 + 1, r + max * 3 / 4 + 1, r + max + 1]
        })
        .filter(|t| (lo..=hi).contains(t))
        .collect();
    at.sort_unstable();
    at.dedup();
    at
}

/// The earliest instant the daemon can have read each logged datagram: its
/// send time, or the arrival of the latest reply to a request sent before
/// it, whichever is later. The daemon reads its socket in order, so it
/// answered every earlier request before it read this datagram. Under a
/// queue this tracks the daemon's own time stamps far more closely than
/// the send times do.
pub fn read_times(run: &LiveRun) -> Vec<u64> {
    let mut horizon = 0;
    run.log
        .iter()
        .map(|sent| {
            let at = sent.at_ns.max(horizon);
            if let Dgram::Request { idx } = sent.what {
                if let Some((reply_at, _)) = &run.requests[idx as usize].reply {
                    horizon = horizon.max(*reply_at);
                }
            }
            at
        })
        .collect()
}

/// Check every live reply against the reference.
pub fn oracle(run: &LiveRun, read_at: &[u64]) -> Verdicts {
    let ctx = Context::new();
    let max_age = ctx.max_age();
    let n = run.requests.len();
    let mut v = Verdicts {
        unanswered: 0,
        wrong: Vec::new(),
        at_read: vec![None; n],
        matched_at_read: vec![false; n],
        qualified: vec![0; n],
        tier_ambiguous: 0,
    };
    // Rows are stamped when the daemon reads them, which is after they
    // were sent by at most about the slowest round trip of the run.
    let slack = run
        .requests
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|(at, _)| at - r.sent_ns))
        .max()
        .unwrap_or(0)
        + 1_000_000;
    let mut compiled: BTreeMap<String, (Requirement, HostLists)> = BTreeMap::new();
    let mut db = SysDb::default();
    for (sent, &read) in run.log.iter().zip(read_at) {
        let idx = match sent.what {
            Dgram::Report { host, variant } => {
                let r = run.reports[host as usize][variant as usize].clone();
                db.upsert(r, SimTime(read));
                continue;
            }
            Dgram::Request { idx } => idx as usize,
        };
        let r = &run.requests[idx];
        let Some((at, bytes)) = &r.reply else {
            v.unanswered += 1;
            continue;
        };
        if at - r.due_ns > REPLY_TIMEOUT_NS {
            v.unanswered += 1;
            continue;
        }
        let reply = match WizardReply::decode(bytes) {
            Ok(reply) if reply.seq == r.req.seq => reply,
            _ => {
                v.wrong.push((idx, "undecodable or mismatched reply".to_owned()));
                continue;
            }
        };
        let creq = compiled.entry(r.req.detail.clone()).or_insert_with(|| {
            let req = compile(&r.req.detail).expect("workload requirements compile");
            let lists = HostLists::from_requirement(&req);
            (req, lists)
        });
        let view = ctx.view(&db);
        let flat_at = |t: u64| select_flat(&view, &ctx.policy, SimTime(t), &r.req, LOOPBACK);
        let at_read = flat_at(read);
        v.matched_at_read[idx] = at_read == reply.servers;
        let matched = if v.matched_at_read[idx] {
            Some(read)
        } else if flat_at(*at) == reply.servers {
            Some(*at)
        } else {
            let lo = read.saturating_sub(slack);
            let changes = tier_changes(&db, max_age, lo, *at);
            let found = changes.iter().copied().find(|&t| flat_at(t) == reply.servers);
            // Each row's own stamp lies up to `slack` after the reference's,
            // by a different amount per row, so where rows change tier inside
            // the window the daemon can see a mix of tiers that no single
            // reference instant has. Only qualification and the count are
            // checked then, at the window's start, where most rows are fresh.
            if found.is_none() && !changes.is_empty() {
                v.tier_ambiguous += 1;
                Some(lo)
            } else {
                found
            }
        };
        v.at_read[idx] = Some(at_read);
        let Some(t) = matched else {
            v.wrong.push((idx, format!("reply {:?} matches the reference at no instant", reply)));
            continue;
        };
        match check_at(&db, max_age, SimTime(t), &r.req, creq, &reply.servers) {
            Ok(q) => v.qualified[idx] = q,
            Err(e) => v.wrong.push((idx, e)),
        }
    }
    v
}

// --- the replay ----------------------------------------------------------

struct NullTransport {
    now: u64,
}

impl Transport for NullTransport {
    fn now_ns(&self) -> u64 {
        self.now
    }

    fn send(&mut self, _: Endpoint, _: Endpoint, _: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }
}

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    /// The request's sequence number; 0 for a report.
    seq: u32,
}

/// Datagrams the untraced and traced engine passes are compared over, at
/// most, for the tracing overhead.
const OVERHEAD_PREFIX: usize = 20_000;

/// Spans kept per pass, at most. Every span still counts towards its
/// layer's totals; a flood of a million reports would otherwise write
/// hundreds of megabytes.
const MAX_KEPT_SPANS: usize = 200_000;

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Total duration and count of every span, by name.
    totals: BTreeMap<&'static str, (u64, usize)>,
    /// Duration of the latest span.
    last_ns: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), totals: BTreeMap::new(), last_ns: 0 }
    }

    fn span<T>(&mut self, name: &'static str, seq: u32, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        let dur_ns = t.elapsed().as_nanos() as u64;
        self.last_ns = dur_ns;
        let total = self.totals.entry(name).or_default();
        *total = (total.0 + dur_ns, total.1 + 1);
        if self.spans.len() < MAX_KEPT_SPANS {
            let start_ns = t.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span { name, start_ns, dur_ns, seq });
        }
        out
    }

    /// Mean duration of the spans called `name`, and their count.
    fn mean_ns(&self, name: &str) -> (f64, usize) {
        let (sum, n) = self.totals.get(name).copied().unwrap_or_default();
        (sum as f64 / n.max(1) as f64, n)
    }

    fn write_jsonl(&self, path: &Path, pass: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        );
        for s in &self.spans {
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"span\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"seq\":{}}}",
                s.name, s.start_ns, s.dur_ns, s.seq
            )?;
        }
        for (name, (sum, n)) in &self.totals {
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"total\":\"{name}\",\"count\":{n},\"sum_ns\":{sum}}}"
            )?;
        }
        out.flush()
    }
}

/// Per-layer figures from the traced replay.
pub struct Layers {
    pub parse_us: f64,
    pub upsert_us: f64,
    pub decode_us: f64,
    pub compile_us: f64,
    pub may_qualify_us: f64,
    pub select_us: f64,
    pub encode_us: f64,
    pub record_ns: f64,
    pub sweep_us: f64,
    pub evicted_per_sweep: f64,
    pub rows_evaluated: f64,
    pub shards_pruned_ratio: f64,
    pub qualified_per_evaluated: f64,
    /// Engine time (sweep plus handle) per reply in the closed loop.
    pub engine_us_per_closed_reply: f64,
    pub trace_overhead_ratio: f64,
    /// Requests whose replay reply differs from the live one for a reason
    /// other than arrival time.
    pub mismatched: Vec<usize>,
    /// Requests answered differently only because the live daemon read
    /// them later than they were sent.
    pub shifted: usize,
    pub reports_ingested: u64,
}

/// Replay the run through a `WizardEngine`, untraced and then traced, and
/// time each layer's public calls against a mirror of its state.
pub fn replay(
    run: &LiveRun,
    read_at: &[u64],
    verdicts: &Verdicts,
    spans_out: &Path,
) -> std::io::Result<Layers> {
    let wire: Vec<&[u8]> = run.log.iter().map(|s| run.bytes(s.what)).collect();
    let ctx = Context::new();
    let max_age = ctx.max_age();

    // Pass 1, untraced: the daemon's per-datagram work and nothing else,
    // over the first `OVERHEAD_PREFIX` datagrams only.
    let prefix = run.log.len().min(OVERHEAD_PREFIX);
    let mut engine = WizardEngine::new(LOOPBACK, SelectPolicy::default());
    let t = Instant::now();
    for (&bytes, &now) in wire.iter().zip(read_at).take(prefix) {
        let mut nt = NullTransport { now };
        black_box(engine.sweep(SimTime(now)));
        let _ = black_box(engine.handle(&mut nt, CLIENT, bytes));
    }
    let untraced_ns = t.elapsed().as_nanos() as f64;

    // Pass 2, traced: the same calls, each inside a span; the replies are
    // compared with the live ones.
    let mut engine = WizardEngine::new(LOOPBACK, SelectPolicy::default());
    let mut tr = Tracer::new();
    let mut mismatched = Vec::new();
    let mut shifted = 0;
    let mut ingested = 0u64;
    let mut evicted = 0usize;
    let in_closed = |t: u64| run.closed_spans.iter().any(|&(lo, hi)| (lo..hi).contains(&t));
    let mut closed_engine_ns = 0u64;
    let mut closed_replies = 0usize;
    let t = Instant::now();
    let mut prefix_ns = 0.0;
    for (i, ((sent, &bytes), &now)) in run.log.iter().zip(&wire).zip(read_at).enumerate() {
        if i == prefix {
            prefix_ns = t.elapsed().as_nanos() as f64;
        }
        let seq = match sent.what {
            Dgram::Request { idx } => idx + 1,
            Dgram::Report { .. } => 0,
        };
        let gone = tr.span("monitor.sweep", seq, || engine.sweep(SimTime(now)));
        evicted += gone.len();
        let sweep_ns = tr.last_ns;
        let mut nt = NullTransport { now };
        let out = tr.span("live.handle", seq, || engine.handle(&mut nt, CLIENT, bytes));
        if in_closed(now) {
            closed_engine_ns += sweep_ns + tr.last_ns;
        }
        match (out, sent.what) {
            (Ok(Ingest::Report(_)), _) => ingested += 1,
            (Ok(Ingest::Replied { reply, .. }), Dgram::Request { idx }) => {
                let idx = idx as usize;
                let r = &run.requests[idx];
                if r.phase == Phase::Closed && in_closed(now) {
                    closed_replies += 1;
                }
                let Some((_, live)) = &r.reply else { continue };
                let live = WizardReply::decode(live).map(|l| l.servers).unwrap_or_default();
                if reply.servers == live {
                    continue;
                }
                // The live daemon read this request later than it was
                // sent, and a row changed tier in between.
                let explained = !verdicts.matched_at_read[idx]
                    && verdicts.at_read[idx].as_ref() == Some(&reply.servers);
                if explained {
                    shifted += 1;
                } else {
                    mismatched.push(idx);
                }
            }
            _ => mismatched.push(usize::MAX),
        }
    }
    if prefix == run.log.len() {
        prefix_ns = t.elapsed().as_nanos() as f64;
    }
    let sweeps = tr.mean_ns("monitor.sweep");
    tr.write_jsonl(spans_out, "engine")?;

    // Pass 3, traced: each layer's public call, against a mirror of the
    // daemon's status table kept in step with the same sweeps.
    let mut lt = Tracer::new();
    let mut db = SysDb::default();
    let mut tel = Telemetry::with_sink(Box::new(TeeSink::new(
        Box::new(AccumSink::new()),
        Box::new(RollupSink::new()),
    )));
    let host = LOOPBACK.to_string();
    let (mut rows, mut shards, mut pruned, mut qualified) = (0usize, 0usize, 0usize, 0usize);
    for ((sent, &bytes), &read) in run.log.iter().zip(&wire).zip(read_at) {
        let now = SimTime(read);
        tel.set_now(read);
        let idx = match sent.what {
            Dgram::Report { .. } => {
                let text = std::str::from_utf8(bytes).expect("reports are text");
                let report = lt.span("proto.status_parse", 0, || {
                    ServerStatusReport::parse_ascii(text).expect("logged reports parse")
                });
                lt.span("monitor.upsert", 0, || db.upsert(report, now));
                continue;
            }
            Dgram::Request { idx } => idx as usize,
        };
        // Swept before each request only: what the daemon's sweeps left at
        // this instant is exactly what one sweep now leaves.
        db.expire(now, max_age);
        let seq = idx as u32 + 1;
        let req = lt.span("proto.request_decode", seq, || {
            UserRequest::decode(bytes).expect("logged requests decode")
        });
        let requirement = lt.span("lang.compile", seq, || compile(&req.detail));
        let requirement = requirement.expect("workload requirements compile");
        let n = lt.span("lang.may_qualify", seq, || {
            db.iter_shards()
                .filter(|(_, s)| may_qualify(&requirement, &Ranges(&s.summary().ranges)))
                .count()
        });
        black_box(n);
        shards += db.shard_count();
        let view = ctx.view(&db);
        let (servers, stats) = lt.span("wizard.select", seq, || {
            select_with_stats(&view, &ctx.policy, now, &req, LOOPBACK)
        });
        rows += stats.rows_evaluated;
        pruned += stats.shards_pruned;
        qualified += verdicts.qualified[idx];
        let reply = WizardReply { seq: req.seq, servers };
        lt.span("proto.reply_encode", seq, || reply.encode());
        lt.span("telemetry.record", seq, || {
            let span = tel.span_start("wizard-match", &host);
            tel.span_end(span);
            tel.counter_incr("wizard-requests");
        });
    }
    lt.write_jsonl(spans_out, "layers")?;

    let us = |name: &str| lt.mean_ns(name).0 / 1e3;
    let (may_ns, requests) = lt.mean_ns("lang.may_qualify");
    Ok(Layers {
        parse_us: us("proto.status_parse"),
        upsert_us: us("monitor.upsert"),
        decode_us: us("proto.request_decode"),
        compile_us: us("lang.compile"),
        may_qualify_us: may_ns * requests as f64 / shards.max(1) as f64 / 1e3,
        select_us: us("wizard.select"),
        encode_us: us("proto.reply_encode"),
        record_ns: lt.mean_ns("telemetry.record").0,
        sweep_us: sweeps.0 / 1e3,
        evicted_per_sweep: evicted as f64 / sweeps.1.max(1) as f64,
        rows_evaluated: rows as f64 / requests.max(1) as f64,
        shards_pruned_ratio: pruned as f64 / shards.max(1) as f64,
        qualified_per_evaluated: qualified as f64 / rows.max(1) as f64,
        engine_us_per_closed_reply: closed_engine_ns as f64 / closed_replies.max(1) as f64 / 1e3,
        trace_overhead_ratio: prefix_ns / untraced_ns,
        mismatched,
        shifted,
        reports_ingested: ingested,
    })
}

/// A shard's range summary as the interval analyser reads it.
struct Ranges<'a>(&'a VarRanges);

impl RangeProvider for Ranges<'_> {
    fn range(&self, name: &str) -> Option<(f64, f64)> {
        self.0.range_of(name)
    }
}
