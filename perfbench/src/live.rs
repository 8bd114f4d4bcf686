//! The live run: a `LiveWizard` in this process, driven over loopback UDP
//! by one generator thread with one report socket and one request socket.
//!
//! Phases, in order:
//!
//! 1. **Set-up**, repeated for [`SETUP_BUDGET`]: expand the topology, spawn
//!    the daemon, send every host's baseline report (keeping at most
//!    [`REPORT_WINDOW`] not yet ingested) until `live_servers()` equals the
//!    fleet size. The last daemon set up is the one measured.
//! 2. **Open loop**: a fixed number of requests at the workload's rate,
//!    beside periodic reports from every host. Each request is timed from
//!    when it was due.
//! 3. **Closed loop**: [`CLOSED_WINDOW`] requests outstanding at all times
//!    and no reports; the periodic schedule pauses meanwhile.
//! 4. **Report flood**: no requests; reports as fast as the daemon ingests
//!    them, with at most [`REPORT_WINDOW`] not yet counted by
//!    `reports_ingested()`, periodic reports continuing.
//!
//! Phases 3 and 4 alternate, in segments no longer than [`MAX_PAUSE_NS`].
//! After them the set-up is repeated for another [`SETUP_BUDGET`], so that
//! the set-up time samples both ends of the run.
//!
//! The generator sleeps in `ppoll` on the request socket, so a reply wakes
//! it at once and a due time wakes it within the kernel's timer slack. It
//! never spins. Every datagram it sends is logged with its send time, so
//! the run can be checked and replayed afterwards.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use smartsock_hostsim::topology::Fleet;
use smartsock_live::{Clock, LiveWizard};
use smartsock_proto::{ServerStatusReport, UserRequest};
use smartsock_wizard::SelectPolicy;

use crate::sys;
use crate::workload::{self, Workload, VARIANTS};

/// Set-ups per batch, at least; more follow until [`SETUP_BUDGET`] is
/// spent. A run makes one batch before its phases and one after them, and
/// `setup_s` is the median of both.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(2_500);
/// Requests kept outstanding in the closed-loop phase.
pub const CLOSED_WINDOW: usize = 4;
/// Reports sent but not yet ingested, at most, while filling or flooding.
pub const REPORT_WINDOW: u64 = 32;
/// A request unanswered this long after it was due has failed.
pub const REPLY_TIMEOUT_NS: u64 = 1_000_000_000;
/// A request sent later than this after it was due was delayed by the
/// harness. It is still timed from its due time, so the delay counts
/// against its latency; `harness.late_sends` counts such requests.
pub const LATE_SEND_NS: u64 = 1_000_000;
/// The periodic reports pause for at most this long in a closed-loop
/// segment: less than the 1 s between `fleet-select`'s 5 s report interval
/// and the 6 s staleness window, so a pause evicts no row. The closed-loop
/// and flood phases alternate in as many segments as that takes, so both
/// sample the whole second half of the run.
const MAX_PAUSE_NS: u64 = 800_000_000;
/// The generator's nap while it waits for the daemon to ingest reports.
const INGEST_NAP: Duration = Duration::from_micros(50);
/// Index of the baseline report in a host's report table; the jittered
/// variants come first.
pub const BASELINE: usize = VARIANTS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Open,
    Closed,
}

/// One datagram the generator sent, in send order.
#[derive(Clone, Copy, Debug)]
pub enum Dgram {
    /// Report `variant` of host number `host`.
    Report { host: u32, variant: u8 },
    /// Request number `idx` (sequence number `idx + 1`).
    Request { idx: u32 },
}

#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub at_ns: u64,
    pub what: Dgram,
}

pub struct Request {
    pub req: UserRequest,
    pub bytes: Vec<u8>,
    pub phase: Phase,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When the reply arrived, and its bytes.
    pub reply: Option<(u64, Vec<u8>)>,
}

/// Everything the live run measured and logged.
pub struct LiveRun {
    /// Per host: the jittered variants, then the baseline report.
    pub reports: Vec<Vec<ServerStatusReport>>,
    /// The same reports' wire bytes.
    pub payloads: Vec<Vec<Vec<u8>>>,
    pub setup_s: Vec<f64>,
    pub expand_ms: Vec<f64>,
    pub log: Vec<Sent>,
    pub requests: Vec<Request>,
    /// Lateness of every scheduled send, nanoseconds.
    pub gen_lag_ns: Vec<u64>,
    pub rss_mb: f64,
    /// Reports ingested per second over the flood segments.
    pub report_per_s: f64,
    /// Clock intervals of the closed-loop segments.
    pub closed_spans: Vec<(u64, u64)>,
    pub reports_sent: u64,
    pub reports_ingested: u64,
    pub served: u64,
    pub trace_bytes: usize,
}

// --- the generator -----------------------------------------------------

struct Generator<'a> {
    w: Workload,
    seed: u64,
    clock: Clock,
    daemon: &'a LiveWizard,
    to: SocketAddr,
    report_sock: UdpSocket,
    request_sock: UdpSocket,
    payloads: &'a [Vec<Vec<u8>>],
    log: Vec<Sent>,
    requests: Vec<Request>,
    lags: Vec<u64>,
    reports_sent: u64,
    /// Reports each host has sent on the periodic schedule.
    sent_per_host: Vec<u64>,
    /// Periodic schedule: hosts in phase order, the next slot, its cycle.
    by_phase: Vec<(u64, usize)>,
    slot: usize,
    cycle: u64,
    t0: u64,
    outstanding: usize,
    buf: Vec<u8>,
    flood_order: Vec<usize>,
    /// Flood reports sent so far; the next one goes to
    /// `flood_order[flood_next % n]`.
    flood_next: usize,
}

impl Generator<'_> {
    fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    fn send_report(&mut self, host: usize, variant: usize) -> io::Result<()> {
        let at_ns = self.now();
        self.report_sock.send_to(&self.payloads[host][variant], self.to)?;
        self.reports_sent += 1;
        let what = Dgram::Report { host: host as u32, variant: variant as u8 };
        self.log.push(Sent { at_ns, what });
        Ok(())
    }

    fn next_report_due(&self) -> u64 {
        self.t0 + self.cycle * self.w.report_interval_ns() + self.by_phase[self.slot].0
    }

    /// Send the periodic report that is due next, recording how late it is.
    fn send_periodic(&mut self) -> io::Result<()> {
        let due = self.next_report_due();
        let host = self.by_phase[self.slot].1;
        let k = self.sent_per_host[host];
        self.sent_per_host[host] += 1;
        self.send_report(host, workload::pick_variant(self.seed, host, k))?;
        self.lags.push(self.now().saturating_sub(due));
        self.slot += 1;
        if self.slot == self.by_phase.len() {
            self.slot = 0;
            self.cycle += 1;
        }
        Ok(())
    }

    fn send_request(&mut self, phase: Phase, due_ns: u64) -> io::Result<()> {
        let idx = self.requests.len() as u64;
        let req = workload::request(self.w, self.seed, idx);
        let bytes = req.encode().to_vec();
        let sent_ns = self.now();
        self.request_sock.send_to(&bytes, self.to)?;
        self.log.push(Sent { at_ns: sent_ns, what: Dgram::Request { idx: idx as u32 } });
        self.requests.push(Request { req, bytes, phase, due_ns, sent_ns, reply: None });
        self.outstanding += 1;
        Ok(())
    }

    /// Collect every reply waiting on the request socket, each stamped
    /// with its kernel arrival time, so a late wake-up of this thread does
    /// not count against the daemon.
    fn drain(&mut self) -> io::Result<()> {
        let fd = self.request_sock.as_raw_fd();
        // Re-anchored on every drain, so a slewing system clock cannot
        // drift the stamps away from the monotonic clock.
        let epoch_ns = unix_epoch_of(&self.clock);
        while let Some((n, stamp)) = sys::recv_stamped(fd, &mut self.buf)? {
            let now = self.now();
            let Some(seq) = self.buf[..n].get(..4) else { continue };
            let seq = u32::from_le_bytes([seq[0], seq[1], seq[2], seq[3]]);
            let slot = (seq as usize).checked_sub(1).and_then(|i| self.requests.get_mut(i));
            let Some(r) = slot.filter(|r| r.reply.is_none()) else { continue };
            // A stamp outside [sent, now] means the anchor is off; the
            // read time is then the best there is.
            let at = stamp
                .map(|t| t.saturating_sub(epoch_ns))
                .filter(|at| (r.sent_ns..=now).contains(at))
                .unwrap_or(now);
            r.reply = Some((at, self.buf[..n].to_vec()));
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        Ok(())
    }

    fn wait(&self, deadline: u64) {
        let now = self.now();
        if deadline > now {
            sys::readable_within(self.request_sock.as_raw_fd(), deadline - now);
        }
    }

    fn open_loop(&mut self, n: u64) -> io::Result<()> {
        let gap = 1_000_000_000 / self.w.request_rate();
        let start = self.now() + 1_000_000;
        let last_due = start + (n - 1) * gap;
        let mut i = 0;
        loop {
            self.drain()?;
            let now = self.now();
            if self.next_report_due() <= now {
                self.send_periodic()?;
                continue;
            }
            if i < n && start + i * gap <= now {
                let due = start + i * gap;
                self.send_request(Phase::Open, due)?;
                self.lags.push(self.now().saturating_sub(due));
                i += 1;
                continue;
            }
            let give_up = last_due + REPLY_TIMEOUT_NS;
            if i == n && (self.outstanding == 0 || now >= give_up) {
                return Ok(());
            }
            let next = if i < n { start + i * gap } else { give_up };
            self.wait(next.min(self.next_report_due()));
        }
    }

    /// Keep [`CLOSED_WINDOW`] requests outstanding for `dur_ns`; returns
    /// the segment's clock interval.
    fn closed_loop(&mut self, dur_ns: u64) -> io::Result<(u64, u64)> {
        self.outstanding = 0;
        let first = self.requests.len();
        let mut oldest = first;
        let start = self.now();
        let end = start + dur_ns;
        loop {
            self.drain()?;
            let now = self.now();
            if now >= end {
                break;
            }
            if self.outstanding < CLOSED_WINDOW {
                self.send_request(Phase::Closed, now)?;
                continue;
            }
            // A reply lost for good would shrink the window; give up on
            // the phase instead of waiting forever.
            while self.requests.get(oldest).is_some_and(|r| r.reply.is_some()) {
                oldest += 1;
            }
            if self.requests.get(oldest).is_some_and(|r| now > r.sent_ns + REPLY_TIMEOUT_NS) {
                break;
            }
            self.wait(end);
        }
        let give_up = self.now() + REPLY_TIMEOUT_NS;
        while self.outstanding > 0 && self.now() < give_up {
            self.wait(give_up);
            self.drain()?;
        }
        // The periodic reports resume where they paused.
        self.t0 += self.now() - start;
        Ok((start, end))
    }

    /// Flood the daemon with reports for `dur_ns`, walking the hosts in a
    /// seeded order and keeping the periodic schedule; returns the reports
    /// ingested meanwhile and the nanoseconds it took.
    fn flood(&mut self, dur_ns: u64) -> io::Result<(u64, u64)> {
        let start = self.now();
        let end = start + dur_ns;
        let before = self.daemon.reports_ingested();
        loop {
            let now = self.now();
            if now >= end {
                break;
            }
            if self.next_report_due() <= now {
                self.send_periodic()?;
                continue;
            }
            if self.reports_sent - self.daemon.reports_ingested() < REPORT_WINDOW {
                let host = self.flood_order[self.flood_next % self.flood_order.len()];
                self.flood_next += 1;
                let k = self.sent_per_host[host];
                self.sent_per_host[host] += 1;
                self.send_report(host, workload::pick_variant(self.seed, host, k))?;
                continue;
            }
            std::thread::sleep(INGEST_NAP);
        }
        Ok((self.daemon.reports_ingested() - before, self.now() - start))
    }
}

/// Wait, napping, until `done()` holds or `timeout` passes.
fn nap_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let t = Instant::now();
    while !done() {
        if t.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(INGEST_NAP);
    }
    true
}

/// The Unix time, in nanoseconds, at which `clock` read zero: the tightest
/// of three readings, so a preemption between two clock reads cannot skew
/// it.
fn unix_epoch_of(clock: &Clock) -> u64 {
    (0..3)
        .map(|_| {
            let before = clock.now_ns();
            let unix = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            let after = clock.now_ns();
            (after - before, unix - (before + after) / 2)
        })
        .min()
        .map_or(0, |(_, epoch)| epoch)
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct SetUp {
    daemon: LiveWizard,
    clock: Clock,
    fleet: Fleet,
    log: Vec<Sent>,
    setup_s: f64,
    expand_ms: f64,
    report_sock: UdpSocket,
}

/// One set-up: expand, spawn, fill the daemon with every host's baseline
/// report.
fn set_up(w: Workload, seed: u64) -> io::Result<SetUp> {
    let t = Instant::now();
    let fleet = w.topology().expand(seed);
    let expand_ms = t.elapsed().as_secs_f64() * 1e3;
    let clock = Clock::wall();
    let daemon = LiveWizard::spawn_with("127.0.0.1:0", SelectPolicy::default(), clock.clone())?;
    let report_sock = UdpSocket::bind("127.0.0.1:0")?;
    let mut log = Vec::with_capacity(fleet.len());
    for (h, host) in fleet.hosts.iter().enumerate() {
        let payload = host.status_report().encode_ascii();
        nap_until(Duration::from_secs(10), || {
            (h as u64) - daemon.reports_ingested() < REPORT_WINDOW
        });
        let at_ns = clock.now_ns();
        report_sock.send_to(payload.as_bytes(), daemon.addr())?;
        log.push(Sent { at_ns, what: Dgram::Report { host: h as u32, variant: BASELINE as u8 } });
    }
    if !nap_until(Duration::from_secs(10), || daemon.live_servers() == fleet.len()) {
        return Err(io::Error::other("daemon never listed the whole fleet"));
    }
    let setup_s = t.elapsed().as_secs_f64();
    Ok(SetUp { daemon, clock, fleet, log, setup_s, expand_ms, report_sock })
}

/// A batch of set-ups, timed into `setup_s` and `expand_ms`; the last
/// daemon is returned running.
fn set_ups(
    w: Workload,
    seed: u64,
    setup_s: &mut Vec<f64>,
    expand_ms: &mut Vec<f64>,
) -> io::Result<SetUp> {
    let started = Instant::now();
    let mut n = 0;
    loop {
        let s = set_up(w, seed)?;
        setup_s.push(s.setup_s);
        expand_ms.push(s.expand_ms);
        n += 1;
        if n >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET {
            return Ok(s);
        }
        s.daemon.shutdown()?;
    }
}

/// Run every live phase of workload `w`: `open_requests` requests in the
/// open loop, then closed-loop and flood phases lasting `closed_ns` and
/// `flood_ns`.
pub fn run(
    w: Workload,
    seed: u64,
    open_requests: usize,
    closed_ns: u64,
    flood_ns: u64,
) -> io::Result<LiveRun> {
    let mut setup_s = Vec::new();
    let mut expand_ms = Vec::new();
    let SetUp { daemon, clock, fleet, log, report_sock, .. } =
        set_ups(w, seed, &mut setup_s, &mut expand_ms)?;

    // Inputs for the measured phases, generated outside any timing.
    let reports: Vec<Vec<ServerStatusReport>> = fleet
        .hosts
        .iter()
        .enumerate()
        .map(|(h, host)| {
            let mut v: Vec<ServerStatusReport> =
                (0..VARIANTS).map(|k| workload::report_variant(seed, h, host, k)).collect();
            let base = host.status_report().encode_ascii();
            v.push(ServerStatusReport::parse_ascii(&base).expect("a baseline report parses"));
            v
        })
        .collect();
    let payloads: Vec<Vec<Vec<u8>>> = reports
        .iter()
        .zip(&fleet.hosts)
        .map(|(v, host)| {
            let mut p: Vec<Vec<u8>> =
                v[..VARIANTS].iter().map(|r| r.encode_ascii().into_bytes()).collect();
            p.push(host.status_report().encode_ascii().into_bytes());
            p
        })
        .collect();
    let interval = w.report_interval_ns();
    let mut by_phase: Vec<(u64, usize)> =
        (0..fleet.len()).map(|h| (workload::report_phase_ns(seed, h, interval), h)).collect();
    by_phase.sort_unstable();

    let request_sock = UdpSocket::bind("127.0.0.1:0")?;
    request_sock.set_nonblocking(true)?;
    sys::tighten_timer_slack();
    sys::enable_rx_timestamps(request_sock.as_raw_fd())?;
    let mut g = Generator {
        w,
        seed,
        t0: clock.now_ns(),
        clock,
        daemon: &daemon,
        to: daemon.addr(),
        report_sock,
        request_sock,
        payloads: &payloads,
        reports_sent: log.len() as u64,
        log,
        requests: Vec::new(),
        lags: Vec::new(),
        sent_per_host: vec![0; fleet.len()],
        by_phase,
        slot: 0,
        cycle: 0,
        outstanding: 0,
        buf: vec![0; 4096],
        flood_order: workload::flood_order(seed, fleet.len()),
        flood_next: 0,
    };
    g.open_loop(open_requests as u64)?;
    let rss_mb = peak_rss_mb();
    let mut closed_spans = Vec::new();
    let (mut flood_reports, mut flood_ns_taken) = (0, 0);
    let segments = closed_ns.div_ceil(MAX_PAUSE_NS).max(1);
    for _ in 0..segments {
        closed_spans.push(g.closed_loop(closed_ns / segments)?);
        let (reports, taken) = g.flood(flood_ns / segments)?;
        flood_reports += reports;
        flood_ns_taken += taken;
    }
    let sent = g.reports_sent;
    nap_until(Duration::from_secs(2), || daemon.reports_ingested() >= sent);
    let Generator { log, requests, lags, reports_sent, .. } = g;
    let reports_ingested = daemon.reports_ingested();
    let stats = daemon.shutdown()?;
    set_ups(w, seed, &mut setup_s, &mut expand_ms)?.daemon.shutdown()?;
    Ok(LiveRun {
        reports,
        payloads,
        setup_s,
        expand_ms,
        log,
        requests,
        gen_lag_ns: lags,
        rss_mb,
        report_per_s: flood_reports as f64 * 1e9 / flood_ns_taken as f64,
        closed_spans,
        reports_sent,
        reports_ingested,
        served: stats.served,
        trace_bytes: stats.trace_jsonl.len(),
    })
}

impl LiveRun {
    /// Closed-loop replies per second: the replies that arrived inside a
    /// closed-loop segment, over the segments' wall time.
    pub fn req_per_s(&self) -> f64 {
        let wall_ns: u64 = self.closed_spans.iter().map(|(lo, hi)| hi - lo).sum();
        let inside = |at: &u64| self.closed_spans.iter().any(|&(lo, hi)| (lo..hi).contains(at));
        let replies = self
            .requests
            .iter()
            .filter(|r| r.phase == Phase::Closed)
            .filter(|r| r.reply.as_ref().is_some_and(|(at, _)| inside(at)))
            .count();
        replies as f64 * 1e9 / wall_ns as f64
    }

    /// The wire bytes of a logged datagram.
    pub fn bytes(&self, what: Dgram) -> &[u8] {
        match what {
            Dgram::Report { host, variant } => &self.payloads[host as usize][variant as usize],
            Dgram::Request { idx } => &self.requests[idx as usize].bytes,
        }
    }

    /// Open-loop latencies in milliseconds, timed from each request's due
    /// time, so a late send counts against the request it delays.
    /// Unanswered requests are left out; they count as failures.
    pub fn open_latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.phase == Phase::Open)
            .filter_map(|r| r.reply.as_ref().map(|(at, _)| (at - r.due_ns) as f64 / 1e6))
            .collect()
    }

    /// How late the generator sent each open-loop request, in
    /// milliseconds.
    pub fn open_send_lags_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.phase == Phase::Open)
            .map(|r| (r.sent_ns - r.due_ns) as f64 / 1e6)
            .collect()
    }

    /// Open-loop requests sent more than [`LATE_SEND_NS`] after they were
    /// due.
    pub fn late_sends(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.phase == Phase::Open && r.sent_ns - r.due_ns > LATE_SEND_NS)
            .count()
    }
}
