//! The live workloads and the inputs each one generates from its seed.
//!
//! A workload fixes a topology, a report interval, an open-loop request
//! rate and a small set of requirement texts. Everything the daemon sees —
//! report values, report phases, which requirement each request carries,
//! how many servers it asks for — is drawn from the run's seed.

use smartsock_hostsim::topology::{FleetHost, TopologySpec};
use smartsock_proto::{RequestOption, ServerStatusReport, UserRequest};
use smartsock_sim::rng::splitmix64;

/// Report variants pre-rendered per host; report `k` of a host sends one of
/// them, chosen from the seed.
pub const VARIANTS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetSelect,
    FleetReports,
}

/// Largest `server_num` a request asks for (drawn from 1 up to this).
pub const MAX_SERVER_NUM: u64 = 8;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::FleetSelect, Workload::FleetReports];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSelect => "fleet-select",
            Workload::FleetReports => "fleet-reports",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Both workloads run the same 2,000-host fleet: 40 /24 shards, half
    /// of them busy.
    pub fn topology(self) -> TopologySpec {
        TopologySpec::fleet(2_000)
    }

    /// How often every host reports during the open- and closed-loop phases.
    pub fn report_interval_ns(self) -> u64 {
        match self {
            Workload::FleetReports => 2_000_000_000,
            Workload::FleetSelect => 5_000_000_000,
        }
    }

    /// Open-loop request rate (requests per second).
    pub fn request_rate(self) -> u64 {
        match self {
            Workload::FleetSelect => 400,
            Workload::FleetReports => 100,
        }
    }

    /// The requirement texts requests draw from.
    pub fn requirements(self) -> &'static [&'static str] {
        match self {
            // No shard summary can rule these out, so every row is
            // evaluated and the qualified rows are ordered by the rank
            // directive.
            Workload::FleetSelect => &[
                "host_system_load1 < 10\n\
                 host_memory_free > 1024*1024\n\
                 #!rank host_cpu_free desc\n",
                "host_cpu_free >= 0\n\
                 host_memory_total > 64*1024*1024\n\
                 #!rank host_memory_free desc\n",
                "host_system_load1 >= 0\n\
                 #!rank host_system_load1 asc\n",
            ],
            // The `fleet.*` experiments' requirement: the busy half of the
            // shards is pruned by its summary.
            Workload::FleetReports => &["host_cpu_free > 0.9\nhost_memory_free > 5*1024*1024\n"],
        }
    }
}

/// A uniform draw in `[0, 1)` from `(seed, stream, a, b)`.
pub fn unit(seed: u64, stream: u64, a: u64, b: u64) -> f64 {
    let x = splitmix64(seed ^ splitmix64(stream ^ splitmix64(a ^ splitmix64(b))));
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw in `[0, n)`.
pub fn below(seed: u64, stream: u64, a: u64, b: u64, n: u64) -> u64 {
    ((unit(seed, stream, a, b) * n as f64) as u64).min(n - 1)
}

const STREAM_VARIANT: u64 = 1;
const STREAM_PHASE: u64 = 2;
const STREAM_PICK: u64 = 3;
const STREAM_REQUEST: u64 = 4;
const STREAM_FLOOD: u64 = 5;

fn sample(band: (f64, f64), u: f64) -> f64 {
    band.0 + (band.1 - band.0) * u
}

/// One host's status report, variant `v`. Hosts vary inside their class
/// bands, which keeps every class on its side of the requirement
/// thresholds.
pub fn report_variant(seed: u64, index: usize, host: &FleetHost, v: usize) -> ServerStatusReport {
    let mut r = host.status_report();
    let u = |k: u64| unit(seed, STREAM_VARIANT, index as u64 * 8 + k, v as u64);
    let c = host.class;
    r.cpu_idle = sample(c.idle, u(0));
    r.cpu_user = (1.0 - r.cpu_idle) * 0.8;
    r.cpu_system = (1.0 - r.cpu_idle) * 0.2;
    r.load1 = sample(c.load, u(1));
    r.load5 = sample(c.load, u(2));
    r.load15 = sample(c.load, u(3));
    r.mem_free = (sample(c.mem_free, u(4)) * r.mem_total as f64) as u64;
    r.mem_used = r.mem_total.saturating_sub(r.mem_free);
    r.net_rbytes_ps = (u(5) * 1e6).round();
    r.net_tbytes_ps = (u(6) * 1e6).round();
    // Round-trip through the wire text so the reference holds exactly
    // what the daemon parses.
    ServerStatusReport::parse_ascii(&r.encode_ascii()).expect("an encoded report parses")
}

/// Which variant report number `k` of host `index` sends.
pub fn pick_variant(seed: u64, index: usize, k: u64) -> usize {
    below(seed, STREAM_PICK, index as u64, k, VARIANTS as u64) as usize
}

/// A host's report phase inside the interval, in nanoseconds.
pub fn report_phase_ns(seed: u64, index: usize, interval_ns: u64) -> u64 {
    (unit(seed, STREAM_PHASE, index as u64, 0) * interval_ns as f64) as u64
}

/// The order the report flood walks the hosts in.
pub fn flood_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = below(seed, STREAM_FLOOD, i as u64, 0, i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Request number `i` of the run, with sequence number `i + 1`.
pub fn request(w: Workload, seed: u64, i: u64) -> UserRequest {
    let texts = w.requirements();
    let text = texts[below(seed, STREAM_REQUEST, i, 0, texts.len() as u64) as usize];
    UserRequest {
        seq: u32::try_from(i + 1).expect("fewer than 2^32 requests in a run"),
        server_num: 1 + below(seed, STREAM_REQUEST, i, 1, MAX_SERVER_NUM) as u16,
        option: RequestOption::DEFAULT,
        detail: text.to_owned(),
    }
}
