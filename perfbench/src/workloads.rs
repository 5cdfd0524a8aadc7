//! The four workloads. Each runs closed-loop groups of operations from one
//! seed, times every operation itself, checks what the program returned,
//! and reports the deterministic counters the determinism guard compares.

use crate::sys::{median, tail};
use crate::trace::{total_seconds, Span, Timed, Tracer, NO_OP};
use overlay_core::{
    BuildReport, ExpanderParams, MaintenanceConfig, MaintenanceRunner, OverlayBuilder,
    OverlayResult, RoundBudget, SimExecutor, TransportConfig,
};
use overlay_graph::{generators, DiGraph, UGraph};
use overlay_net::{NetRunner, TcpBackend, TcpHost};
use overlay_netsim::caps::log2_ceil;
use overlay_netsim::{ChurnSchedule, FaultPlan};
use overlay_scenarios::{GraphFamily, Scenario, TrafficSpec, Workload as Traffic};
use overlay_traffic::{TrafficReport, TrafficTally};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one group of operations returned. A group is one build on the
/// `build-*` workloads and one 60-epoch serve run on `serve-traffic`.
#[derive(Clone, Debug, Default)]
pub struct Group {
    /// Wall seconds of each operation: a build, or one epoch plus its wave.
    pub ops: Vec<f64>,
    /// Operations that failed: an error, or a build that did not succeed.
    pub failed: usize,
    /// Work completed: successful builds, or delivered requests.
    pub work: f64,
    /// Deterministic counters; a traced and an untraced run of one seed
    /// must agree on every one.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Per-group figures the workload's report aggregates.
    pub stats: BTreeMap<&'static str, f64>,
}

/// One line of the end-to-end table.
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

fn row(name: &'static str, value: f64, unit: &'static str) -> Row {
    Row {
        name,
        value,
        unit,
        note: String::new(),
    }
}

pub trait Workload {
    /// The medium the operations run on, for the machine facts.
    fn backend(&self) -> &'static str;
    /// Prepares the inputs. Timed by the caller and repeated; the last
    /// call's state is what the groups use.
    fn setup(&mut self, seed: u64, tr: &Tracer);
    /// Runs one group from `seed`. An `Err` is a failed output check.
    fn group(&mut self, seed: u64, tr: &Tracer) -> Result<Group, String>;
    /// The workload's end-to-end rows (set-up and memory are added by the
    /// caller), from the untraced groups and their summed wall time.
    fn end_to_end(&self, groups: &[Group], wall_s: f64) -> Vec<Row>;
    /// The workload's per-layer metrics from the traced groups and spans.
    fn per_layer(&self, groups: &[Group], spans: &[Span]) -> Vec<(&'static str, f64)>;
    /// The bases of the per-layer ratios, for the printed table.
    fn bases(&self, _groups: &[Group]) -> Vec<String> {
        Vec::new()
    }
}

pub const NAMES: [&str; 4] = [
    "build-line",
    "build-lossy-reliable",
    "serve-traffic",
    "build-tcp",
];

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "build-line" => Box::new(SimBuild::new(
            4096,
            generators::line,
            FaultPlan::default(),
            false,
        )),
        "build-lossy-reliable" => Box::new(SimBuild::new(
            512,
            generators::cycle,
            FaultPlan::default().with_drop_prob(0.002),
            true,
        )),
        "serve-traffic" => Box::new(ServeTraffic::default()),
        "build-tcp" => Box::new(TcpBuild::default()),
        _ => return None,
    })
}

/// Mean of `key` over the groups that recorded it.
fn mean(groups: &[Group], key: &str) -> f64 {
    let v: Vec<f64> = groups
        .iter()
        .filter_map(|g| g.stats.get(key))
        .copied()
        .collect();
    ratio(v.iter().sum(), v.len() as f64)
}

/// Median of `key` over the groups that recorded it.
fn median_of(groups: &[Group], key: &str) -> f64 {
    let v: Vec<f64> = groups
        .iter()
        .filter_map(|g| g.stats.get(key))
        .copied()
        .collect();
    median(&v)
}

fn max(groups: &[Group], key: &str) -> f64 {
    groups
        .iter()
        .filter_map(|g| g.stats.get(key))
        .fold(0.0, |a, &b| a.max(b))
}

fn sum(groups: &[Group], key: &str) -> f64 {
    groups.iter().filter_map(|g| g.stats.get(key)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ops(groups: &[Group]) -> Vec<f64> {
    groups.iter().flat_map(|g| g.ops.iter().copied()).collect()
}

/// Mean seconds per traced operation of the spans named `name` in `layer`.
fn per_op(groups: &[Group], spans: &[Span], name: &str, layer: &str, own: bool) -> f64 {
    ratio(
        total_seconds(spans, name, layer, own),
        ops(groups).len() as f64,
    )
}

/// The median and tail rows of the per-operation wall times.
fn timing_rows(groups: &[Group], p50: &'static str, tail_name: &'static str) -> Vec<Row> {
    let walls = ops(groups);
    let mut rows = vec![row(p50, median(&walls), "s")];
    rows.push(match tail(&walls) {
        Some((v, p, n)) => Row {
            note: format!("p{p:.1} of {n} samples"),
            ..row(tail_name, v, "s")
        },
        None => Row {
            note: format!("max: only {} samples, a tail needs 11", walls.len()),
            ..row(tail_name, walls.iter().copied().fold(0.0, f64::max), "s")
        },
    });
    rows
}

/// Rows shared by every construction workload.
fn build_rows(groups: &[Group], wall_s: f64, n: usize) -> Vec<Row> {
    let attempted = ops(groups).len() as f64;
    let failed: usize = groups.iter().map(|g| g.failed).sum();
    let mut rows = timing_rows(groups, "build_s_p50", "build_s_tail");
    rows.push(row(
        "builds_per_s",
        ratio(groups.iter().map(|g| g.work).sum(), wall_s),
        "1/s",
    ));
    rows.push(Row {
        note: format!("{failed} of {attempted} builds"),
        ..row("build_fail_frac", ratio(failed as f64, attempted), "ratio")
    });
    rows.push(row(
        "rounds_per_log2n",
        mean(groups, "rounds") / log2_ceil(n) as f64,
        "ratio",
    ));
    rows
}

fn params(n: usize, seed: u64) -> ExpanderParams {
    ExpanderParams::for_n(n).with_seed(seed)
}

/// The `lossy-ncc0-reliable` builder: the default transport with 12 rounds
/// of slack per phase for retry round-trips.
fn reliable(builder: OverlayBuilder) -> OverlayBuilder {
    builder
        .with_reliable_transport(TransportConfig::default())
        .with_round_budget(RoundBudget::STANDARD.with_slack(12))
}

fn never<T>(e: std::convert::Infallible) -> T {
    match e {}
}

/// `build-line` and `build-lossy-reliable`: a construction through
/// `OverlayBuilder::build_under_faults` on the simulator.
struct SimBuild {
    n: usize,
    family: fn(usize) -> DiGraph,
    faults: FaultPlan,
    reliable: bool,
    graph: DiGraph,
    next_op: u64,
}

impl SimBuild {
    fn new(n: usize, family: fn(usize) -> DiGraph, faults: FaultPlan, reliable: bool) -> Self {
        SimBuild {
            n,
            family,
            faults,
            reliable,
            graph: DiGraph::new(0),
            next_op: 0,
        }
    }

    fn builder(&self, seed: u64) -> OverlayBuilder {
        let builder = OverlayBuilder::new(params(self.n, seed));
        if self.reliable {
            reliable(builder)
        } else {
            builder
        }
    }

    fn record(&self, report: &BuildReport, group: &mut Group) {
        let m = &report.messages;
        let give_ups: u64 = report.phase_metrics.iter().map(|p| p.give_ups).sum();
        let ce = report
            .phase_metrics
            .iter()
            .find(|p| p.phase == "create-expander");
        let rounds = &report.rounds;
        for (key, value) in [
            ("rounds", rounds.total() as f64),
            ("delivered", m.total_delivered as f64),
            ("ce_delivered", ce.map_or(0.0, |p| p.delivered as f64)),
            ("msgs_per_node_round_max", m.max_per_node_per_round as f64),
            ("dropped_fault", m.dropped_fault as f64),
            ("dropped_receive", m.dropped_receive as f64),
            ("dropped_send", m.dropped_send as f64),
            ("retransmits", m.retransmits as f64),
            ("acks", m.acks as f64),
            ("dupes_dropped", m.dupes_dropped as f64),
            ("give_ups", give_ups as f64),
        ] {
            group.stats.insert(key, value);
        }
        group.fingerprint = vec![
            ("rounds.construction", rounds.construction as u64),
            ("rounds.bfs", rounds.bfs as u64),
            ("rounds.finalize", rounds.finalize as u64),
            ("delivered", m.total_delivered),
            ("retransmits", m.retransmits),
            ("acks", m.acks),
            ("dupes_dropped", m.dupes_dropped),
            ("give_ups", give_ups),
            ("dropped_fault", m.dropped_fault),
            ("dropped_receive", m.dropped_receive),
            ("dropped_send", m.dropped_send),
            ("max_per_node_per_round", m.max_per_node_per_round as u64),
            ("coverage_bits", report.coverage(self.n).to_bits()),
            ("success", report.is_success() as u64),
        ];
    }

    /// Wall seconds of one clean build with and without the reliable
    /// transport, for `transport.tax_x`. Outside any operation span.
    fn tax(&self, seed: u64) -> (f64, f64) {
        let time = |builder: OverlayBuilder| {
            let start = Instant::now();
            let _ = std::hint::black_box(
                builder.build_under_faults(&self.graph, &FaultPlan::default()),
            );
            start.elapsed().as_secs_f64()
        };
        let bare = time(OverlayBuilder::new(params(self.n, seed)));
        (
            bare,
            time(reliable(OverlayBuilder::new(params(self.n, seed)))),
        )
    }
}

impl Workload for SimBuild {
    fn backend(&self) -> &'static str {
        "simulator"
    }

    fn setup(&mut self, _seed: u64, tr: &Tracer) {
        self.graph = tr.span("generate", "graph", || (self.family)(self.n));
    }

    fn group(&mut self, seed: u64, tr: &Tracer) -> Result<Group, String> {
        let builder = self.builder(seed);
        tr.set_op(self.next_op);
        self.next_op += 1;
        let start = Instant::now();
        let built = tr.span("op", "bench", || {
            tr.span("build", "core", || {
                let built = builder.build_under_faults(&self.graph, &self.faults);
                for pm in built.iter().flat_map(|r| &r.phase_metrics) {
                    tr.derived(pm.phase, "netsim", pm.wall);
                }
                built
            })
        });
        let wall = start.elapsed().as_secs_f64();
        tr.set_op(NO_OP);
        let mut group = Group {
            ops: vec![wall],
            ..Group::default()
        };
        match built {
            Ok(report) => {
                self.record(&report, &mut group);
                let ok = report.is_success() && report.coverage(self.n) == 1.0;
                if ok {
                    group.work = 1.0;
                } else {
                    group.failed = 1;
                }
                if !ok && !self.reliable {
                    return Err(format!(
                        "seed {seed}: clean build did not succeed with coverage 1 \
                         (success {}, coverage {}, stalled {:?})",
                        report.is_success(),
                        report.coverage(self.n),
                        report.stalled_phase()
                    ));
                }
            }
            Err(e) if self.reliable => {
                group.failed = 1;
                group.fingerprint = vec![("error", 1)];
                eprintln!("seed {seed}: build error (counted): {e}");
            }
            Err(e) => return Err(format!("seed {seed}: build error: {e}")),
        }
        if tr.enabled() && self.reliable {
            let (bare, with) = self.tax(seed);
            group.stats.insert("tax_bare_s", bare);
            group.stats.insert("tax_reliable_s", with);
        }
        Ok(group)
    }

    fn end_to_end(&self, groups: &[Group], wall_s: f64) -> Vec<Row> {
        let mut rows = build_rows(groups, wall_s, self.n);
        rows.push(row(
            "msgs_per_node_round_max",
            max(groups, "msgs_per_node_round_max"),
            "count",
        ));
        rows
    }

    fn per_layer(&self, groups: &[Group], spans: &[Span]) -> Vec<(&'static str, f64)> {
        let phase = |name| per_op(groups, spans, name, "netsim", false);
        let create_expander = phase("create-expander");
        let delivered = sum(groups, "delivered");
        vec![
            ("core.create_expander_s", create_expander),
            ("core.bfs_s", phase("bfs")),
            ("core.binarize_s", phase("binarize")),
            (
                "core.handoff_s",
                per_op(groups, spans, "build", "core", true),
            ),
            ("netsim.delivered", mean(groups, "delivered")),
            (
                "netsim.ns_per_msg",
                1e9 * ratio(create_expander, mean(groups, "ce_delivered")),
            ),
            ("netsim.dropped_fault", mean(groups, "dropped_fault")),
            ("netsim.dropped_receive", mean(groups, "dropped_receive")),
            ("netsim.dropped_send", mean(groups, "dropped_send")),
            ("transport.retransmits", mean(groups, "retransmits")),
            ("transport.acks", mean(groups, "acks")),
            ("transport.dupes_dropped", mean(groups, "dupes_dropped")),
            ("transport.give_ups", mean(groups, "give_ups")),
            (
                "transport.payload_ratio",
                ratio(delivered - sum(groups, "acks"), delivered),
            ),
            (
                "transport.tax_x",
                ratio(sum(groups, "tax_reliable_s"), sum(groups, "tax_bare_s")),
            ),
        ]
    }

    fn bases(&self, groups: &[Group]) -> Vec<String> {
        let builds = groups.len();
        let mut bases = vec![
            format!(
                "transport.payload_ratio: {} acks of {} messages delivered over {builds} builds",
                sum(groups, "acks"),
                sum(groups, "delivered")
            ),
            format!(
                "netsim.ns_per_msg: {} create-expander messages per build",
                mean(groups, "ce_delivered")
            ),
        ];
        if self.reliable {
            bases.push(format!(
                "transport.tax_x: a bare clean build takes {:.6} s",
                mean(groups, "tax_bare_s")
            ));
        }
        bases
    }
}

/// Order-sensitive FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn same_overlay(a: &OverlayResult, b: &OverlayResult) -> bool {
    a.expander == b.expander
        && a.bfs_parents == b.bfs_parents
        && a.tree == b.tree
        && a.rounds == b.rounds
        && a.messages.total_delivered == b.messages.total_delivered
}

/// `build-tcp`: two ranks meshed over loopback TCP (`TcpHost::accept` and
/// `TcpBackend::join`, as two threads of this process). One operation is
/// connect, `build_over` and shutdown.
#[derive(Default)]
struct TcpBuild {
    graph: DiGraph,
    next_op: u64,
}

const TCP_N: usize = 256;
const TCP_TIMEOUT: Duration = Duration::from_secs(30);

impl TcpBuild {
    /// The simulator's `build_over` of the same graph and seed, through the
    /// same timing executor, and its summed phase seconds.
    fn reference(&self, builder: &OverlayBuilder) -> Result<(OverlayResult, f64), String> {
        let local = Tracer::new(true);
        let mut exec = Timed::new(SimExecutor::default(), &local, "netsim");
        let result = builder
            .build_over(&self.graph, &mut exec)
            .map_err(|e| format!("simulator reference build: {e}"))?;
        let phases = local.spans().iter().map(|s| s.dur_ns as f64 * 1e-9).sum();
        Ok((result, phases))
    }

    fn connect_build_shutdown(
        &self,
        builder: OverlayBuilder,
        seed: u64,
        tr: &Tracer,
    ) -> Result<(OverlayResult, OverlayResult), String> {
        let graph = &self.graph;
        let net = |e: overlay_net::NetError| e.to_string();
        std::thread::scope(|scope| {
            let (backend, joiner) = tr.span("connect", "net", || {
                let host = TcpHost::bind("127.0.0.1:0").map_err(net)?;
                let addr = host.local_addr().map_err(net)?.to_string();
                let joiner = scope.spawn(move || -> Result<OverlayResult, String> {
                    let backend = TcpBackend::join(&addr, TCP_TIMEOUT).map_err(net)?;
                    let mut runner = NetRunner::new(backend);
                    let result = builder
                        .build_over(graph, &mut runner)
                        .map_err(|e| format!("rank 1 build: {e}"))?;
                    runner.shutdown().map_err(net)?;
                    Ok(result)
                });
                let backend = host.accept(2, TCP_N, seed, TCP_TIMEOUT).map_err(net)?;
                Ok::<_, String>((backend, joiner))
            })?;
            let mut exec = Timed::new(NetRunner::new(backend), tr, "net");
            let rank0 = tr.span("build", "core", || builder.build_over(graph, &mut exec));
            let (down, rank1) =
                tr.span("shutdown", "net", || (exec.inner.shutdown(), joiner.join()));
            let rank0 = rank0.map_err(|e| format!("rank 0 build: {e}"))?;
            down.map_err(net)?;
            let rank1 = rank1.map_err(|_| "rank 1 thread panicked".to_string())??;
            Ok((rank0, rank1))
        })
    }
}

impl Workload for TcpBuild {
    fn backend(&self) -> &'static str {
        "tcp (2 ranks as threads of one process, one loopback connection)"
    }

    fn setup(&mut self, _seed: u64, tr: &Tracer) {
        self.graph = tr.span("generate", "graph", || generators::line(TCP_N));
    }

    fn group(&mut self, seed: u64, tr: &Tracer) -> Result<Group, String> {
        let builder = OverlayBuilder::new(params(TCP_N, seed));
        let first = self.next_op == 0;
        let reference = if first || tr.enabled() {
            Some(self.reference(&builder)?)
        } else {
            None
        };
        tr.set_op(self.next_op);
        self.next_op += 1;
        let start = Instant::now();
        let built = tr.span("op", "bench", || {
            self.connect_build_shutdown(builder, seed, tr)
        });
        let wall = start.elapsed().as_secs_f64();
        tr.set_op(NO_OP);
        let (rank0, rank1) = built.map_err(|e| format!("seed {seed}: {e}"))?;
        if !same_overlay(&rank0, &rank1) {
            return Err(format!(
                "seed {seed}: the two TCP ranks built different overlays"
            ));
        }
        if !rank0.tree.is_valid() || rank0.tree.node_count() != TCP_N {
            return Err(format!(
                "seed {seed}: TCP tree is not valid over all {TCP_N} nodes"
            ));
        }
        let mut group = Group {
            ops: vec![wall],
            work: 1.0,
            ..Group::default()
        };
        if let Some((model, sim_phases_s)) = reference {
            if !same_overlay(&model, &rank0) {
                return Err(format!(
                    "seed {seed}: TCP overlay differs from the simulator's build_over"
                ));
            }
            group.stats.insert("sim_phases_s", sim_phases_s);
        }
        let r = &rank0.rounds;
        group.stats.insert("rounds", r.total() as f64);
        group.fingerprint = vec![
            ("rounds.construction", r.construction as u64),
            ("rounds.bfs", r.bfs as u64),
            ("rounds.finalize", r.finalize as u64),
            ("delivered", rank0.messages.total_delivered),
            (
                "tree_hash",
                fnv((0..TCP_N).map(|v| rank0.tree.parent(v.into()).index() as u64)),
            ),
            ("coverage_nodes", rank0.tree.node_count() as u64),
        ];
        Ok(group)
    }

    fn end_to_end(&self, groups: &[Group], wall_s: f64) -> Vec<Row> {
        build_rows(groups, wall_s, TCP_N)
    }

    fn per_layer(&self, groups: &[Group], spans: &[Span]) -> Vec<(&'static str, f64)> {
        let net = |name| per_op(groups, spans, name, "net", false);
        let phases = ["create-expander", "bfs", "binarize"];
        let net_phases: f64 = phases
            .iter()
            .map(|p| total_seconds(spans, p, "net", false))
            .sum();
        vec![
            (
                "core.handoff_s",
                per_op(groups, spans, "build", "core", true),
            ),
            ("net.connect_s", net("connect")),
            ("net.create_expander_s", net("create-expander")),
            ("net.bfs_s", net("bfs")),
            ("net.binarize_s", net("binarize")),
            ("net.shutdown_s", net("shutdown")),
            (
                "net.medium_x",
                ratio(net_phases, sum(groups, "sim_phases_s")),
            ),
        ]
    }

    fn bases(&self, groups: &[Group]) -> Vec<String> {
        vec![format!(
            "net.medium_x: the simulator's phases take {:.6} s per build",
            mean(groups, "sim_phases_s")
        )]
    }
}

/// `serve-traffic`: a clean overlay on a cycle, built once as set-up, then
/// served for 60 maintenance epochs with churn, each followed by one Zipf
/// wave routed greedily over the current core graph.
struct ServeTraffic {
    /// Holds the wave's `TrafficSpec`; `run_traffic_over` routes it.
    scenario: Scenario,
    expander: UGraph,
    next_op: u64,
}

const SERVE_N: usize = 256;
const EPOCHS: usize = 60;
const EPOCH_ROUNDS: usize = 25;
const JOIN_RATE: f64 = 0.5;
const LEAVE_RATE: f64 = 0.2;

impl Default for ServeTraffic {
    fn default() -> Self {
        let scenario = Scenario::new(
            "bench-serve-traffic",
            "Zipf waves over a churning served overlay",
            GraphFamily::Cycle,
            SERVE_N,
        )
        .with_traffic(TrafficSpec::new(Traffic::Zipf { exponent: 1.1 }));
        ServeTraffic {
            scenario,
            expander: UGraph::new(0),
            next_op: 0,
        }
    }
}

impl ServeTraffic {
    fn runner(&self, seed: u64) -> MaintenanceRunner {
        let config = MaintenanceConfig {
            epoch_rounds: EPOCH_ROUNDS,
            epochs: EPOCHS,
            reinvite: true,
            repair: true,
            invite_loss: 0.0,
            invite_retries: 0,
            seed: seed ^ 0x5E12_EC0D_E5E2_7E5E,
        };
        let schedule = ChurnSchedule {
            seed: seed ^ 0xC0A1_E5CE_D01E_5EED,
            join_rate: JOIN_RATE,
            leave_rate: LEAVE_RATE,
            crash_rate: 0.0,
            burst: None,
        };
        MaintenanceRunner::new(
            self.expander.clone(),
            params(SERVE_N, seed),
            config,
            schedule,
        )
    }
}

fn traffic_fingerprint(r: &TrafficReport) -> Vec<(&'static str, u64)> {
    vec![
        ("traffic.injected", r.injected),
        ("traffic.delivered", r.delivered),
        ("traffic.dropped", r.dropped),
        ("traffic.expired", r.expired),
        ("traffic.lost", r.lost),
        ("traffic.hops_p50", r.hops_p50.into()),
        ("traffic.hops_p99", r.hops_p99.into()),
        ("traffic.hops_max", r.hops_max.into()),
        ("traffic.latency_p50", r.latency_p50.into()),
        ("traffic.latency_p99", r.latency_p99.into()),
        ("traffic.latency_max", r.latency_max.into()),
        ("traffic.max_edge_load", r.max_edge_load.into()),
        ("traffic.max_node_forwards", r.max_node_forwards),
        ("traffic.rounds", r.rounds as u64),
    ]
}

impl Workload for ServeTraffic {
    fn backend(&self) -> &'static str {
        "simulator"
    }

    fn setup(&mut self, seed: u64, tr: &Tracer) {
        let g = tr.span("generate", "graph", || generators::cycle(SERVE_N));
        let built = tr.span("build", "core", || {
            OverlayBuilder::new(params(SERVE_N, seed)).build(&g)
        });
        self.expander = built
            .expect("a clean build of a small cycle succeeds")
            .expander;
    }

    fn group(&mut self, seed: u64, tr: &Tracer) -> Result<Group, String> {
        let spec = self.scenario.traffic.expect("traffic spec set above");
        let mut runner = self.runner(seed);
        let mut exec = Timed::new(SimExecutor::default(), tr, "netsim");
        let mut tally = TrafficTally::new();
        let mut group = Group::default();
        for epoch in 0..EPOCHS {
            tr.set_op(self.next_op);
            self.next_op += 1;
            let start = Instant::now();
            let run = tr.span("op", "bench", || {
                tr.span("step_epoch", "maintenance", || runner.step_epoch());
                tr.span("wave", "traffic", || {
                    let graph = runner.core_graph().clone();
                    let salt = epoch as u64 + 1;
                    self.scenario
                        .run_traffic_over(&spec, &graph, seed, salt, &mut exec)
                })
            });
            group.ops.push(start.elapsed().as_secs_f64());
            tr.set_op(NO_OP);
            let run = run.unwrap_or_else(never);
            tally.absorb(&run.summaries, run.rounds);
        }
        let outcome = runner.into_outcome();
        let report = tally.report();
        if outcome.wf_violations != 0 {
            return Err(format!(
                "seed {seed}: {} epoch boundaries had an ill-formed tree",
                outcome.wf_violations
            ));
        }
        if report.delivered == 0 {
            return Err(format!("seed {seed}: no request was delivered"));
        }
        group.work = report.delivered as f64;
        let mut fingerprint = traffic_fingerprint(&report);
        fingerprint.extend([
            (
                "serve.sustained_coverage_bits",
                outcome.sustained_coverage.to_bits(),
            ),
            ("serve.coverage_mean_bits", outcome.coverage_mean.to_bits()),
            ("serve.wf_violations", outcome.wf_violations as u64),
            ("serve.reinvites_sent", outcome.reinvites_sent as u64),
            (
                "serve.reinvites_delivered",
                outcome.reinvites_delivered as u64,
            ),
            ("serve.repairs", outcome.repairs as u64),
            ("serve.healed", outcome.healed as u64),
            ("serve.final_alive", outcome.final_alive as u64),
        ]);
        group.fingerprint = fingerprint;
        for (key, value) in [
            ("sustained_coverage", outcome.sustained_coverage),
            ("members", outcome.final_alive as f64),
            ("reinvites_sent", outcome.reinvites_sent as f64),
            ("reinvites_delivered", outcome.reinvites_delivered as f64),
            ("repairs", outcome.repairs as f64),
            ("injected", report.injected as f64),
            ("latency_p99", report.latency_p99.into()),
            ("hops_p99", report.hops_p99.into()),
            ("wave_rounds", report.rounds as f64 / EPOCHS as f64),
            ("max_edge_load", report.max_edge_load as f64),
            ("dropped", report.dropped as f64),
            ("expired", report.expired as f64),
        ] {
            group.stats.insert(key, value);
        }
        Ok(group)
    }

    fn end_to_end(&self, groups: &[Group], wall_s: f64) -> Vec<Row> {
        let injected = sum(groups, "injected");
        let delivered: f64 = groups.iter().map(|g| g.work).sum();
        let mut rows = timing_rows(groups, "epoch_s_p50", "epoch_s_tail");
        rows.push(row("requests_per_s", ratio(delivered, wall_s), "1/s"));
        rows.push(Row {
            note: format!("{} of {injected} requests", injected - delivered),
            ..row(
                "undelivered_frac",
                1.0 - ratio(delivered, injected),
                "ratio",
            )
        });
        let p99_note = format!("median of {} groups' p99", groups.len());
        rows.push(Row {
            note: p99_note.clone(),
            ..row(
                "latency_p99_rounds",
                median_of(groups, "latency_p99"),
                "rounds",
            )
        });
        rows.push(Row {
            note: p99_note,
            ..row("hops_p99", median_of(groups, "hops_p99"), "hops")
        });
        rows.push(row(
            "sustained_coverage",
            mean(groups, "sustained_coverage"),
            "ratio",
        ));
        rows
    }

    fn per_layer(&self, groups: &[Group], spans: &[Span]) -> Vec<(&'static str, f64)> {
        vec![
            (
                "maintenance.step_epoch_s",
                per_op(groups, spans, "step_epoch", "maintenance", false),
            ),
            ("maintenance.members", mean(groups, "members")),
            ("maintenance.reinvites_sent", mean(groups, "reinvites_sent")),
            (
                "maintenance.reinvites_delivered",
                mean(groups, "reinvites_delivered"),
            ),
            ("maintenance.repairs", mean(groups, "repairs")),
            (
                "traffic.prep_s",
                per_op(groups, spans, "wave", "traffic", true),
            ),
            (
                "traffic.router_s",
                per_op(groups, spans, "traffic", "netsim", false),
            ),
            ("traffic.rounds", mean(groups, "wave_rounds")),
            ("traffic.max_edge_load", max(groups, "max_edge_load")),
            ("traffic.dropped", mean(groups, "dropped")),
            ("traffic.expired", mean(groups, "expired")),
        ]
    }
}
