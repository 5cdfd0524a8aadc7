//! End-to-end and per-layer benchmark of the overlay-construction stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload build-line --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload closed-loop for `--seconds`, checks every output, and
//! prints a table of metrics followed, as the last line, by one JSON object:
//! the end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its per-layer
//! metrics with `--trace 1`. Exits 1 when an output check or the determinism
//! guard fails, 2 on bad arguments. See `perfbench/README.md`.

mod sys;
mod trace;
mod workloads;

use overlay_scenarios::Json;
use std::process::ExitCode;
use std::time::Instant;
use trace::{layer_self_seconds, Span, Tracer, NO_OP};
use workloads::{Group, Row, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A set-up batch repeats set-up until at least this many seconds have
/// passed, so that a set-up of microseconds is timed over many calls.
const SETUP_BATCH_S: f64 = 0.05;

/// Every per-layer metric, in output order, with its unit. A metric a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("graph.generate_s", "s"),
    ("core.create_expander_s", "s"),
    ("core.bfs_s", "s"),
    ("core.binarize_s", "s"),
    ("core.handoff_s", "s"),
    ("netsim.delivered", "count"),
    ("netsim.ns_per_msg", "ns"),
    ("netsim.dropped_fault", "count"),
    ("netsim.dropped_receive", "count"),
    ("netsim.dropped_send", "count"),
    ("transport.retransmits", "count"),
    ("transport.acks", "count"),
    ("transport.dupes_dropped", "count"),
    ("transport.give_ups", "count"),
    ("transport.payload_ratio", "ratio"),
    ("transport.tax_x", "ratio"),
    ("maintenance.step_epoch_s", "s"),
    ("maintenance.members", "count"),
    ("maintenance.reinvites_sent", "count"),
    ("maintenance.reinvites_delivered", "count"),
    ("maintenance.repairs", "count"),
    ("traffic.prep_s", "s"),
    ("traffic.router_s", "s"),
    ("traffic.rounds", "rounds"),
    ("traffic.max_edge_load", "count"),
    ("traffic.dropped", "count"),
    ("traffic.expired", "count"),
    ("net.connect_s", "s"),
    ("net.create_expander_s", "s"),
    ("net.bfs_s", "s"),
    ("net.binarize_s", "s"),
    ("net.shutdown_s", "s"),
    ("net.medium_x", "ratio"),
    ("process.cpu_per_wall", "ratio"),
    ("self.bench_s", "s"),
    ("self.core_s", "s"),
    ("self.netsim_s", "s"),
    ("self.maintenance_s", "s"),
    ("self.traffic_s", "s"),
    ("self.net_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Seed of the `i`-th group of a run: `base + i` with `base = seed · 2^20`.
fn group_seed(seed: u64, i: u64) -> u64 {
    (seed << 20).wrapping_add(i)
}

/// A group with the wall time the caller measured around it.
struct Measured {
    group: Group,
    wall_s: f64,
}

fn run_group(wl: &mut dyn Workload, seed: u64, tr: &Tracer) -> Result<Measured, String> {
    let start = Instant::now();
    let group = wl.group(seed, tr)?;
    Ok(Measured {
        group,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// The determinism guard: the deterministic counters of a traced and an
/// untraced run of one seed must agree.
fn guard(seed: u64, untraced: &Group, traced: &Group) -> Result<(), String> {
    if untraced.fingerprint == traced.fingerprint {
        return Ok(());
    }
    let diff: Vec<String> = untraced
        .fingerprint
        .iter()
        .zip(&traced.fingerprint)
        .filter(|(a, b)| a != b)
        .map(|((k, a), (_, b))| format!("{k}: untraced {a}, traced {b}"))
        .collect();
    Err(format!(
        "determinism guard: seed {seed} differs between traced and untraced runs: {}",
        if diff.is_empty() {
            "counter sets differ".to_string()
        } else {
            diff.join("; ")
        }
    ))
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    /// Mean seconds per set-up call of each set-up batch.
    setups: Vec<f64>,
    untraced: Vec<Measured>,
    traced: Vec<Measured>,
    cpu_per_wall: f64,
    /// Peak resident memory at the end of the closed loop.
    peak_rss_mb: f64,
    error: Option<String>,
}

impl Run {
    fn groups(timed: &[Measured]) -> Vec<Group> {
        timed.iter().map(|t| t.group.clone()).collect()
    }

    fn attempted(timed: &[Measured]) -> usize {
        timed.iter().map(|t| t.group.ops.len()).sum()
    }

    fn failed(timed: &[Measured]) -> usize {
        timed.iter().map(|t| t.group.failed).sum()
    }
}

/// Runs set-up repeatedly for at least [`SETUP_BATCH_S`] and returns the
/// mean seconds per call.
fn setup_batch(wl: &mut dyn Workload, seed: u64, tr: &Tracer) -> f64 {
    let start = Instant::now();
    let mut calls = 0;
    while calls == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
        wl.setup(group_seed(seed, 0), tr);
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// The closed loop. Untraced: groups back to back until `seconds` have
/// passed, then seed 0 again, traced, for the guard. Traced: each seed
/// untraced and traced, alternating which goes first. A set-up batch runs
/// before every group: the host's speed drifts in phases of about a second,
/// so set-up is sampled across the whole run like the operations are.
fn measure(wl: &mut dyn Workload, args: &Args, off: &Tracer, on: &Tracer) -> Run {
    let mut run = Run::default();
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let mut i = 0;
    let result = (|| -> Result<(), String> {
        while start.elapsed().as_secs_f64() < args.seconds {
            let setup_tracer = if args.trace { on } else { off };
            run.setups.push(setup_batch(wl, args.seed, setup_tracer));
            let seed = group_seed(args.seed, i);
            if args.trace {
                let (u, t) = if i % 2 == 0 {
                    let u = run_group(wl, seed, off)?;
                    (u, run_group(wl, seed, on)?)
                } else {
                    let t = run_group(wl, seed, on)?;
                    (run_group(wl, seed, off)?, t)
                };
                guard(seed, &u.group, &t.group)?;
                run.untraced.push(u);
                run.traced.push(t);
            } else {
                run.untraced.push(run_group(wl, seed, off)?);
            }
            i += 1;
        }
        run.peak_rss_mb = sys::peak_rss_mb();
        run.cpu_per_wall = (sys::cpu_seconds() - cpu0) / start.elapsed().as_secs_f64();
        if !args.trace {
            let seed = group_seed(args.seed, 0);
            let again = run_group(wl, seed, on)?;
            guard(seed, &run.untraced[0].group, &again.group)?;
        }
        Ok(())
    })();
    run.error = result.err();
    run
}

fn print_rows(title: &str, rows: &[Row]) {
    println!("{title}");
    for r in rows {
        let note = if r.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", r.note)
        };
        println!("  {:<28} {:>16.6} {:<6}{note}", r.name, r.value, r.unit);
    }
}

/// The traced run's per-layer metrics, in [`PER_LAYER`] order.
fn per_layer(wl: &dyn Workload, run: &Run, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let traced = Run::groups(&run.traced);
    let ops = Run::attempted(&run.traced) as f64;
    let mean_wall = |t: &[Measured]| {
        t.iter().flat_map(|t| t.group.ops.iter()).sum::<f64>() / Run::attempted(t).max(1) as f64
    };
    let (layers, roots) = layer_self_seconds(spans);
    let generate: Vec<f64> = spans
        .iter()
        .filter(|s| s.op == NO_OP && s.name == "generate")
        .map(|s| s.dur_ns as f64 * 1e-9)
        .collect();
    let mut values: Vec<(&'static str, f64)> = vec![
        ("graph.generate_s", sys::median(&generate)),
        ("process.cpu_per_wall", run.cpu_per_wall),
        ("trace.op_s", roots / ops.max(1.0)),
        (
            "trace.overhead_s",
            mean_wall(&run.traced) - mean_wall(&run.untraced),
        ),
    ];
    for (layer, metric) in [
        ("bench", "self.bench_s"),
        ("core", "self.core_s"),
        ("netsim", "self.netsim_s"),
        ("maintenance", "self.maintenance_s"),
        ("traffic", "self.traffic_s"),
        ("net", "self.net_s"),
    ] {
        values.push((
            metric,
            layers.get(layer).copied().unwrap_or(0.0) / ops.max(1.0),
        ));
    }
    values.extend(wl.per_layer(&traced, spans));
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, v)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut wl) = workloads::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let note = if args.workload == "build-tcp" {
        "traffic crossed loopback, not a real link"
    } else {
        ""
    };
    println!(
        "machine {}",
        sys::machine_json(wl.backend(), &args.workload, args.seed, note).render()
    );

    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let run = measure(wl.as_mut(), &args, &off, &on);
    let setup_s = sys::median(&run.setups);
    let untraced = Run::groups(&run.untraced);
    let wall_s: f64 = run.untraced.iter().map(|t| t.wall_s).sum();
    let walls: Vec<f64> = untraced
        .iter()
        .flat_map(|g| g.ops.iter().copied())
        .collect();
    let work: f64 = untraced.iter().map(|g| g.work).sum();
    let peak_rss_mb = run.peak_rss_mb;

    let mut rows = vec![Row {
        name: "setup_s",
        value: setup_s,
        unit: "s",
        note: format!(
            "median of {} batch means, each over at least {SETUP_BATCH_S} s",
            run.setups.len()
        ),
    }];
    rows.extend(wl.end_to_end(&untraced, wall_s));
    rows.push(Row {
        name: "peak_rss_mb",
        value: peak_rss_mb,
        unit: "MB",
        note: String::new(),
    });
    print_rows(
        &format!(
            "end-to-end, {} {}, {} groups, {:.2} s of groups",
            args.workload,
            if args.trace { "(untraced half)" } else { "" },
            run.untraced.len(),
            wall_s
        ),
        &rows,
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let spans = on.spans();
        let values = per_layer(wl.as_ref(), &run, &spans);
        let rows: Vec<Row> = values
            .iter()
            .zip(PER_LAYER)
            .map(|((name, value), (_, unit))| Row {
                name,
                value: *value,
                unit,
                note: String::new(),
            })
            .collect();
        print_rows(
            &format!("per-layer, {} traced groups", run.traced.len()),
            &rows,
        );
        for base in wl.bases(&Run::groups(&run.traced)) {
            println!("  base of {base}");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        values
            .into_iter()
            .zip(PER_LAYER)
            .map(|((n, v), (_, u))| (n, v, u))
            .collect()
    } else {
        vec![
            ("setup_s", setup_s, "s"),
            ("op_s_p50", sys::median(&walls), "s"),
            (
                "work_per_s",
                if wall_s > 0.0 { work / wall_s } else { 0.0 },
                "1/s",
            ),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };

    if let Some(e) = &run.error {
        eprintln!("perfbench: check failed: {e}");
    }
    let attempted = Run::attempted(&run.untraced) + Run::attempted(&run.traced);
    let failed = Run::failed(&run.untraced) + Run::failed(&run.traced);
    let metrics = metrics
        .into_iter()
        .map(|(n, v, u)| {
            let value = Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(u.into()))]);
            (n, value)
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(run.error.is_none())),
        ("attempted", Json::UInt(attempted.max(1) as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    if run.error.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
