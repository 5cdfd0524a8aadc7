//! Criterion benches for the reliable-transport layer: what does wrapping the
//! construction pipeline in `Reliable<P>` cost on a *clean* path (pure overhead:
//! sequencing, ack bookkeeping and the per-phase ack drain, with zero
//! retransmissions), and what does a lossy run pay for actually using it?
//!
//! n=512 is the size of the repository benchmark's `build-lossy-reliable`
//! workload (`perfbench/`), so the bare/reliable pair at that size is the
//! clean-path share of that workload's transport tax.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use overlay_core::{ExpanderParams, OverlayBuilder, RoundBudget, TransportConfig};
use overlay_graph::generators;
use overlay_netsim::FaultPlan;

fn bench_clean_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_clean_overhead");
    group.sample_size(10);
    for &n in &[64usize, 128, 512] {
        let g = generators::cycle(n);
        group.bench_with_input(BenchmarkId::new("bare", n), &g, |b, g| {
            b.iter(|| {
                let params = ExpanderParams::for_n(g.node_count()).with_seed(1);
                OverlayBuilder::new(params)
                    .build_under_faults(g, &FaultPlan::default())
                    .expect("pipeline succeeds")
            });
        });
        group.bench_with_input(BenchmarkId::new("reliable", n), &g, |b, g| {
            b.iter(|| {
                let params = ExpanderParams::for_n(g.node_count()).with_seed(1);
                OverlayBuilder::new(params)
                    .with_reliable_transport(TransportConfig::default())
                    .build_under_faults(g, &FaultPlan::default())
                    .expect("pipeline succeeds")
            });
        });
    }
    group.finish();
}

fn bench_lossy_rescue(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_lossy_rescue");
    group.sample_size(10);
    let n = 128;
    let g = generators::cycle(n);
    let plan = FaultPlan::default().with_drop_prob(0.05);
    group.bench_with_input(BenchmarkId::new("reliable-5pct-loss", n), &g, |b, g| {
        b.iter(|| {
            let params = ExpanderParams::for_n(g.node_count()).with_seed(1);
            OverlayBuilder::new(params)
                .with_reliable_transport(TransportConfig::default())
                .with_round_budget(RoundBudget::STANDARD.with_slack(12))
                .build_under_faults(g, &plan)
                .expect("pipeline succeeds")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_clean_overhead, bench_lossy_rescue);
criterion_main!(benches);
