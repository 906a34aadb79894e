//! Micro-benchmarks of the runtime primitives: relation insertion with
//! primary keys, strand firing (join + project), indexed-vs-scan joins at
//! increasing relation sizes, and incremental aggregate maintenance.

use criterion::{criterion_group, criterion_main, Criterion};
use ndlog_lang::seminaive::delta_rewrite_full;
use ndlog_lang::{parse_program, Value};
use ndlog_runtime::batch::{BatchOutput, BatchScratch, BatchTrigger};
use ndlog_runtime::strand::JoinStats;
use ndlog_runtime::{AggregateView, CompiledStrand, Store, Tuple, TupleDelta};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_runtime");

    group.bench_function("store_insert_1000_keyed", |b| {
        b.iter(|| {
            let mut store = Store::new();
            for i in 0..1000u32 {
                store.apply(&TupleDelta::insert(
                    "r",
                    Tuple::new(vec![Value::addr(i % 50), Value::Int(i as i64)]),
                ));
            }
            store.total_tuples()
        })
    });

    let program = parse_program(
        "sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2), \
         f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).",
    )
    .unwrap();
    let strands: Vec<CompiledStrand> = delta_rewrite_full(&program)
        .into_iter()
        .map(CompiledStrand::new)
        .collect();
    let link_strand = strands
        .iter()
        .find(|s| s.trigger_relation() == "link")
        .unwrap();
    let mut store = Store::new();
    for d in 2..102u32 {
        store.apply(&TupleDelta::insert(
            "path",
            Tuple::new(vec![
                Value::addr(1u32),
                Value::addr(d),
                Value::addr(d),
                Value::list(vec![Value::addr(1u32), Value::addr(d)]),
                Value::Float(1.0),
            ]),
        ));
    }
    let trigger = TupleDelta::insert(
        "link",
        Tuple::new(vec![
            Value::addr(0u32),
            Value::addr(1u32),
            Value::Float(1.0),
        ]),
    );
    group.bench_function("strand_fire_join_100_paths", |b| {
        b.iter(|| {
            let out = link_strand.fire(&store, &trigger, u64::MAX).unwrap();
            assert_eq!(out.len(), 100);
            out.len()
        })
    });

    // Indexed probe vs. residual scan on a bound join, with the stored
    // `link` relation sized 10^2..10^4: the per-trigger cost of the scan
    // grows linearly with the relation while the probe stays O(matches).
    let reach_program = parse_program("rc2 reach(@S,@D) :- #link(@S,@Z,C), reach(@Z,@D).").unwrap();
    let reach_strands: Vec<CompiledStrand> = delta_rewrite_full(&reach_program)
        .into_iter()
        .map(CompiledStrand::new)
        .collect();
    let reach_strand = reach_strands
        .iter()
        .find(|s| s.trigger_relation() == "reach")
        .unwrap();
    for n in [100u32, 1_000, 10_000] {
        // `link` holds n tuples; the strand triggered by reach(@Z,@D)
        // probes link(@S,@Z,C) on its Z column, and exactly 10 links point
        // at node 1 (the probe's match set).
        let build_store = |indexed: bool| -> Store {
            let mut store = Store::new();
            if indexed {
                store.declare_indexes(reach_strands.iter());
            }
            for i in 0..n {
                let dst = if i % (n / 10) == 0 { 1 } else { 2 + (i % 97) };
                store.apply(&TupleDelta::insert(
                    "link",
                    Tuple::new(vec![
                        Value::addr(1000 + i),
                        Value::addr(dst),
                        Value::Float(1.0),
                    ]),
                ));
            }
            store
        };
        let trigger = TupleDelta::insert(
            "reach",
            Tuple::new(vec![Value::addr(1u32), Value::addr(500u32)]),
        );
        let indexed_store = build_store(true);
        let scan_store = build_store(false);
        group.bench_function(format!("join_link{n}_indexed"), |b| {
            b.iter(|| {
                let mut stats = JoinStats::default();
                let out = reach_strand
                    .fire_counted(&indexed_store, &trigger, u64::MAX, &mut stats)
                    .unwrap();
                assert_eq!(out.len(), 10);
                assert_eq!(stats.logical_probes, 1);
                out.len()
            })
        });
        group.bench_function(format!("join_link{n}_scan"), |b| {
            b.iter(|| {
                let mut stats = JoinStats::default();
                let out = reach_strand
                    .fire_counted(&scan_store, &trigger, u64::MAX, &mut stats)
                    .unwrap();
                assert_eq!(out.len(), 10);
                assert_eq!(stats.tuples_examined as u32, n);
                out.len()
            })
        });
    }

    // Batch-delta vs tuple-at-a-time on the indexed join: a batch of 64
    // reach triggers, each probing the 10-match link bucket, fired through
    // the flat-buffer batch path and the per-tuple reference path.
    {
        let mut store = Store::new();
        store.declare_indexes(reach_strands.iter());
        for i in 0..10_000u32 {
            let dst = if i % 1_000 == 0 { 1 } else { 2 + (i % 97) };
            store.apply(&TupleDelta::insert(
                "link",
                Tuple::new(vec![
                    Value::addr(1000 + i),
                    Value::addr(dst),
                    Value::Float(1.0),
                ]),
            ));
        }
        let deltas: Vec<TupleDelta> = (0..64u32)
            .map(|d| {
                TupleDelta::insert(
                    "reach",
                    Tuple::new(vec![Value::addr(1u32), Value::addr(20_000 + d)]),
                )
            })
            .collect();
        group.bench_function("join_link10000_batch64_tuple_at_a_time", |b| {
            b.iter(|| {
                let mut stats = JoinStats::default();
                let mut total = 0usize;
                for delta in &deltas {
                    total += reach_strand
                        .fire_counted(&store, delta, u64::MAX, &mut stats)
                        .unwrap()
                        .len();
                }
                assert_eq!(total, 640);
                total
            })
        });
        let triggers: Vec<BatchTrigger> = deltas
            .iter()
            .map(|delta| BatchTrigger {
                delta,
                seq_limit: u64::MAX,
            })
            .collect();
        let mut scratch = BatchScratch::default();
        let mut out = BatchOutput::default();
        group.bench_function("join_link10000_batch64_fire_batch", |b| {
            b.iter(|| {
                let mut stats = JoinStats::default();
                reach_strand
                    .fire_batch(&store, &triggers, &mut stats, &mut scratch, &mut out, None)
                    .unwrap();
                assert_eq!(out.all().len(), 640);
                out.all().len()
            })
        });
    }

    let agg_program = parse_program("sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).").unwrap();
    group.bench_function("aggregate_view_1000_updates", |b| {
        b.iter(|| {
            let mut view = AggregateView::from_rule(&agg_program.rules[0]).unwrap();
            let store = Store::new();
            let mut changes = 0usize;
            for i in 0..1000u32 {
                let delta = TupleDelta::insert(
                    "path",
                    Tuple::new(vec![
                        Value::addr(0u32),
                        Value::addr(i % 20),
                        Value::addr(1u32),
                        Value::nil(),
                        Value::Float(f64::from(1000 - i)),
                    ]),
                );
                changes += view.apply(&store, &delta).len();
            }
            changes
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
