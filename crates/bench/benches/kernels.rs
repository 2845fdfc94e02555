//! Criterion micro-benchmarks of the critical kernels and their
//! substrates: per-operation costs behind the tables and figures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mg_core::{
    cluster_seeds_with_scratch, extend_seed_with_scratch, ClusterParams, ClusterScratch,
    ExtendParams, ExtendScratch, Mapper, MappingOptions,
};
use mg_gbwt::CachedGbwt;
use mg_index::{
    extract_minimizers, extract_minimizers_into, DistanceIndex, MinimizerParams, MinimizerScratch,
};
use mg_support::probe::NoProbe;
use mg_support::regions::NullSink;
use mg_workload::{InputSetSpec, SyntheticInput};

fn input() -> SyntheticInput {
    SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 42)
}

fn bench_gbwt(c: &mut Criterion) {
    let input = input();
    let gbwt = input.gbz.gbwt();
    let mut group = c.benchmark_group("gbwt");
    group.bench_function("record_decode", |b| {
        b.iter(|| black_box(gbwt.record(black_box(2))))
    });
    group.bench_function("find_extend_chain", |b| {
        let seq = gbwt.sequence(0).unwrap();
        b.iter(|| {
            let mut state = gbwt.find(seq[0]);
            for &s in seq.iter().skip(1).take(8) {
                state = gbwt.extend(&state, s);
            }
            black_box(state)
        })
    });
    group.bench_function("bidir_extend", |b| {
        let seq = gbwt.sequence(0).unwrap();
        b.iter(|| {
            let mut state = gbwt.find_bidir(seq[4]);
            state = gbwt.extend_forward(&state, seq[5]);
            state = gbwt.extend_backward(&state, seq[3]);
            black_box(state)
        })
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let input = input();
    let gbwt = input.gbz.gbwt();
    let mut group = c.benchmark_group("cached_gbwt");
    group.bench_function("hit", |b| {
        let mut cache = CachedGbwt::new(gbwt, 256);
        let _ = cache.record(2);
        b.iter(|| black_box(cache.record(black_box(2)).total_visits()))
    });
    group.bench_function("miss_no_cache", |b| {
        let mut cache = CachedGbwt::new(gbwt, 0);
        b.iter(|| black_box(cache.record(black_box(2)).total_visits()))
    });
    group.bench_function("cold_fill_capacity_256", |b| {
        b.iter_batched(
            || CachedGbwt::new(gbwt, 256),
            |mut cache| {
                for sym in 2..gbwt.alphabet_size() {
                    black_box(cache.record(sym).total_visits());
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let input = input();
    let graph = input.gbz.graph();
    let dist = DistanceIndex::build(graph);
    // Pick the read with the most seeds for a representative kernel run.
    let read = input
        .dump
        .reads
        .iter()
        .max_by_key(|r| r.seeds.len())
        .expect("reads exist");
    let mut group = c.benchmark_group("kernels");
    group.bench_function("cluster_seeds", |b| {
        let mut scratch = ClusterScratch::default();
        b.iter(|| {
            black_box(cluster_seeds_with_scratch(
                graph,
                &dist,
                black_box(&read.seeds),
                read.bases.len() as u32,
                &ClusterParams::default(),
                &mut NoProbe,
                &mut scratch,
            ))
        })
    });
    group.bench_function("extend_seed", |b| {
        let mut cache = CachedGbwt::new(input.gbz.gbwt(), 256);
        let mut scratch = ExtendScratch::default();
        let seed = read.seeds[0];
        b.iter(|| {
            black_box(extend_seed_with_scratch(
                graph,
                &mut cache,
                &read.bases,
                0,
                black_box(seed),
                &ExtendParams::default(),
                &mut NoProbe,
                &mut scratch,
            ))
        })
    });
    group.bench_function("map_read", |b| {
        let mapper = Mapper::new(&input.gbz);
        let mut cache = CachedGbwt::new(input.gbz.gbwt(), 256);
        let options = MappingOptions::default();
        b.iter(|| {
            black_box(mapper.map_read(&mut cache, 0, read, &options, &NullSink, 0, &mut NoProbe))
        })
    });
    group.finish();
}

fn bench_minimizers(c: &mut Criterion) {
    let input = input();
    let hap: Vec<u8> = input.sim_reads.iter().flat_map(|r| r.bases.clone()).collect();
    let mut group = c.benchmark_group("minimizer");
    group.bench_function("extract_2kb", |b| {
        let seq = &hap[..hap.len().min(2048)];
        let params = MinimizerParams::new(29, 11);
        b.iter(|| black_box(extract_minimizers(black_box(seq), params)))
    });
    // The `_into` variants are what the mapping loop actually runs: the
    // delta against the allocating entry points above is the per-call
    // allocation tax the scratch-threading removed.
    group.bench_function("extract_2kb_into", |b| {
        let seq = &hap[..hap.len().min(2048)];
        let params = MinimizerParams::new(29, 11);
        let mut scratch = MinimizerScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            extract_minimizers_into(black_box(seq), params, &mut scratch, &mut out);
            black_box(out.len())
        })
    });
    group.bench_function("query_read", |b| {
        let read = &input.sim_reads[0].bases;
        b.iter(|| black_box(input.minimizer_index.query(black_box(read), 64)))
    });
    group.bench_function("query_read_into", |b| {
        let read = &input.sim_reads[0].bases;
        let mut scratch = MinimizerScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            input.minimizer_index.query_into(black_box(read), 64, &mut scratch, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let input = input();
    let graph = input.gbz.graph();
    let dist = DistanceIndex::build(graph);
    let read = &input.dump.reads[0];
    let mut group = c.benchmark_group("distance");
    if read.seeds.len() >= 2 {
        let (a, b_pos) = (read.seeds[0].pos, read.seeds[read.seeds.len() - 1].pos);
        group.bench_function("min_distance", |b| {
            b.iter(|| black_box(dist.min_distance(graph, black_box(a), black_box(b_pos), 200)))
        });
        group.bench_function("maybe_within", |b| {
            b.iter(|| black_box(dist.maybe_within(black_box(a), black_box(b_pos), 200)))
        });
    }
    group.bench_function("build", |b| {
        b.iter(|| black_box(DistanceIndex::build(graph)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gbwt, bench_cache, bench_kernels, bench_minimizers, bench_distance
}
criterion_main!(benches);
