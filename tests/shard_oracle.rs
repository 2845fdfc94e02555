//! Sharded-mapping oracle: routing reads to per-region shards is an
//! execution strategy, never a result change. For every golden workload,
//! every shard count, batch and streaming, the sharded pipeline must land
//! on the exact GAF bytes of the monolithic run — and the proxy's
//! dump-replay entry point must return identical kernel results when it
//! routes by seed-core ownership.

use minigiraffe::core::shard::{run_mapping_sharded, ShardParams, ShardSet};
use minigiraffe::core::{run_mapping, StreamOptions, Workflow};
use minigiraffe::index::DistanceIndex;
use minigiraffe::obs::{Ctr, Metrics};
use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions, ShardedParent};
use minigiraffe::support::regions::NullSink;
use minigiraffe::workload::{write_fastq, FastqReader, FastqRecord, InputSetSpec, SyntheticInput};

/// The same seeded workloads the monolithic oracle covers (`tests/oracle.rs`).
fn workloads() -> Vec<(String, SyntheticInput)> {
    let mut out = Vec::new();
    for seed in [11u64, 23, 47] {
        out.push((
            format!("tiny-{seed}"),
            SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), seed),
        ));
    }
    let mut dense = InputSetSpec::tiny_for_tests();
    dense.read_sim.error_rate = 0.03;
    out.push(("dense-29".to_string(), SyntheticInput::generate(&dense, 29)));
    out
}

fn build_set(input: &SyntheticInput, shard_count: usize) -> ShardSet {
    let distance = DistanceIndex::build(input.gbz.graph());
    ShardSet::build(
        &input.gbz,
        &input.minimizer_index,
        &distance,
        &ShardParams { shard_count, ..Default::default() },
    )
    .expect("shard build failed")
}

fn reads_of(input: &SyntheticInput) -> Vec<Vec<u8>> {
    input.sim_reads.iter().map(|r| r.bases.clone()).collect()
}

fn fastq_bytes(input: &SyntheticInput) -> Vec<u8> {
    let records: Vec<FastqRecord> = input
        .sim_reads
        .iter()
        .enumerate()
        .map(|(i, r)| FastqRecord {
            name: format!("r{i}"),
            quality: vec![b'I'; r.bases.len()],
            bases: r.bases.clone(),
        })
        .collect();
    let mut bytes = Vec::new();
    write_fastq(&mut bytes, &records).expect("in-memory FASTQ write");
    bytes
}

#[test]
fn sharded_batch_matches_monolithic_gaf_for_every_shard_count() {
    for (name, input) in workloads() {
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads = reads_of(&input);
        let options = ParentOptions::default();
        let mono = parent.run(&reads, &options);
        let expected = run_to_gaf(input.gbz.graph(), &mono, &name);
        assert!(!expected.is_empty(), "{name}: parent emitted no alignments");
        for k in 1..=4usize {
            let set = build_set(&input, k);
            assert_eq!(set.shard_count(), k, "{name}: builder dropped a shard");
            let sharded = ShardedParent::new(&parent, &set).expect("wire sharded parent");
            let metrics = Metrics::new();
            let run = sharded.run_with_sink_metrics(&reads, &options, &NullSink, &metrics);
            let got = run_to_gaf(input.gbz.graph(), &run, &name);
            assert_eq!(
                got, expected,
                "{name}: sharded GAF (K={k}) diverged from the monolithic run"
            );
            let report = metrics.report();
            assert_eq!(
                report.counter(Ctr::RouteReadsTotal),
                reads.len() as u64,
                "{name}: router skipped reads at K={k}"
            );
            assert_eq!(
                report.counter(Ctr::RouteResidentReads) + report.counter(Ctr::RouteFallbackReads),
                reads.len() as u64,
                "{name}: routing outcomes don't partition the reads at K={k}"
            );
        }
    }
}

#[test]
fn sharded_streaming_matches_monolithic_gaf_across_schedulers() {
    // The full streaming shape — FASTQ bytes through the chunked reader,
    // across the bounded hand-off queue, mapped chunk by chunk — with the
    // sharded dispatcher swapped in for the monolithic one. Ingestion
    // batches (5), mapping chunks (7) and scheduler batches (3) are
    // misaligned exactly as in the monolithic streaming oracle.
    for (name, input) in workloads() {
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads = reads_of(&input);
        let expected = run_to_gaf(
            input.gbz.graph(),
            &parent.run(&reads, &ParentOptions::default()),
            &name,
        );
        let fastq = fastq_bytes(&input);
        for k in [2usize, 4] {
            let set = build_set(&input, k);
            let sharded = ShardedParent::new(&parent, &set).expect("wire sharded parent");
            for kind in minigiraffe::sched::SchedulerKind::ALL {
                let mut options = ParentOptions::default();
                options.mapping.scheduler = kind;
                options.mapping.threads = 4;
                options.mapping.batch_size = 3;
                let stream = StreamOptions { queue_batches: 2, chunk_reads: 7 };
                let batches = FastqReader::new(&fastq[..])
                    .batches(5)
                    .map(|item| item.map(|recs| recs.into_iter().map(|r| r.bases).collect()));
                let mut gaf = Vec::new();
                let summary = sharded
                    .run_streaming(batches, &options, &stream, &name, &mut gaf)
                    .unwrap_or_else(|e| panic!("{name}: sharded streaming failed under {kind}: {e}"));
                assert_eq!(summary.reads as usize, reads.len());
                let got = String::from_utf8(gaf).expect("GAF is UTF-8");
                assert_eq!(
                    got, expected,
                    "{name}: sharded streaming GAF (K={k}) diverged under {kind}"
                );
            }
        }
    }
}

#[test]
fn routing_miss_falls_back_and_rescue_still_fires() {
    // Regression: a read the router cannot place (seeds straddling a core
    // boundary, or no surviving seeds at all) must take the monolithic
    // fallback — and when that read is half of a pair whose mate mapped,
    // the rescue path must recover it exactly as the unsharded pipeline
    // does. An early routing bug that dropped missed reads instead of
    // falling back would show up here as a GAF diff or a dead rescue lane.
    // Rescue's edge over normal seeding is the relaxed hit cap, so the
    // workload needs repeats dense enough that a mate's seeds get
    // suppressed under a tight cap while its partner still maps.
    let mut spec = InputSetSpec::tiny_for_tests();
    spec.workflow = Workflow::Paired;
    spec.genome.repeat_fraction = 0.3;
    spec.genome.repeat_len = 150;
    spec.hard_hit_cap = 2;
    let options = ParentOptions { hard_hit_cap: 2, ..Default::default() };
    assert!(options.enable_rescue);
    // Deterministic scan: the first seed whose monolithic run rescues a
    // mate (and, checked below, sends reads down the fallback lane).
    let input = [5u64, 41, 97]
        .into_iter()
        .map(|seed| SyntheticInput::generate(&spec, seed))
        .find(|input| {
            let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
            let run = parent.run(&reads_of(input), &options);
            run.rescued.iter().any(Option::is_some)
        })
        .expect("no candidate seed exercises rescue; densify the repeats");
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let reads = reads_of(&input);
    let mono = parent.run(&reads, &options);
    let expected = run_to_gaf(input.gbz.graph(), &mono, "rescue");
    assert!(mono.rescued.iter().any(Option::is_some));

    let set = build_set(&input, 3);
    let sharded = ShardedParent::new(&parent, &set).expect("wire sharded parent");
    let metrics = Metrics::new();
    let run = sharded.run_with_sink_metrics(&reads, &options, &NullSink, &metrics);
    let got = run_to_gaf(input.gbz.graph(), &run, "rescue");
    assert_eq!(got, expected, "sharded paired GAF diverged from the monolithic run");
    assert_eq!(run.rescued, mono.rescued, "rescue outcomes diverged under sharding");
    let report = metrics.report();
    assert!(
        report.counter(Ctr::RouteFallbackReads) > 0,
        "workload never exercises the routing-miss fallback"
    );
    assert!(
        report.counter(Ctr::RouteResidentReads) > 0,
        "workload never exercises the resident path"
    );
}

#[test]
fn proxy_dump_replay_matches_monolithic_kernels() {
    // The proxy entry point (captured seed dumps, no minimizer extraction)
    // routes by seed-core ownership instead; kernel results must be
    // identical to the unsharded replay for every workload and shard count.
    for (name, input) in workloads() {
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads = reads_of(&input);
        let options = ParentOptions::default();
        let run = parent.run(&reads, &options);
        let mono = run_mapping(&run.dump, &input.gbz, &options.mapping);
        let distance = DistanceIndex::build(input.gbz.graph());
        for k in [2usize, 4] {
            let set = build_set(&input, k);
            let metrics = Metrics::new();
            let sharded = run_mapping_sharded(
                &run.dump,
                &input.gbz,
                distance.clone(),
                &set,
                &options.mapping,
                &metrics,
            );
            assert_eq!(
                sharded.per_read, mono.per_read,
                "{name}: sharded dump replay (K={k}) diverged from the monolithic kernels"
            );
            assert_eq!(
                metrics.report().counter(Ctr::RouteReadsTotal),
                run.dump.reads.len() as u64,
                "{name}: proxy router skipped reads at K={k}"
            );
        }
    }
}
