//! Integration tests of the performance apparatus: counter validation,
//! cross-machine simulation shapes, and the tuning sweep — the invariants
//! behind Tables IV–VIII and Figures 5–8.

use minigiraffe::core::{Mapper, MappingOptions};
use minigiraffe::gbwt::CachedGbwt;
use minigiraffe::perf::{
    collect_features, cosine_similarity, simulate, CacheSimProbe, MachineModel, SimSched, TopDown,
};
use minigiraffe::tuning::{run_sim_sweep, FeatureCache, ParamSpace, TuningPoint};
use minigiraffe::workload::{InputSetSpec, SyntheticInput};

fn tiny_input() -> SyntheticInput {
    SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 42)
}

/// Run the proxy kernels under the cache simulator, single-threaded.
fn proxy_counters(input: &SyntheticInput) -> minigiraffe::perf::HwCounters {
    let mapper = Mapper::new(&input.gbz);
    let machine = MachineModel::local_intel();
    let mut probe = CacheSimProbe::new(&machine);
    let mut cache = CachedGbwt::new(input.gbz.gbwt(), 256);
    let options = MappingOptions::default();
    for (i, read) in input.dump.reads.iter().enumerate() {
        let _ = mapper.map_read(&mut cache, i as u64, read, &options, &mut probe);
    }
    probe.counters()
}

#[test]
fn counter_validation_proxy_vs_parent_kernels() {
    // The Table V experiment: the proxy's counter vector must be nearly
    // identical (cosine similarity ~1) to the parent's *kernel region*
    // counters, because they run the same kernels on the same inputs.
    let input = tiny_input();
    let proxy = proxy_counters(&input);

    // Parent kernels: map through the parent. Only the kernel stages charge
    // the probe instructions (map_read is the kernel region); the seeding
    // stage in front of them charges it the memory it walks, which is what
    // moves the parent's cache counters off the proxy's.
    let parent = minigiraffe::parent::Parent::new(
        &input.gbz,
        &input.minimizer_index,
        input.spec.workflow,
    );
    let machine = MachineModel::local_intel();
    let mut probe = CacheSimProbe::new(&machine);
    let mut cache = CachedGbwt::new(input.gbz.gbwt(), 256);
    let options = minigiraffe::parent::ParentOptions::default();
    let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
    for (i, bases) in reads.iter().enumerate() {
        let _ = parent.map_read_full(&mut cache, i as u64, bases, &options, &mut probe);
    }
    let parent_counters = probe.counters();

    let sim = cosine_similarity(
        &proxy.validation_vector(),
        &parent_counters.validation_vector(),
    );
    assert!(sim > 0.99, "cosine similarity {sim}");
    // Instruction counts within 10% (paper: "similar").
    let ratio = proxy.instructions as f64 / parent_counters.instructions as f64;
    assert!((0.9..1.1).contains(&ratio), "instruction ratio {ratio}");
}

#[test]
fn topdown_breakdown_is_sane_for_real_kernels() {
    let input = tiny_input();
    let counters = proxy_counters(&input);
    let td = TopDown::from_counters(&counters);
    let [fe, be, bs, ret] = td.percentages();
    let sum = fe + be + bs + ret;
    assert!((sum - 100.0).abs() < 1e-6, "sum {sum}");
    // A real mapping profile: meaningful retiring, nonzero stalls.
    assert!(ret > 15.0, "retiring {ret}");
    assert!(ret < 95.0, "retiring {ret}");
    assert!(be >= 0.0 && fe >= 0.0 && bs >= 0.0);
}

#[test]
fn figure5_shapes_hold_in_simulation() {
    // The qualitative claims of §VII-A: amd fastest, arm slowest;
    // near-linear scaling on amd/arm physical cores; Intel plateaus with
    // SMT.
    let input = tiny_input();
    let mapper = Mapper::new(&input.gbz);
    let workload = collect_features(&mapper, &input.dump, &MappingOptions::default(), 40.0, "t")
        .tiled(2000);
    let mk = |m: &MachineModel, threads: usize| {
        simulate(m, &workload, threads, SimSched::Dynamic { batch: 512 })
            .makespan_s
            .unwrap()
    };
    let amd = MachineModel::local_amd();
    let arm = MachineModel::chi_arm();
    let intel = MachineModel::local_intel();

    // Absolute ranking at full physical cores.
    let amd_full = mk(&amd, 64);
    let arm_full = mk(&arm, 64);
    let intel_full = mk(&intel, 48);
    assert!(amd_full < intel_full, "amd {amd_full} vs intel {intel_full}");
    assert!(intel_full < arm_full, "intel {intel_full} vs arm {arm_full}");

    // Scaling: amd near-linear to 64 cores.
    let amd_speedup = mk(&amd, 1) / amd_full;
    assert!(amd_speedup > 45.0, "amd speedup {amd_speedup}");
    // arm scales well too (no SMT, just cores).
    let arm_speedup = mk(&arm, 1) / arm_full;
    assert!(arm_speedup > 40.0, "arm speedup {arm_speedup}");
    // Intel SMT beyond 48 cores gives < 1.5x more.
    let intel_smt = mk(&intel, 96);
    assert!(intel_full / intel_smt < 1.5, "SMT gain {}", intel_full / intel_smt);
    assert!(intel_full / intel_smt > 0.85, "SMT not harmful beyond reason");
}

#[test]
fn oom_only_on_small_memory_machines() {
    // Figure 5: D-HPRC (≈290 GB) OOMs on the 256 GB machines only.
    let input = tiny_input();
    let mapper = Mapper::new(&input.gbz);
    let workload =
        collect_features(&mapper, &input.dump, &MappingOptions::default(), 290.0, "D");
    for machine in MachineModel::all() {
        let out = simulate(&machine, &workload, 8, SimSched::Dynamic { batch: 64 });
        let expect_oom = machine.dram_gb < 290;
        assert_eq!(out.is_oom(), expect_oom, "{}", machine.name);
    }
}

#[test]
fn oversized_cache_capacity_degrades_simulated_makespan() {
    // Figure 6's right side: huge initial capacities pollute the private
    // caches and slow the run down.
    let input = tiny_input();
    let mapper = Mapper::new(&input.gbz);
    let machine = MachineModel::local_intel();
    let mk = |capacity: usize| {
        let options = MappingOptions { cache_capacity: capacity, ..Default::default() };
        let w = collect_features(&mapper, &input.dump, &options, 40.0, "cap").tiled(500);
        simulate(&machine, &w, 48, SimSched::Dynamic { batch: 128 })
            .makespan_s
            .unwrap()
    };
    let moderate = mk(1024);
    let huge = mk(1 << 20);
    assert!(
        huge > moderate * 1.1,
        "huge capacity must degrade: {huge} vs {moderate}"
    );
}

#[test]
fn tuning_sweep_beats_or_matches_default() {
    let input = tiny_input();
    let mapper = Mapper::new(&input.gbz);
    let machine = MachineModel::chi_intel();
    let sweep = run_sim_sweep(
        &machine,
        &mapper,
        &input.dump,
        &ParamSpace::default(),
        machine.total_threads(),
        &MappingOptions::default(),
        40.0,
        "tiny",
        2000,
        &mut FeatureCache::default(),
    );
    assert_eq!(sweep.records.len(), ParamSpace::default().len());
    let speedup = sweep.speedup_over(TuningPoint::default_config()).unwrap();
    assert!(speedup >= 1.0, "best can never lose to default: {speedup}");
    assert!(speedup < 20.0, "plausible tuning speedup: {speedup}");
    // The heat map has real spread (Figure 8's best-vs-worst gap).
    let spread = sweep.worst().unwrap().makespan_s / sweep.best().unwrap().makespan_s;
    assert!(spread > 1.01, "parameters must matter: spread {spread}");
}
