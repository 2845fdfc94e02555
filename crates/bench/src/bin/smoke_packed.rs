//! Throughput smoke test for the bit-packed extension PR.
//!
//! Maps a synthetic dump with the paper's default tuning point (batch 512,
//! capacity 256, openmp-dynamic) on the persistent worker pool two ways:
//!
//! * **scalar** — `ExtendParams::force_scalar`: the byte-at-a-time
//!   comparison loop (the oracle, and the only pre-PR shape);
//! * **packed** — the default word-parallel path: 2-bit packed read
//!   windows XORed against the graph's packed arenas, 32 bases per step.
//!
//! Also runs the parent end-to-end with a live metrics registry and
//! reports the seeding-stage time per read (minimizer extraction plus one
//! table probe per minimizer).
//!
//! Prints all rates and writes `BENCH_PACKED.json` (under `MG_OUT`,
//! default the working directory) with reads/sec, allocations-per-read
//! from the counting global allocator, and the seeding nanoseconds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mg_bench::{parent_reads, Ctx};
use mg_core::{Mapper, MappingOptions};
use mg_obs::{Metrics, Stage};
use mg_parent::{Parent, ParentOptions};
use mg_workload::{InputSetSpec, SyntheticInput};

/// Counts heap allocations (allocs + reallocs) so the harness can report
/// per-read allocation pressure in both modes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Times `reps` pooled mapping runs, returning (reads/sec, allocs/read).
fn measure(
    mapper: &Mapper<'_>,
    input: &SyntheticInput,
    options: &MappingOptions,
    reps: usize,
) -> (f64, f64) {
    let reads = input.dump.reads.len();
    // Warm-up: pool threads, caches, and the kernel scratch high-water.
    std::hint::black_box(mapper.run(&input.dump, options));
    let alloc_mark = allocs();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(mapper.run(&input.dump, options).total_extensions());
    }
    let secs = t0.elapsed().as_secs_f64();
    let allocs_per_read = (allocs() - alloc_mark) as f64 / (reads * reps) as f64;
    ((reads * reps) as f64 / secs, allocs_per_read)
}

fn main() {
    let ctx = Ctx::from_env();
    let input = ctx.generate(&InputSetSpec::b_yeast());
    let reads = input.dump.reads.len();
    let reps = 5usize;

    let mapper = Mapper::new(&input.gbz);
    let packed_options = MappingOptions::default(); // 512 / 256 / openmp-dynamic
    let mut scalar_options = packed_options.clone();
    scalar_options.extend.force_scalar = true;

    let (scalar_rps, scalar_allocs) = measure(&mapper, &input, &scalar_options, reps);
    let (packed_rps, packed_allocs) = measure(&mapper, &input, &packed_options, reps);
    let speedup = packed_rps / scalar_rps;

    // Seeding-stage timing: the parent end-to-end with a live registry.
    // This is where minimizer extraction and the table probes run; the
    // per-read span lands in BENCH_PACKED.json so the seeding cost stays
    // visible across PRs.
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let p_reads = parent_reads(&input);
    let metrics = Metrics::new();
    std::hint::black_box(parent.run_with_metrics(&p_reads, &ParentOptions::default(), &metrics));
    let report = metrics.report();
    let seeding_spans = report.stage_count(Stage::Seeding).max(1);
    let seeding_ns_per_read = report.stage_ns(Stage::Seeding) as f64 / seeding_spans as f64;

    println!("input           : {} ({reads} reads, {reps} reps)", InputSetSpec::b_yeast().name);
    println!(
        "config          : {} / batch {} / capacity {}",
        packed_options.scheduler, packed_options.batch_size, packed_options.cache_capacity
    );
    println!("scalar          : {scalar_rps:>12.0} reads/s   {scalar_allocs:>8.2} allocs/read");
    println!("packed          : {packed_rps:>12.0} reads/s   {packed_allocs:>8.2} allocs/read");
    println!("speedup         : {speedup:.2}x");
    println!("seeding         : {seeding_ns_per_read:>12.0} ns/read over {seeding_spans} spans");

    let json = format!(
        concat!(
            "{{\n",
            "  \"input\": \"{}\",\n",
            "  \"reads\": {},\n",
            "  \"reps\": {},\n",
            "  \"scheduler\": \"{}\",\n",
            "  \"batch_size\": {},\n",
            "  \"cache_capacity\": {},\n",
            "  \"threads\": {},\n",
            "  \"scalar_reads_per_sec\": {:.2},\n",
            "  \"packed_reads_per_sec\": {:.2},\n",
            "  \"speedup\": {:.4},\n",
            "  \"scalar_allocs_per_read\": {:.2},\n",
            "  \"packed_allocs_per_read\": {:.2},\n",
            "  \"seeding_ns_per_read\": {:.1},\n",
            "  \"debug_assertions\": {}\n",
            "}}\n"
        ),
        InputSetSpec::b_yeast().name,
        reads,
        reps,
        packed_options.scheduler,
        packed_options.batch_size,
        packed_options.cache_capacity,
        packed_options.threads,
        scalar_rps,
        packed_rps,
        speedup,
        scalar_allocs,
        packed_allocs,
        seeding_ns_per_read,
        cfg!(debug_assertions),
    );
    let out = std::env::var_os("MG_OUT").map(std::path::PathBuf::from).unwrap_or_default();
    let path = out.join("BENCH_PACKED.json");
    let mut file = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    file.write_all(json.as_bytes()).expect("write BENCH_PACKED.json");
    println!("wrote {}", path.display());
}
