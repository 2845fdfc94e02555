#!/usr/bin/env bash
# Full verification gate for the miniGiraffe-rs workspace:
# build, tests, the release oracles, the CLI memory bounds, the unsafe audit,
# lints, rustdoc, and the benchmark harness.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all crates) =="
cargo build --release --workspace

echo "== tests =="
cargo test --workspace -q

echo "== streaming oracle (golden GAF through the streaming entry point) =="
cargo test --release -q --test oracle streaming

echo "== GAF path oracle (streaming, served and chunk-by-chunk bytes == batch bytes; an optimized build's thread timing) =="
cargo test --release -q --test gaf_paths

echo "== serve suite (concurrent clients, admission, drain, faults and the STATS books; an optimized build's thread timing) =="
cargo test --release -q -p mg-server

echo "== schedulers and the streaming queue (std channels under an optimized build's thread timing) =="
cargo test --release -q -p mg-sched

echo "== streaming memory bounds (peak RSS over 50 windows of reads stays within the window; a 60-chunk seed dump, mapped in a child process, within two chunks + 1 MiB) =="
cargo test --release -q -p mg-parent --test stream_rss --test dump_rss

echo "== CLI memory bounds (parent streams FASTQ: 30000 reads peak within 2x of 2 reads; map streams its dump a block of the file at a time: 30000 reads peak within 2 MiB of 2 reads; info within 8 MiB) =="
# A path that fell back to capturing every read's input or results would
# grow with the input. Peak RSS is the child's own `VmHWM`, sampled from
# /proc while it runs (as benchmark/ measures it): the launcher's pages
# are not counted, and the last ~2 ms before exit can be missed.
peak_rss_kib() {
    python3 - "$@" <<'EOF'
import subprocess, sys, time
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
peak = 0
while child.poll() is None:
    try:
        with open(f"/proc/{child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
    except OSError:
        pass
    time.sleep(0.002)
if child.returncode != 0:
    sys.exit(f"{sys.argv[1:]} exited with {child.returncode}")
print(peak)
EOF
}
rss_dir="$(mktemp -d)"
bin=./target/release/minigiraffe
$bin generate --input-set B-yeast --scale 5 --out "$rss_dir" >/dev/null 2>&1
head -n 8 "$rss_dir/B-yeast.fastq" > "$rss_dir/two.fastq"
small=$(peak_rss_kib $bin parent "$rss_dir/two.fastq" "$rss_dir/B-yeast.mgz" --gaf "$rss_dir/two.gaf")
large=$(peak_rss_kib $bin parent "$rss_dir/B-yeast.fastq" "$rss_dir/B-yeast.mgz" --gaf "$rss_dir/all.gaf")
echo "parent peak RSS: 2 reads ${small} KiB, 30000 reads ${large} KiB"
if [ "$large" -gt $((2 * small)) ]; then
    echo "FAIL: parent on 30000 reads peaked above twice its 2-read peak" >&2
    exit 1
fi
$bin parent "$rss_dir/two.fastq" "$rss_dir/B-yeast.mgz" --dump "$rss_dir/two.bin" >/dev/null 2>&1
small=$(peak_rss_kib $bin map "$rss_dir/two.bin" "$rss_dir/B-yeast.mgz" --out "$rss_dir/two.csv")
large=$(peak_rss_kib $bin map "$rss_dir/B-yeast.bin" "$rss_dir/B-yeast.mgz" --out "$rss_dir/all.csv")
# Neither bound has a term for the dump file (6.9 MB here): a reader that
# held its reads section would show it.
echo "map peak RSS: 2 reads ${small} KiB, 30000 reads ${large} KiB"
if [ "$large" -gt $((small + 2048)) ]; then
    echo "FAIL: map on 30000 reads peaked more than 2 MiB above its 2-read peak" >&2
    exit 1
fi
# `info` on 2 reads exits before the first sample, so its bound is
# absolute: 8 MiB, the process's own baseline included.
large=$(peak_rss_kib $bin info "$rss_dir/B-yeast.bin")
rm -rf "$rss_dir"
echo "info peak RSS: 30000 reads ${large} KiB"
if [ "$large" -gt 8192 ]; then
    echo "FAIL: info on 30000 reads peaked above 8 MiB" >&2
    exit 1
fi

echo "== seeding oracle (extraction vs naive windows, table vs BTreeMap; release arithmetic wraps where debug panics) =="
cargo test --release -q --test seeding

echo "== decode oracle (seed-dump reader, its seed check and varint vs a byte-at-a-time reference; the container checksum, whole and streamed in blocks, vs pinned values and every bit flip; hostile .mgz/.mgi/.bin files and cross-loading between them; the .mgz/.mgi bytes of tiny, B-yeast and D-HPRC pinned; an optimized build's arithmetic) =="
cargo test --release -q --test dump_decode --test corrupt_inputs --test formats
cargo test --release -q -p mg-support --lib checksum

echo "== unsafe audit (unsafe only in the worker pool; files truncated on disk after open stay readable, in an optimized build) =="
# The benchmark harness is a separate package outside this audit: its
# allocation counter is a GlobalAlloc, which cannot be written without it.
allowed='^crates/sched/src/pool\.rs$'
stray=$(grep -rlw --include='*.rs' unsafe crates src tests examples shims | grep -Ev "$allowed" || true)
if [ -n "$stray" ]; then
    echo "FAIL: unsafe outside the audited files:" >&2
    echo "$stray" >&2
    exit 1
fi
cargo test --release -q --test corrupt_inputs files_truncated_after_open_leave_the_loaded_indexes_intact

echo "== Fig. 3 stage shares: extension largest, the two kernels most of the time (an optimized build's shares) =="
cargo test --release -q -p mg-bench --lib fig3_reports

echo "== the two sinks agree: profiler events and metrics spans per stage, count and time; stage intervals abut, one open per task (an optimized build's timing) =="
cargo test --release -q -p mg-parent --lib -- the_profiler_and_the_metrics_agree_on_every_stage stage_intervals_abut_from_one_open_per_fragment

echo "== kernel oracles (one extension walk: the eight-byte XOR step vs the per-base step, the pruned walk vs a walk that prunes nothing at match scores 1/2/3/5, and the probed event stream against its pinned digests; clustering vs a windowed sweep on random pangenomes and vs single linkage over every pair on simulated B-yeast and D-HPRC reads, both on Dijkstra distances; the pair check, from held and from looked-up node records, vs the bounded Dijkstra both ways; extend-first's answer for a read's seeds in any order; an optimized build's arithmetic) =="
cargo test --release -q --test extend_walk --test extend_unpruned --test probe_stream --test cluster_oracle
cargo test --release -q -p mg-index --lib prop_pair_check_from_records_equals_the_lookup
cargo test --release -q -p mg-core --lib seed_order_changes_neither_the_first_walk_nor_the_result

echo "== extend first / extend once (mapper vs cluster-then-extend, kernel vs every anchor extended; an optimized build's arithmetic) =="
cargo test --release -q --test extend_first --test extend_once

echo "== gapped oracle (banded aligner vs the three-matrix reference, tail bound; an optimized build's arithmetic) =="
cargo test --release -q -p mg-parent --lib gapped

echo "== layout oracles (CachedGbwt slots vs the index's own decode and a reference hash table, the chain fast path vs Dijkstra at every offset and the decomposition's answers vs Dijkstra on random bubble chains, the graph's CSR arrays through .mgi and back, k-mers at one hit, the cap and one past it; an optimized build's arithmetic) =="
cargo test --release -q -p mg-gbwt --lib prop_lookups_and_stats_match_the_reference_table
cargo test --release -q -p mg-index --lib -- prop_chain_fast_path_equals_dijkstra_at_every_offset snarl::tests::prop_chain_distances_match_dijkstra
cargo test --release -q -p mg-graph --lib prop_mgi_roundtrip
cargo test --release -q --test seeding kmers_at_one_at_the_cap_and_one_past_the_cap

echo "== lints (--all-targets covers tests and examples, there are no benches) =="
cargo clippy --all-targets -- -D warnings

echo "== rustdoc (every intra-doc link resolves and no public doc links a private item) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude proptest --exclude rand --no-deps

echo "== benchmark harness (own tests, then every workload once at 1/20 scale) =="
# The PR pipeline builds benchmark/ against these crates and runs it; it
# pins library surface (chunk_to_gaf, run_to_gaf, load_read_bases, the CLI
# flags) and re-implements the wire format in benchmark/src/serve.rs. A
# change that breaks any of that must fail here first. --quick checks every
# workload's output digest and the traced run's five-way byte equality.
cargo test --release --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick

echo "verify: all gates passed"
