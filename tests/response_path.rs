//! The serve response path, from mapped chunk to bytes on the wire.
//!
//! Four locks: (a) one executor step is one transport message, with DONE
//! riding on the last chunk's GAF; (b) server-side TCP connections run with
//! `TCP_NODELAY`; (c) frames built in place equal frames built from owned
//! payloads; (d) the in-place GAF renderer equals a plain `format!`
//! rendering of the same records.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::OnceLock;
use std::time::Duration;

use minigiraffe::core::types::{Extension, ReadInput, ReadResult, Workflow};
use minigiraffe::graph::{Handle, NodeId, Orientation, VariationGraph};
use minigiraffe::index::GraphPos;
use minigiraffe::parent::{chunk_to_gaf_into, run_to_gaf, Alignment, Parent, ParentOptions};
use minigiraffe::server::{
    decode_frame, Conn, Frame, JobSummary, MappingServer, ReadOutcome, ServerConfig, ServerCtl,
};
use minigiraffe::workload::{write_fastq, FastqRecord, InputSetSpec, SyntheticInput};
use proptest::prelude::*;

fn fastq_of(reads: &[Vec<u8>]) -> Vec<u8> {
    let records: Vec<FastqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, bases)| FastqRecord::with_uniform_quality(format!("r{i}"), bases.clone(), b'F'))
        .collect();
    let mut out = Vec::new();
    write_fastq(&mut out, &records).expect("in-memory FASTQ write");
    out
}

/// Requests drain on drop so a failing assertion unwinds instead of
/// deadlocking the scope join on a server that never exits.
struct ShutdownGuard<'a>(&'a ServerCtl);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

/// Splits one transport message into the frames it carries.
fn frames_of(mut message: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    while !message.is_empty() {
        let (frame, used) = decode_frame(message).expect("server sends whole frames");
        frames.push(frame);
        message = &message[used..];
    }
    frames
}

/// Submits `reads` as one job over an in-process pipe, where every server
/// write arrives as its own message, and returns the messages up to and
/// including the one that carries DONE.
fn served_messages(
    server: &MappingServer<'_>,
    name: &str,
    reads: &[Vec<u8>],
) -> Vec<Vec<u8>> {
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, mut client) = Conn::pair();
        tx.send(server_side).unwrap();
        Frame::Submit { name: name.to_string(), fastq: fastq_of(reads) }
            .write_to(&mut **client.writer.lock().unwrap())
            .expect("SUBMIT sent");
        let mut messages = Vec::new();
        let mut buf = vec![0u8; 1 << 20];
        loop {
            match client.reader.read_timed(&mut buf, Duration::from_secs(60)).expect("pipe read") {
                ReadOutcome::Data(n) => {
                    assert!(n < buf.len(), "message larger than the test buffer");
                    messages.push(buf[..n].to_vec());
                    if frames_of(&buf[..n]).iter().any(|f| matches!(f, Frame::Done { .. })) {
                        return messages;
                    }
                }
                ReadOutcome::TimedOut | ReadOutcome::Eof => panic!("no DONE: {messages:?}"),
            }
        }
    })
}

/// (a) Two threads × `batch_size` reads per chunk over a `reads`-read job:
/// ACCEPT, then one message per chunk, the last one carrying GAF and DONE
/// together.
fn one_message_per_step(workflow: Workflow, batch_size: usize, reads: usize) {
    let mut spec = InputSetSpec::tiny_for_tests();
    spec.workflow = workflow;
    let input = SyntheticInput::generate(&spec, 17);
    let raw: Vec<Vec<u8>> = input.sim_reads[..reads].iter().map(|r| r.bases.clone()).collect();
    let mut options = ParentOptions::default();
    options.mapping.threads = 2;
    options.mapping.batch_size = batch_size;
    let parent = Parent::new(&input.gbz, &input.minimizer_index, workflow);
    let config = ServerConfig { options: options.clone(), ..ServerConfig::default() };
    let server = MappingServer::new(&parent, config);
    let messages = served_messages(&server, "job", &raw);
    let chunks = reads.div_ceil(2 * batch_size);
    assert_eq!(messages.len(), chunks + 1, "ACCEPT plus one message per chunk");

    let job = match frames_of(&messages[0]).as_slice() {
        [Frame::Accept { job }] => *job,
        other => panic!("first message is {other:?}"),
    };
    let mut gaf = Vec::new();
    for (i, message) in messages[1..].iter().enumerate() {
        let frames = frames_of(message);
        let last = i + 1 == chunks;
        assert_eq!(frames.len(), if last { 2 } else { 1 }, "message {i} carries {frames:?}");
        let Frame::Gaf { job: j, data } = &frames[0] else { panic!("expected GAF: {frames:?}") };
        assert_eq!(*j, job);
        assert!(!data.is_empty());
        gaf.extend_from_slice(data);
        if last {
            let Frame::Done { job: j, summary } = &frames[1] else {
                panic!("expected DONE after the last GAF: {frames:?}")
            };
            assert_eq!(*j, job);
            assert_eq!(summary.reads, reads as u64);
            assert_eq!(summary.chunks, chunks as u64);
            assert_eq!(summary.gaf_bytes, gaf.len() as u64);
        }
    }
    let oracle_parent = Parent::new(&input.gbz, &input.minimizer_index, workflow);
    let oracle = run_to_gaf(input.gbz.graph(), &oracle_parent.run(&raw, &options), "job");
    assert_eq!(String::from_utf8(gaf).unwrap(), oracle);
}

#[test]
fn one_chunk_job_is_accept_then_gaf_with_done() {
    one_message_per_step(Workflow::Single, 32, 12);
}

#[test]
fn k_chunk_job_is_k_plus_one_messages() {
    one_message_per_step(Workflow::Single, 4, 24);
    one_message_per_step(Workflow::Paired, 4, 20);
}

/// (b) Both TCP constructors leave Nagle off. The option lives on the
/// socket, so a clone taken before the `Conn` swallows the stream sees it.
#[test]
fn tcp_conns_set_nodelay() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    for timeout in [None, Some(Duration::from_secs(5)), Some(Duration::ZERO)] {
        let _client = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let probe = accepted.try_clone().expect("clone");
        assert!(!probe.nodelay().unwrap(), "a fresh socket has Nagle on");
        let _conn = match timeout {
            None => Conn::tcp(accepted),
            Some(t) => Conn::tcp_with_timeout(accepted, t),
        }
        .expect("conn");
        assert!(probe.nodelay().unwrap(), "timeout {timeout:?} left Nagle on");
    }
}

/// One frame of every kind from generator raws; strings are lowercase
/// ASCII so they are always valid UTF-8.
fn build_frame(kind: usize, a: u64, b: u64, text: &[u8], blob: &[u8]) -> Frame {
    let text: String = text.iter().map(|c| char::from(b'a' + c % 26)).collect();
    match kind % 11 {
        0 => Frame::Ping,
        1 => Frame::Stats,
        2 => Frame::Shutdown,
        3 => Frame::Pong,
        4 => Frame::Submit { name: text, fastq: blob.to_vec() },
        5 => Frame::Accept { job: a },
        6 => Frame::Busy { reason: text },
        7 => Frame::Gaf { job: a, data: blob.to_vec() },
        8 => Frame::Done {
            job: a,
            summary: JobSummary {
                reads: b,
                chunks: a ^ b,
                gaf_bytes: a.wrapping_mul(3),
                queue_wait_us: b.rotate_left(7),
                latency_us: a.wrapping_add(b),
            },
        },
        9 => Frame::Error { job: a, message: text },
        _ => Frame::StatsReply { json: text },
    }
}

/// What the old renderer did, kept as the reference: one `format!` per
/// line, path and haplotype list through intermediate strings.
fn reference_gaf(
    graph: &VariationGraph,
    set_name: &str,
    base_id: u64,
    reads: &[ReadInput],
    results: &[ReadResult],
    alignments: &[Vec<Alignment>],
) -> String {
    let mut out = String::new();
    for (result, alignments) in results.iter().zip(alignments) {
        for a in alignments {
            let Some(e) =
                result.extensions.iter().find(|e| e.read_start == a.read_start && e.pos == a.pos)
            else {
                continue;
            };
            let sign = |h: &Handle, fwd: char, rev: char| match h.orientation() {
                Orientation::Forward => fwd,
                Orientation::Reverse => rev,
            };
            let path: String =
                e.path.iter().map(|h| format!("{}{}", sign(h, '>', '<'), h.node())).collect();
            let path_len: usize = e.path.iter().map(|h| graph.node_len(h.node())).sum();
            let block = (a.read_end - a.read_start) as usize;
            let path_start = e.pos.offset as usize;
            out.push_str(&format!(
                "{set_name}.{}\t{}\t{}\t{}\t{}\t{path}\t{path_len}\t{path_start}\t{}\t{}\t{block}\t{}\tAS:i:{}\tNM:i:{}\tpp:A:{}",
                result.read_id,
                reads[(result.read_id - base_id) as usize].bases.len(),
                a.read_start,
                a.read_end,
                sign(&e.pos.handle, '+', '-'),
                (path_start + block).min(path_len),
                block - a.mismatches as usize,
                a.mapq,
                a.score,
                a.mismatches,
                u8::from(a.properly_paired),
            ));
            if !a.haplotypes.is_empty() {
                let ids: Vec<String> = a.haplotypes.iter().map(u64::to_string).collect();
                out.push_str(&format!("\thp:Z:{}", ids.join(",")));
            }
            if let Some(cigar) = &a.tail_cigar {
                out.push_str(&format!("\tcg:Z:{cigar}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Generator raws for one alignment and the extension it came from.
type AlignmentSpec = (
    (u32, u32, u32, u32),                // read_start, block, mismatches, pos offset
    (u64, bool),                         // pos node, pos reversed
    Vec<(u64, bool)>,                    // path steps
    (i32, u8, bool),                     // score, mapq, properly paired
    Vec<u64>,                            // haplotypes
    usize,                               // tail CIGAR choice
    bool,                                // orphan: no extension matches
);

fn handle_of(nodes: u64, (node, reverse): (u64, bool)) -> Handle {
    let id = NodeId::new(1 + node % nodes);
    if reverse {
        Handle::reverse(id)
    } else {
        Handle::forward(id)
    }
}

fn build_read(
    nodes: u64,
    read_id: u64,
    specs: &[AlignmentSpec],
) -> (ReadResult, Vec<Alignment>) {
    let mut result = ReadResult { read_id, extensions: Vec::new() };
    let mut alignments = Vec::new();
    for ((read_start, block, mismatches, offset), pos, path, (score, mapq, paired), haps, cigar, orphan) in
        specs
    {
        let read_end = read_start.saturating_add(*block);
        let pos = GraphPos::new(handle_of(nodes, *pos), *offset);
        result.extensions.push(Extension {
            read_id,
            // An orphaned alignment has no extension with its start, so
            // the renderer must skip it.
            read_start: if *orphan { read_start.wrapping_add(1) } else { *read_start },
            read_end,
            pos,
            path: path.iter().map(|step| handle_of(nodes, *step)).collect(),
            score: *score,
            mismatches: 0,
        });
        alignments.push(Alignment {
            read_id,
            pos,
            read_start: *read_start,
            read_end,
            score: *score,
            mismatches: (u64::from(*mismatches) % (u64::from(read_end - read_start) + 1)) as u32,
            mapq: *mapq,
            properly_paired: *paired,
            haplotypes: haps.clone(),
            tail_cigar: [None, Some("7M".to_string()), Some("3M1I2M1D4M".to_string())]
                [cigar % 3]
                .clone(),
        });
    }
    (result, alignments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (c) `encode_into` appends exactly `encode`'s bytes after whatever
    /// the buffer already holds, for every frame kind; the in-place GAF
    /// builder produces the owned `Frame::Gaf`'s bytes and reports the
    /// data length.
    #[test]
    fn frames_built_in_place_equal_owned_frames(
        specs in proptest::collection::vec(
            (
                0usize..11,
                any::<u64>(),
                any::<u64>(),
                proptest::collection::vec(any::<u8>(), 0..12),
                proptest::collection::vec(any::<u8>(), 0..300),
            ),
            1..6,
        ),
    ) {
        let mut appended = Vec::new();
        let mut expected = Vec::new();
        for (kind, a, b, text, blob) in &specs {
            let frame = build_frame(*kind, *a, *b, text, blob);
            frame.encode_into(&mut appended);
            expected.extend_from_slice(&frame.encode());
            prop_assert_eq!(&appended, &expected);

            let mut built = vec![0xAB; 3];
            let n = Frame::encode_gaf_with(&mut built, *a, |buf| buf.extend_from_slice(blob));
            prop_assert_eq!(n, blob.len());
            prop_assert_eq!(&built[..3], &[0xAB; 3][..]);
            prop_assert_eq!(&built[3..], &Frame::Gaf { job: *a, data: blob.clone() }.encode()[..]);
        }
    }

    /// (d) The in-place renderer against the `format!` reference: reverse
    /// handles, empty and multi-entry haplotype lists, tail CIGARs,
    /// coordinates up to `u32::MAX`, negative scores, unmapped reads,
    /// alignments whose extension is gone, non-zero `base_id`.
    #[test]
    fn in_place_renderer_matches_format_reference(
        reads in proptest::collection::vec(
            (
                0usize..200,
                proptest::collection::vec(
                    (
                        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
                        (any::<u64>(), any::<bool>()),
                        proptest::collection::vec((any::<u64>(), any::<bool>()), 0..6),
                        (any::<i32>(), any::<u8>(), any::<bool>()),
                        proptest::collection::vec(any::<u64>(), 0..4),
                        0usize..3,
                        any::<bool>(),
                    ),
                    0..3,
                ),
            ),
            0..6,
        ),
        base_id in 0u64..(1 << 62),
        name in 0usize..3,
    ) {
        static INPUT: OnceLock<SyntheticInput> = OnceLock::new();
        let graph = INPUT
            .get_or_init(|| SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 3))
            .gbz
            .graph();
        let nodes = graph.node_count() as u64;
        let set_name = ["", "job", "set.näme"][name];
        let mut inputs = Vec::new();
        let mut results = Vec::new();
        let mut alignments = Vec::new();
        for (i, (read_len, specs)) in reads.iter().enumerate() {
            let (result, aligned) = build_read(nodes, base_id + i as u64, specs);
            inputs.push(ReadInput { bases: vec![b'A'; *read_len], seeds: Vec::new() });
            results.push(result);
            alignments.push(aligned);
        }
        let mut got = b"kept".to_vec();
        chunk_to_gaf_into(graph, set_name, base_id, &inputs, &results, &alignments, &mut got);
        let expected =
            reference_gaf(graph, set_name, base_id, &inputs, &results, &alignments);
        prop_assert_eq!(std::str::from_utf8(&got).unwrap(), format!("kept{expected}"));
    }
}
