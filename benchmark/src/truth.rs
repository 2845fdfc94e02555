//! Truth evaluation: did a read land on the haplotype it was sampled from?
//!
//! The simulator knows each read's `(haplotype, origin, length)`. Walking
//! that haplotype through the GBWT gives the nodes those bases lie on; a
//! read is *placed* when the first record the mapper wrote for it touches
//! one of them. This checks the output against where reads came from, not
//! against another run of the same code.

use mg_gbwt::Gbz;
use mg_graph::Handle;
use mg_workload::SimulatedRead;

/// One haplotype as the GBWT stores it: the node walk and, for each step,
/// the offset just past its last base in the haplotype sequence.
#[derive(Debug, Clone)]
struct HapWalk {
    nodes: Vec<u64>,
    ends: Vec<usize>,
}

/// The haplotype walks of a pangenome.
#[derive(Debug, Clone)]
pub struct Truth {
    walks: Vec<HapWalk>,
}

/// Where one simulated read came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOrigin {
    pub haplotype: u32,
    pub origin: u32,
    pub len: u32,
    /// Errors the simulator injected; 0 means the read is an exact substring
    /// of its haplotype (possibly reverse-complemented).
    pub errors: u32,
}

impl From<&SimulatedRead> for ReadOrigin {
    fn from(r: &SimulatedRead) -> Self {
        ReadOrigin {
            haplotype: r.haplotype as u32,
            origin: r.origin as u32,
            len: r.bases.len() as u32,
            errors: r.errors,
        }
    }
}

/// Placement counts over one output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Placement {
    pub reads: u64,
    /// Reads with no output record at all.
    pub unmapped: u64,
    /// Reads whose first record touches no node of their source interval.
    pub misplaced: u64,
    /// Error-free reads that are unmapped or misplaced. On a genome without
    /// repeats an exact substring of an indexed haplotype must come back to
    /// it, so there this is the evaluator's self-check and must be 0; on the
    /// benchmark genomes it counts reads that lie wholly inside a repeat
    /// copy and were reported at the other, equally good, copy.
    pub clean_unplaced: u64,
}

impl Placement {
    pub fn placed(&self) -> u64 {
        self.reads - self.unmapped - self.misplaced
    }

    pub fn placed_pct(&self) -> f64 {
        100.0 * self.placed() as f64 / self.reads.max(1) as f64
    }
}

impl Truth {
    /// Walks every haplotype of `gbz`; also returns the haplotype sequences
    /// (what the read simulator samples from), indexed like the walks.
    pub fn from_gbz(gbz: &Gbz) -> Result<(Truth, Vec<Vec<u8>>), String> {
        let gbwt = gbz.gbwt();
        let graph = gbz.graph();
        let mut walks = Vec::new();
        let mut seqs = Vec::new();
        for p in 0..gbwt.path_count() {
            let id = if gbwt.is_bidirectional() { 2 * p } else { p };
            let symbols = gbwt
                .sequence(id)
                .map_err(|e| format!("haplotype {p}: {e}"))?;
            let mut walk = HapWalk {
                nodes: Vec::with_capacity(symbols.len()),
                ends: Vec::new(),
            };
            let mut seq = Vec::new();
            for s in symbols {
                let h = Handle::from_gbwt(s)
                    .ok_or_else(|| format!("haplotype {p}: symbol {s} is not a node visit"))?;
                seq.extend_from_slice(&graph.sequence(h));
                walk.nodes.push(h.node().value());
                walk.ends.push(seq.len());
            }
            walks.push(walk);
            seqs.push(seq);
        }
        Ok((Truth { walks }, seqs))
    }

    /// The nodes under bases `origin..origin + len` of haplotype `hap`.
    pub fn nodes_of(&self, r: &ReadOrigin) -> &[u64] {
        let walk = &self.walks[r.haplotype as usize];
        let (start, end) = (r.origin as usize, (r.origin + r.len) as usize);
        // First step whose end lies past `start`; last step that begins
        // before `end`.
        let first = walk.ends.partition_point(|&e| e <= start);
        let last = walk.ends.partition_point(|&e| e < end);
        &walk.nodes[first..=last.min(walk.nodes.len() - 1)]
    }

    /// Scores first-records against the truth. `records` yields, in any
    /// order, `(read id, nodes of that read's first record)`; ids that never
    /// appear are unmapped.
    pub fn evaluate<'a>(
        &self,
        origins: &[ReadOrigin],
        records: impl Iterator<Item = (u64, &'a [u64])>,
    ) -> Result<Placement, String> {
        // 0 = no record seen, 1 = placed, 2 = misplaced.
        let mut state = vec![0u8; origins.len()];
        for (id, nodes) in records {
            let Some(origin) = origins.get(id as usize) else {
                return Err(format!(
                    "output names read {id}, input has {}",
                    origins.len()
                ));
            };
            if state[id as usize] != 0 {
                continue;
            }
            let want = self.nodes_of(origin);
            let hit = nodes.iter().any(|n| want.contains(n));
            state[id as usize] = if hit { 1 } else { 2 };
        }
        let mut p = Placement {
            reads: origins.len() as u64,
            ..Default::default()
        };
        for (s, o) in state.iter().zip(origins) {
            match s {
                0 => p.unmapped += 1,
                2 => p.misplaced += 1,
                _ => {}
            }
            if *s != 1 && o.errors == 0 {
                p.clean_unplaced += 1;
            }
        }
        Ok(p)
    }

    /// Scores GAF text whose read names are `<prefix>.<read id>`.
    pub fn evaluate_gaf(&self, origins: &[ReadOrigin], gaf: &[u8]) -> Result<Placement, String> {
        let mut firsts: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut last_id = u64::MAX;
        for line in gaf.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let mut cols = line.split(|&b| b == b'\t');
            let name = cols.next().unwrap_or_default();
            let id = parse_read_id(name)
                .ok_or_else(|| format!("GAF read name {:?}", String::from_utf8_lossy(name)))?;
            if id == last_id {
                continue;
            }
            last_id = id;
            let path = cols
                .nth(4)
                .ok_or_else(|| format!("GAF line for read {id} has no path column"))?;
            firsts.push((id, parse_gaf_path(path)?));
        }
        self.evaluate(origins, firsts.iter().map(|(id, n)| (*id, n.as_slice())))
    }

    /// Scores the proxy's extension CSV
    /// (`read_id,read_start,read_end,handle,offset,score,mismatches`): a
    /// read's first row is its best extension, anchored on `handle`.
    pub fn evaluate_csv(&self, origins: &[ReadOrigin], csv: &[u8]) -> Result<Placement, String> {
        let mut firsts: Vec<(u64, [u64; 1])> = Vec::new();
        let mut last_id = u64::MAX;
        for line in csv.split(|&b| b == b'\n').skip(1).filter(|l| !l.is_empty()) {
            let mut cols = line.split(|&b| b == b',');
            let bad = || format!("CSV row {:?}", String::from_utf8_lossy(line));
            let id = cols.next().and_then(parse_u64).ok_or_else(bad)?;
            if id == last_id {
                continue;
            }
            last_id = id;
            let packed = cols.nth(2).and_then(parse_u64).ok_or_else(bad)?;
            firsts.push((id, [packed >> 1]));
        }
        self.evaluate(origins, firsts.iter().map(|(id, n)| (*id, n.as_slice())))
    }
}

fn parse_u64(bytes: &[u8]) -> Option<u64> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

/// The numeric suffix of `<prefix>.<id>`.
fn parse_read_id(name: &[u8]) -> Option<u64> {
    let dot = name.iter().rposition(|&b| b == b'.')?;
    parse_u64(&name[dot + 1..])
}

/// Node ids of a GAF path (`>12<13>14`).
fn parse_gaf_path(path: &[u8]) -> Result<Vec<u64>, String> {
    path.split(|&b| b == b'>' || b == b'<')
        .skip(1)
        .map(|n| {
            parse_u64(n).ok_or_else(|| format!("GAF path {:?}", String::from_utf8_lossy(path)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_parent::{run_to_gaf, Parent, ParentOptions};
    use mg_workload::{InputSetSpec, SyntheticInput};

    fn tiny(error_rate: f64) -> (SyntheticInput, Truth, Vec<ReadOrigin>) {
        let mut spec = InputSetSpec::tiny_for_tests();
        spec.reads = 200;
        spec.read_sim.error_rate = error_rate;
        spec.read_sim.n_rate = 0.0;
        let input = SyntheticInput::generate(&spec, 17);
        let (truth, _) = Truth::from_gbz(&input.gbz).unwrap();
        let origins = input.sim_reads.iter().map(ReadOrigin::from).collect();
        (input, truth, origins)
    }

    fn gaf_of(input: &SyntheticInput) -> String {
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let run = parent.run(&reads, &ParentOptions::default());
        run_to_gaf(input.gbz.graph(), &run, "read")
    }

    #[test]
    fn walks_reproduce_the_simulators_haplotypes() {
        let (input, truth, origins) = tiny(0.0);
        let (_, seqs) = Truth::from_gbz(&input.gbz).unwrap();
        for (r, o) in input.sim_reads.iter().zip(&origins) {
            let segment = &seqs[r.haplotype][r.origin..r.origin + r.bases.len()];
            let expect = if r.reverse {
                mg_graph::dna::reverse_complement(segment)
            } else {
                segment.to_vec()
            };
            assert_eq!(
                r.bases, expect,
                "haplotype walk disagrees with the simulator"
            );
            assert!(!truth.nodes_of(o).is_empty());
        }
    }

    #[test]
    fn node_interval_covers_exactly_the_read() {
        let (input, truth, _) = tiny(0.0);
        let walk = &truth.walks[0];
        // A read that starts on the first base of step 3 and ends on its
        // last base touches that node only.
        let (start, end) = (walk.ends[2], walk.ends[3]);
        let o = ReadOrigin {
            haplotype: 0,
            origin: start as u32,
            len: (end - start) as u32,
            errors: 0,
        };
        assert_eq!(truth.nodes_of(&o), &walk.nodes[3..=3]);
        // One base more on each side pulls in both neighbours.
        let o = ReadOrigin {
            haplotype: 0,
            origin: start as u32 - 1,
            len: (end - start) as u32 + 2,
            errors: 0,
        };
        assert_eq!(truth.nodes_of(&o), &walk.nodes[2..=4]);
        drop(input);
    }

    #[test]
    fn error_free_reads_are_all_placed() {
        let (input, truth, origins) = tiny(0.0);
        let gaf = gaf_of(&input);
        let p = truth.evaluate_gaf(&origins, gaf.as_bytes()).unwrap();
        assert_eq!(p.reads, 200);
        assert_eq!(
            (p.unmapped, p.misplaced, p.clean_unplaced),
            (0, 0, 0),
            "{p:?}"
        );
        assert_eq!(p.placed_pct(), 100.0);
    }

    #[test]
    fn a_shuffled_truth_is_detected() {
        // Score the same GAF against origins moved to the far end of the
        // haplotype: nearly everything must now count as misplaced.
        let (input, truth, mut origins) = tiny(0.0);
        let gaf = gaf_of(&input);
        for o in &mut origins {
            let hap_len = *truth.walks[o.haplotype as usize].ends.last().unwrap() as u32;
            o.origin = (o.origin + hap_len / 2) % (hap_len - o.len);
        }
        let p = truth.evaluate_gaf(&origins, gaf.as_bytes()).unwrap();
        assert!(p.misplaced > 150, "{p:?}");
        assert_eq!(p.clean_unplaced, p.misplaced + p.unmapped);
    }

    #[test]
    fn missing_reads_count_as_unmapped() {
        let (input, truth, origins) = tiny(0.0);
        let gaf = gaf_of(&input);
        let kept: String = gaf
            .lines()
            .filter(|l| !l.starts_with("read.7\t") && !l.starts_with("read.8\t"))
            .map(|l| format!("{l}\n"))
            .collect();
        let p = truth.evaluate_gaf(&origins, kept.as_bytes()).unwrap();
        assert_eq!(p.unmapped, 2);
    }

    #[test]
    fn csv_rows_are_scored_by_anchor_node() {
        let (_, truth, origins) = tiny(0.0);
        let node = truth.nodes_of(&origins[0])[0];
        let other = truth.nodes_of(&origins[1])[0];
        let csv = format!(
            "read_id,read_start,read_end,handle,offset,score,mismatches\n0,0,60,{},0,60,0\n0,0,10,{},0,10,0\n1,0,60,{},0,60,0\n",
            node * 2 + 1,
            other * 2,
            u64::MAX / 4,
        );
        let p = truth.evaluate_csv(&origins[..3], csv.as_bytes()).unwrap();
        assert_eq!((p.reads, p.unmapped, p.misplaced), (3, 1, 1), "{p:?}");
    }

    #[test]
    fn malformed_output_is_an_error() {
        let (_, truth, origins) = tiny(0.0);
        assert!(truth.evaluate_gaf(&origins, b"noid\t1\t2\n").is_err());
        assert!(truth
            .evaluate_gaf(&origins, b"read.999999\t60\t0\t60\t+\t>1\n")
            .is_err());
        assert!(truth.evaluate_csv(&origins, b"h\nx,y\n").is_err());
    }
}
