//! Workload names, fixed sizes, and the seeded input and op-sequence
//! generators. Everything a run feeds the store is a function of the
//! workload and `--seed` alone.

use sage_genomics::sim::{simulate_dataset, DatasetProfile};
use sage_genomics::ReadSet;
use sage_store::client::workload::WorkloadRng;
use std::ops::Range;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop full scans over a dataset four times the cache.
    ScanCold,
    /// Closed-loop 16-read gets on a dataset the cache holds whole.
    GetWarm,
    /// Closed-loop long-read appends with read-back, beside a
    /// closed-loop 4-read get client with a think time.
    IngestLong,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ScanCold, Workload::GetWarm, Workload::IngestLong];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::GetWarm => "get_warm",
            Workload::IngestLong => "ingest_long",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The operation whose latency is the workload's headline.
    pub fn primary_op(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan",
            Workload::GetWarm => "get",
            Workload::IngestLong => "append",
        }
    }

    /// Whether the workload stores long (RS4-profile) reads.
    pub fn is_long(self) -> bool {
        self == Workload::IngestLong
    }
}

/// Every size a run uses. The command line always runs [`Sizes::FULL`];
/// the self-tests run a miniature so they finish in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Short-read profile: `true` = RS1, `false` = the tiny test profile.
    pub paper_profiles: bool,
    /// Reads per chunk of the short-read store.
    pub short_chunk_reads: usize,
    /// Reads per chunk of the long-read store (and per append batch).
    pub long_chunk_reads: usize,
    /// Reads per `get` on get_warm.
    pub get_reads: u64,
    /// Reads per side `get` on ingest_long.
    pub side_get_reads: u64,
    /// Cache slots on ingest_long beyond the chunks stored at set-up:
    /// appended chunks cycle through them, so memory stays flat however
    /// many appends a run makes, while the side client's chunks stay
    /// cached (they are touched far more recently than any appended one).
    pub ingest_spare_chunks: usize,
    /// Simulated long-read datasets cut into append batches; more
    /// batches make a run's append latencies less dependent on the seed.
    pub append_pool_datasets: u64,
    /// Times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Reads byte-compared per scan, at seeded positions.
    pub scan_sample: usize,
    /// Timed operations of each kind a window runs at least.
    pub min_ops: usize,
    /// Primary operations a traced window records at most.
    pub trace_op_cap: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        paper_profiles: true,
        short_chunk_reads: 256,
        long_chunk_reads: 16,
        get_reads: 16,
        side_get_reads: 4,
        ingest_spare_chunks: 32,
        append_pool_datasets: 4,
        setup_repeats: 5,
        scan_sample: 64,
        min_ops: 100,
        trace_op_cap: 20_000,
    };

    pub fn profile(&self, w: Workload) -> DatasetProfile {
        match (w.is_long(), self.paper_profiles) {
            (false, true) => DatasetProfile::rs1(),
            (true, true) => DatasetProfile::rs4(),
            (false, false) => DatasetProfile::tiny_short(),
            (true, false) => DatasetProfile::tiny_long(),
        }
    }

    pub fn chunk_reads(&self, w: Workload) -> usize {
        if w.is_long() {
            self.long_chunk_reads
        } else {
            self.short_chunk_reads
        }
    }
}

/// Generated inputs of one run.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    /// The reads the store is built from.
    pub reads: ReadSet,
    /// Append batches (ingest_long only), appended in order, cycling.
    pub batches: Vec<ReadSet>,
    /// Chunks the store holds after set-up.
    pub n_chunks: usize,
    /// Decoded-chunk cache capacity.
    pub cache_chunks: usize,
}

/// Seed offsets separating the independent random streams of a run.
const APPEND_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
const PRIMARY_STREAM: u64 = 0xD1B5_4A32_D192_ED03;
const SIDE_STREAM: u64 = 0x8CB9_2BA7_2F3D_8DD7;
const PROBE_STREAM: u64 = 0xA076_1D64_78BD_642F;

pub fn generate(w: Workload, seed: u64, sizes: &Sizes) -> Inputs {
    let profile = sizes.profile(w);
    let reads = simulate_dataset(&profile, seed).reads;
    let chunk_reads = sizes.chunk_reads(w);
    let n_chunks = reads.len().div_ceil(chunk_reads);
    let mut batches = Vec::new();
    if w.is_long() {
        for k in 0..sizes.append_pool_datasets {
            let pool = simulate_dataset(&profile, (seed ^ APPEND_STREAM).wrapping_add(k)).reads;
            batches.extend(
                pool.reads()
                    .chunks_exact(chunk_reads)
                    .map(|c| c.iter().cloned().collect::<ReadSet>()),
            );
        }
    }
    let cache_chunks = match w {
        Workload::ScanCold => n_chunks / 4,
        Workload::GetWarm => n_chunks,
        Workload::IngestLong => n_chunks + sizes.ingest_spare_chunks,
    };
    Inputs {
        reads,
        batches,
        n_chunks,
        cache_chunks,
    }
}

/// One operation a client issues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `scan(|_| true)`, byte-comparing the reads at these ids.
    Scan { sample: Vec<u64> },
    /// `get(range)`.
    Get(Range<u64>),
    /// `append(batches[i])`, then read back and compare.
    Append(usize),
}

/// A client's op sequence: a pure function of (workload, seed, stream).
#[derive(Debug)]
pub struct OpGen {
    rng: WorkloadRng,
    kind: GenKind,
    /// Reads the generator may address (`0..total`).
    total: u64,
    next_batch: usize,
}

#[derive(Debug, Clone, Copy)]
enum GenKind {
    Scan { sample: usize },
    Get { span: u64 },
    Append { n_batches: usize },
}

impl OpGen {
    /// The workload's headline client.
    pub fn primary(w: Workload, seed: u64, inputs: &Inputs, sizes: &Sizes) -> OpGen {
        let kind = match w {
            Workload::ScanCold => GenKind::Scan {
                sample: sizes.scan_sample,
            },
            Workload::GetWarm => GenKind::Get {
                span: sizes.get_reads,
            },
            Workload::IngestLong => GenKind::Append {
                n_batches: inputs.batches.len(),
            },
        };
        OpGen::new(seed ^ PRIMARY_STREAM, kind, inputs)
    }

    /// ingest_long's second client: gets on the reads stored at set-up.
    pub fn side(seed: u64, inputs: &Inputs, sizes: &Sizes) -> OpGen {
        let kind = GenKind::Get {
            span: sizes.side_get_reads,
        };
        OpGen::new(seed ^ SIDE_STREAM, kind, inputs)
    }

    /// Random gets for the engine probe, on a stream of its own so the
    /// clients' sequences never depend on whether a run is traced.
    pub fn probe(seed: u64, inputs: &Inputs, span: u64) -> OpGen {
        OpGen::new(seed ^ PROBE_STREAM, GenKind::Get { span }, inputs)
    }

    fn new(seed: u64, kind: GenKind, inputs: &Inputs) -> OpGen {
        OpGen {
            rng: WorkloadRng::new(seed),
            kind,
            total: inputs.reads.len() as u64,
            next_batch: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.kind {
            GenKind::Scan { sample } => Op::Scan {
                sample: (0..sample).map(|_| self.rng.below(self.total)).collect(),
            },
            GenKind::Get { span } => {
                let span = span.min(self.total);
                let start = self.rng.below(self.total - span + 1);
                Op::Get(start..start + span)
            }
            GenKind::Append { n_batches } => {
                let i = self.next_batch;
                self.next_batch = (i + 1) % n_batches;
                Op::Append(i)
            }
        }
    }
}
