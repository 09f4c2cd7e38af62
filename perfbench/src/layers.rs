//! Per-layer probes for the traced run: each times the benchmark's own
//! calls into one layer's public functions (sage-core, sage-io,
//! sage-store), inside a span named after the call.

use crate::drive::check_reads;
use crate::inputs::{Inputs, Op, OpGen, Sizes, Workload};
use crate::trace::Tracer;
use sage_core::quality::decompress_qualities;
use sage_core::{CompressOptions, OutputFormat, SageArchive, SageCompressor, SageDecompressor};
use sage_genomics::ReadSet;
use sage_io::{FileBackend, IoBackend, IoConfig, Reactor, SubmissionRing};
use sage_store::client::Dataset;
use sage_store::{encode_sharded, CachePolicy, DeviceCharge, StoreOp, StoreOptions, StripedCache};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seconds each fast probe runs.
const BUDGET_S: f64 = 0.3;
/// Seconds each whole-operation engine probe runs.
const ENGINE_BUDGET_S: f64 = 1.0;
/// Timed blocks every probe runs at least.
const MIN_BLOCKS: usize = 5;
/// Target length of one timed block of calls.
const BLOCK_S: f64 = 100e-6;
/// Serving threads of a default `DatasetBuilder`, mirrored by the
/// reactor probe.
const SERVER_WORKERS: usize = 4;
/// Ring depth of a default `DatasetBuilder`.
const QUEUE_DEPTH: usize = 32;

/// Per-call medians (seconds) and throughputs of every probed layer.
#[derive(Debug, Default)]
pub struct LayerCosts {
    pub parse_s: f64,
    pub decode_s: f64,
    pub decode_bases_per_s: f64,
    pub quality_s: f64,
    pub quality_bases_per_s: f64,
    pub encode_s: f64,
    pub encode_bases_per_s: f64,
    pub pread_s: f64,
    pub pread_bytes_per_s: f64,
    pub ring_s: f64,
    pub reactor_s: f64,
    pub cache_probe_s: f64,
    pub engine_get_s: f64,
    pub engine_scan_s: f64,
    pub engine_append_s: f64,
}

#[derive(Debug, Default)]
struct Probe {
    per_call: Vec<f64>,
    work: f64,
    secs: f64,
}

impl Probe {
    fn median(&self) -> f64 {
        crate::stats::median(&self.per_call)
    }

    fn rate(&self) -> f64 {
        self.work / self.secs
    }
}

/// Times `f` in blocks, one span per block, for at least `budget`
/// seconds and [`MIN_BLOCKS`] blocks. A block holds as many calls as
/// fit in [`BLOCK_S`] (at least one), so calls far shorter than a clock
/// read are still timed honestly. `f` returns the work it did (bases,
/// bytes) for throughput.
fn probe(
    tr: &mut Tracer,
    name: &'static str,
    budget: f64,
    mut f: impl FnMut(usize) -> u64,
) -> Probe {
    // Warm up and size the blocks outside the timed ones: a block
    // holds as many calls as ran in one untimed block-length interval.
    let mut i = 0;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < BLOCK_S {
        black_box(f(i));
        i += 1;
    }
    let batch = i;
    let t0 = Instant::now();
    let mut p = Probe::default();
    while p.per_call.len() < MIN_BLOCKS || t0.elapsed().as_secs_f64() < budget {
        let span = tr.begin(name);
        for _ in 0..batch {
            p.work += f(i) as f64;
            i += 1;
        }
        tr.end(span);
        let s = tr.seconds(span);
        p.secs += s;
        p.per_call.push(s / batch as f64);
    }
    p
}

/// A backend that does nothing: isolates the reactor's own hand-off.
struct NoopBackend;

impl IoBackend for NoopBackend {
    type Op = ();
    type Output = ();

    fn execute(&self, _op: ()) -> ((), Vec<DeviceCharge>) {
        ((), Vec::new())
    }
}

/// The batch the encode and engine-append probes use: one chunk's
/// worth of the workload's reads.
fn chunk_batch(w: Workload, inputs: &Inputs, sizes: &Sizes) -> ReadSet {
    match inputs.batches.first() {
        Some(b) => b.clone(),
        None => inputs.reads.reads()[..sizes.chunk_reads(w).min(inputs.reads.len())]
            .iter()
            .cloned()
            .collect(),
    }
}

/// Runs every probe against the workload's data and dataset. The
/// engine probes run last: they move the cache and (append) the store.
/// The codec probes use a fresh encode of the workload's reads, kept in
/// a container file of their own under `scratch`: the encoder breaks
/// consensus ties in hash-map order, so a second encode of the same
/// reads may differ byte for byte from the one the dataset serves.
/// Fails when that encode does not decode back to the input.
pub fn measure(
    w: Workload,
    seed: u64,
    ds: &Dataset,
    inputs: &Inputs,
    sizes: &Sizes,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<LayerCosts, String> {
    let mut c = LayerCosts::default();
    let sharded = encode_sharded(&inputs.reads, &StoreOptions::new(sizes.chunk_reads(w)))
        .map_err(|e| format!("probe encode: {e}"))?;
    let metas = sharded.manifest.chunks.clone();
    let dir = scratch.join("probe");
    let fb = FileBackend::open_or_create(&dir, std::slice::from_ref(&sharded.blob))
        .map_err(|e| format!("probe container in {}: {e}", dir.display()))?;

    // sage-io file: positioned reads of every chunk extent.
    let p = probe(tr, "FileBackend::read_extent", BUDGET_S, |i| {
        let m = &metas[i % metas.len()];
        let bytes = fb
            .read_extent(0, m.extent.offset as u64, m.extent.len as u64)
            .expect("extent inside the container just written");
        black_box(bytes).len() as u64
    });
    c.pread_s = p.median();
    c.pread_bytes_per_s = p.rate();

    // sage-core container, decode, quality.
    let chunks: Vec<&[u8]> = metas
        .iter()
        .map(|m| &sharded.blob[m.extent.offset..m.extent.end()])
        .collect();
    let archives = chunks
        .iter()
        .map(|b| SageArchive::from_bytes(b))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("parse: {e}"))?;
    let p = probe(tr, "SageArchive::from_bytes", BUDGET_S, |i| {
        let a = SageArchive::from_bytes(chunks[i % chunks.len()]).expect("parsed above");
        black_box(a).header.n_reads
    });
    c.parse_s = p.median();
    let decoder = SageDecompressor::new(OutputFormat::Ascii);
    for (m, a) in metas.iter().zip(&archives) {
        let reads = decoder.decompress(a).map_err(|e| format!("decode: {e}"))?;
        let want = &inputs.reads.reads()[m.first_read as usize..m.end_read() as usize];
        check_reads(reads.iter(), want).map_err(|e| format!("probe chunk {}: {e}", m.id))?;
    }
    // Quality lengths in storage order (the order the quality stream
    // was written in), checked against the streaming decoder's reads.
    let mut lens: Vec<Vec<usize>> = Vec::with_capacity(archives.len());
    for (k, a) in archives.iter().enumerate() {
        let reads = decoder
            .stream(a)
            .and_then(|s| s.collect::<Result<Vec<_>, _>>())
            .map_err(|e| format!("stream decode of chunk {k}: {e}"))?;
        let l: Vec<usize> = reads.iter().map(|r| r.len()).collect();
        let quals = decompress_qualities(&a.streams.qual, &l)
            .map_err(|_| format!("quality stream of chunk {k} is truncated"))?;
        if reads
            .iter()
            .zip(&quals)
            .any(|(r, q)| r.qual.as_ref() != Some(q))
        {
            return Err(format!(
                "chunk {k}: decompress_qualities disagrees with the decoder"
            ));
        }
        lens.push(l);
    }
    // Whole-chunk decode and its quality stage alone, paired on the
    // same chunk so their ratio does not depend on which chunks ran.
    let t0 = Instant::now();
    let (mut decode_s, mut quality_s, mut bases) = (Vec::new(), Vec::new(), 0u64);
    let mut k = 0;
    while decode_s.len() < MIN_BLOCKS || t0.elapsed().as_secs_f64() < 2.0 * BUDGET_S {
        let a = &archives[k % archives.len()];
        let span = tr.begin("SageDecompressor::decompress");
        let reads = decoder.decompress(a).expect("decoded above");
        tr.end(span);
        decode_s.push(tr.seconds(span));
        bases += black_box(reads).total_bases() as u64;
        let span = tr.begin("quality::decompress_qualities");
        let q = decompress_qualities(&a.streams.qual, &lens[k % archives.len()])
            .expect("qualities decoded above");
        tr.end(span);
        black_box(q);
        quality_s.push(tr.seconds(span));
        k += 1;
    }
    c.decode_s = crate::stats::median(&decode_s);
    c.decode_bases_per_s = bases as f64 / decode_s.iter().sum::<f64>();
    c.quality_s = crate::stats::median(&quality_s);
    c.quality_bases_per_s = bases as f64 / quality_s.iter().sum::<f64>();

    // sage-core encode: one chunk-sized batch, as an append encodes it.
    let batch = chunk_batch(w, inputs, sizes);
    let compressor = SageCompressor::with_options(CompressOptions {
        store_order: true,
        ..CompressOptions::default()
    });
    let p = probe(tr, "SageCompressor::compress", BUDGET_S, |_| {
        let a = compressor.compress(&batch).expect("encode a batch");
        black_box(a);
        batch.total_bases() as u64
    });
    c.encode_s = p.median();
    c.encode_bases_per_s = p.rate();

    // sage-io ring and reactor.
    let ring: SubmissionRing<u64> = SubmissionRing::new(QUEUE_DEPTH);
    let p = probe(tr, "SubmissionRing::push+pop", BUDGET_S, |i| {
        ring.push(i as u64).expect("open ring");
        black_box(ring.pop());
        1
    });
    c.ring_s = p.median();
    let reactor = Reactor::start(
        Arc::new(NoopBackend),
        IoConfig {
            workers: SERVER_WORKERS,
            queue_depth: QUEUE_DEPTH,
            ..IoConfig::default()
        },
    );
    let cq = reactor.completions();
    let p = probe(tr, "Reactor::submit+wait_any", BUDGET_S, |i| {
        reactor.submit((), i as u64, 0.0).expect("open reactor");
        black_box(cq.wait_any());
        1
    });
    reactor.shutdown();
    c.reactor_s = p.median();

    // sage-store lru: a hit on a one-chunk cache.
    let cache = StripedCache::new(CachePolicy::Lru, 1, 1);
    cache.insert(0, Arc::new(batch.clone()));
    let p = probe(tr, "StripedCache::get", BUDGET_S, |_| {
        u64::from(black_box(cache.get(0)).is_some())
    });
    c.cache_probe_s = p.median();

    // sage-store engine: whole operations without the reactor.
    let engine = ds.engine();
    let mut gen = OpGen::probe(seed, inputs, sizes.get_reads);
    let p = probe(tr, "StoreEngine::run_op(Get)", BUDGET_S, |_| {
        let Op::Get(range) = gen.next_op() else {
            unreachable!("probe generator issues gets")
        };
        let out = engine.run_op(StoreOp::Get(range)).expect("engine get");
        black_box(out);
        1
    });
    c.engine_get_s = p.median();
    let p = probe(tr, "StoreEngine::run_op(Scan)", ENGINE_BUDGET_S, |_| {
        let out = engine
            .run_op(StoreOp::Scan(Box::new(|_| true)))
            .expect("engine scan");
        black_box(out);
        1
    });
    c.engine_scan_s = p.median();
    let p = probe(tr, "StoreEngine::run_op(Append)", ENGINE_BUDGET_S, |_| {
        let out = engine
            .run_op(StoreOp::Append(batch.clone()))
            .expect("engine append");
        black_box(out);
        1
    });
    c.engine_append_s = p.median();
    Ok(c)
}
