//! Wall-clock benchmark of the SAGe store, driven only through the
//! public serving API: `DatasetBuilder` → `Dataset` → `Session` tickets.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scan_cold|get_warm|ingest_long> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process. Inputs are
//! generated from `--seed` before anything is timed; sizes are fixed
//! here (see `inputs.rs`). Every answer is checked against the input,
//! and a wrong answer makes the run exit 1.
//!
//! `--trace 0` prints the end-to-end metrics. `setup_s` is the median
//! of several `DatasetBuilder::encode` calls (including the file
//! backend's container write), measured outside the timed window: the
//! first builds the store the workload runs on, the others follow the
//! window. The cache fill and warm-up are untimed too. `peak_rss_mb`
//! is the process's `VmHWM` once the store is built and its cache warm,
//! read just before the timed window.
//!
//! `--trace 1` runs the same workload and seed twice over — an
//! untraced window, then a traced one — and then times each layer's
//! public functions on the workload's data. It prints the per-layer
//! metrics, a per-operation breakdown (layer times, their sum next to
//! the untraced end-to-end time, the named remainder, and the tracing
//! overhead), and writes the spans to
//! `.bench_out/trace-<workload>-seed<seed>.csv`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod drive;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;

use drive::{run_window, warm_up, Clients, Window, SLICE_OPS};
use inputs::{generate, Inputs, OpGen, Sizes, Workload};
use layers::LayerCosts;
use report::{Outcome, END_TO_END, PER_LAYER};
use sage_core::Extent;
use sage_genomics::fastq::read_set_to_fastq;
use sage_ssd::SsdConfig;
use sage_store::client::{Dataset, DatasetBuilder};
use sage_store::{StoreBackend, StoreManifest};
use stats::{beyond, median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: sage-perfbench --workload <scan_cold|get_warm|ingest_long> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("want a positive number"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The store every workload runs against: one PCIe SSD model, chunk
/// bytes in container files, an LRU cache sized by the workload.
fn builder(w: Workload, inputs: &Inputs, sizes: &Sizes, dir: &Path) -> DatasetBuilder {
    DatasetBuilder::new()
        .chunk_reads(sizes.chunk_reads(w))
        .cache_chunks(inputs.cache_chunks)
        .ssd(SsdConfig::pcie())
        .backend(StoreBackend::File(dir.to_path_buf()))
}

/// Encodes the inputs into a fresh directory `store-<i>` and opens the
/// store; returns it with the seconds that took.
fn set_up(
    w: Workload,
    inputs: &Inputs,
    sizes: &Sizes,
    scratch: &Path,
    i: usize,
) -> Result<(Dataset, f64), String> {
    let dir = scratch.join(format!("store-{i}"));
    let t0 = Instant::now();
    let ds = builder(w, inputs, sizes, &dir)
        .encode(&inputs.reads)
        .map_err(|e| format!("set-up: {e}"))?;
    Ok((ds, t0.elapsed().as_secs_f64()))
}

/// Times `sizes.setup_repeats - 1` more set-ups, each dropped and its
/// directory removed before the next.
fn more_set_ups(
    w: Workload,
    inputs: &Inputs,
    sizes: &Sizes,
    scratch: &Path,
) -> Result<Vec<f64>, String> {
    (1..sizes.setup_repeats)
        .map(|i| {
            let (ds, t) = set_up(w, inputs, sizes, scratch, i)?;
            drop(ds);
            let _ = std::fs::remove_dir_all(scratch.join(format!("store-{i}")));
            Ok(t)
        })
        .collect()
}

/// Serialized size of an `n`-chunk manifest.
fn manifest_bytes(n_chunks: usize) -> usize {
    let mut m = StoreManifest::default();
    for _ in 0..n_chunks {
        m.push_chunk(0, Extent { offset: 0, len: 0 });
    }
    m.to_bytes().len()
}

/// FASTQ bytes of every stored read ÷ bytes stored (chunk blob plus
/// manifest). `appended` batches went in after set-up, in order.
fn compression_ratio(ds: &Dataset, inputs: &Inputs, appended: usize) -> f64 {
    let mut fastq = read_set_to_fastq(&inputs.reads).len();
    let batch_fastq: Vec<usize> = inputs
        .batches
        .iter()
        .map(|b| read_set_to_fastq(b).len())
        .collect();
    fastq += (0..appended)
        .map(|i| batch_fastq[i % batch_fastq.len()])
        .sum::<usize>();
    let dev = &ds.device_snapshots()[0];
    fastq as f64 / (dev.placed_bytes + manifest_bytes(dev.chunks)) as f64
}

/// Engine-wide counters read through the public API.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    decoded: u64,
    /// Bases the decodes produced.
    decoded_bases: u64,
    decode_s: f64,
    dedup: u64,
    copied: u64,
    file_reads: u64,
}

impl Counters {
    fn of(ds: &Dataset) -> Counters {
        let m = ds.metrics();
        Counters {
            hits: m.cache_hits,
            misses: m.cache_misses,
            decoded: m.chunks_decoded,
            // Every stored read carries one quality byte per base.
            decoded_bases: m.bytes_decoded / 2,
            decode_s: m.decode_seconds,
            dedup: m.dedup_decodes,
            copied: m.bytes_copied,
            file_reads: ds.engine().file_backend().map_or(0, |f| f.reads()),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            decoded: self.decoded - before.decoded,
            decoded_bases: self.decoded_bases - before.decoded_bases,
            decode_s: self.decode_s - before.decode_s,
            dedup: self.dedup - before.dedup,
            copied: self.copied - before.copied,
            file_reads: self.file_reads - before.file_reads,
        }
    }
}

/// What a run prints: human-readable lines, then the result line.
struct Report {
    lines: Vec<String>,
    outcome: Outcome,
    spans: Option<Tracer>,
}

/// Whole-run latency percentiles of `xs` with their sample counts.
fn tail_line(name: &str, xs: &[f64], scale: f64, unit: &str) -> String {
    let at = |q: f64| {
        format!(
            "{} {unit} ({} beyond)",
            percentile(xs, q) * scale,
            beyond(xs, q)
        )
    };
    format!(
        "{name} whole run, n={}: p50 {}, p90 {}, p99 {}, p999 {}",
        xs.len(),
        at(0.5),
        at(0.9),
        at(0.99),
        at(0.999)
    )
}

/// The workload's headline numbers under their per-operation names,
/// with whole-run tails as context (p99 and p999 are not metrics).
fn headline_lines(w: Workload, win: &Window, lines: &mut Vec<String>) {
    let (p50, p90, mbases) = win.headline();
    let op = w.primary_op();
    let (scale, unit) = if w == Workload::GetWarm {
        (1e6, "us")
    } else {
        (1e3, "ms")
    };
    let rate = if w == Workload::IngestLong {
        "ingest_mbases_per_s"
    } else {
        "mbases_per_s"
    };
    lines.push(format!(
        "{op}_p50_{unit} {} {unit}\n{op}_p90_{unit} {} {unit}\n{rate} {mbases} Mbase/s\n  (better quartile over {SLICE_OPS}-op slices, as op_p50_us, op_p90_us and mbases_per_s in the result line; whole-run rate {} Mbase/s)",
        p50 * scale,
        p90 * scale,
        win.mbases_per_s()
    ));
    lines.push(tail_line(op, &win.primary, scale, unit));
    if w == Workload::IngestLong {
        lines.push(format!(
            "get_p50_us {} us\nget_p90_us {} us  (the side client's gets beside the appends)",
            percentile(&win.side, 0.5) * 1e6,
            percentile(&win.side, 0.9) * 1e6
        ));
        lines.push(tail_line("get", &win.side, 1e6, "us"));
        lines.push(tail_line("read-back get", &win.readback, 1e3, "ms"));
    }
    lines.push(format!(
        "failed_frac {} ratio  ({} of {} ops)",
        win.failed as f64 / win.attempted.max(1) as f64,
        win.failed,
        win.attempted
    ));
    for e in &win.errors {
        lines.push(format!("FAILED: {e}"));
    }
}

/// Exact per-op counts of a window (per primary operation; on
/// ingest_long an operation is an append plus its read-back).
fn count_lines(w: Workload, win: &Window, d: &Counters, lines: &mut Vec<String>) {
    let ops = win.primary.len().max(1) as f64;
    lines.push(format!(
        "counts per {}: chunks touched {}, cache hits {}, misses {}, chunks decoded {}, file reads {}; dedup_decodes {}; virtual device seconds {} (ssd.virtual_device_s over {} ops)",
        w.primary_op(),
        win.touched as f64 / ops,
        win.hits as f64 / ops,
        win.misses as f64 / ops,
        d.decoded as f64 / ops,
        d.file_reads as f64 / ops,
        d.dedup,
        win.virtual_device_s,
        win.primary.len(),
    ));
}

fn describe(w: Workload, inputs: &Inputs, seed: u64, secs: f64) -> String {
    format!(
        "# {} seed={seed} seconds={secs} cores={} reads={} bases={} chunks={} cache_chunks={} append_batches={}",
        w.name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs.reads.len(),
        inputs.reads.total_bases(),
        inputs.n_chunks,
        inputs.cache_chunks,
        inputs.batches.len(),
    )
}

fn run(args: &Args, sizes: &Sizes, scratch: &Path) -> Result<Report, String> {
    let w = args.workload;
    let inputs = generate(w, args.seed, sizes);
    let mut clients = Clients {
        primary: OpGen::primary(w, args.seed, &inputs, sizes),
        side: OpGen::side(args.seed, &inputs, sizes),
    };
    let mut lines = vec![describe(w, &inputs, args.seed, args.seconds)];
    if args.trace {
        return run_traced(args, sizes, scratch, inputs, clients, lines);
    }
    let (ds, first_setup) = set_up(w, &inputs, sizes, scratch, 0)?;
    warm_up(w, &ds, &inputs)?;
    // The peak is read with the store built and its cache warm, before
    // the window: in the window the process also grows with the
    // benchmark's own per-op samples, with the volume ingest_long
    // appends (which depends on how fast the run went), and in 10-15
    // MiB steps that come at random points of some runs; the remaining
    // set-ups, after the window, leave up to 30 MiB more resident on
    // some seeds.
    let peak_rss = stats::peak_rss_mib();
    let before = Counters::of(&ds);
    let win = run_window(w, &ds, &inputs, sizes, &mut clients, args.seconds, None);
    let d = Counters::of(&ds).since(before);
    let appended = if w.is_long() { win.primary.len() } else { 0 };
    let ratio = compression_ratio(&ds, &inputs, appended);
    drop(ds);
    let exit_rss = stats::peak_rss_mib();
    let mut setups = vec![first_setup];
    setups.extend(more_set_ups(w, &inputs, sizes, scratch)?);

    let mut v = BTreeMap::new();
    v.insert("setup_s", median(&setups));
    v.insert("compression_ratio", ratio);
    v.insert("peak_rss_mb", peak_rss);
    let (p50, p90, mbases) = win.headline();
    v.insert("mbases_per_s", mbases);
    v.insert("op_p50_us", p50 * 1e6);
    v.insert("op_p90_us", p90 * 1e6);
    lines.push(format!(
        "setup_s {} s  (median of {setups:?})",
        v["setup_s"]
    ));
    lines.push(format!("compression_ratio {ratio} x"));
    lines.push(format!(
        "peak_rss_mb {peak_rss} MiB  (store built, cache warm; {exit_rss} MiB after the window)"
    ));
    headline_lines(w, &win, &mut lines);
    count_lines(w, &win, &d, &mut lines);
    let correct = win.failed == 0;
    let outcome = Outcome::new(correct, win.attempted, win.failed, &END_TO_END, &v)?;
    Ok(Report {
        lines,
        outcome,
        spans: None,
    })
}

fn run_traced(
    args: &Args,
    sizes: &Sizes,
    scratch: &Path,
    inputs: Inputs,
    mut clients: Clients,
    mut lines: Vec<String>,
) -> Result<Report, String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let (ds, setup) = set_up(w, &inputs, sizes, scratch, 0)?;
    lines.push(format!("set-up {setup} s (once)"));
    warm_up(w, &ds, &inputs)?;
    let untraced = run_window(w, &ds, &inputs, sizes, &mut clients, half, None);
    let mut tr = Tracer::new(Instant::now(), 0);
    let before = Counters::of(&ds);
    let win = run_window(w, &ds, &inputs, sizes, &mut clients, half, Some(&mut tr));
    let d = Counters::of(&ds).since(before);
    let costs = layers::measure(w, args.seed, &ds, &inputs, sizes, scratch, &mut tr)?;
    drop(ds);

    let self_times = tr.self_times();
    let kind = w.primary_kind();
    let self_us = |name: &str| self_times.get(name).map_or(0.0, |xs| median(xs) * 1e6);
    let ops = win.primary.len().max(1) as f64;
    let e2e_us = median(&untraced.primary) * 1e6;
    let traced_us = median(&win.primary) * 1e6;
    let engine_us = match w {
        Workload::ScanCold => costs.engine_scan_s,
        Workload::GetWarm => costs.engine_get_s,
        Workload::IngestLong => costs.engine_append_s,
    } * 1e6;
    let (rows, layer_sum) = breakdown(w, &costs, &win, &d, self_us(kind.submit), engine_us);

    let mut v = BTreeMap::new();
    v.insert("core.parse_us_per_chunk", costs.parse_s * 1e6);
    v.insert("core.decode_mbases_per_s", costs.decode_bases_per_s / 1e6);
    v.insert("core.quality_mbases_per_s", costs.quality_bases_per_s / 1e6);
    v.insert(
        "core.quality_share",
        costs.decode_bases_per_s / costs.quality_bases_per_s,
    );
    v.insert("core.encode_mbases_per_s", costs.encode_bases_per_s / 1e6);
    v.insert("io.pread_us_per_extent", costs.pread_s * 1e6);
    v.insert("io.pread_mb_per_s", costs.pread_bytes_per_s / 1e6);
    v.insert("io.file_reads_per_op", d.file_reads as f64 / ops);
    v.insert("io.ring_push_pop_ns", costs.ring_s * 1e9);
    v.insert("io.reactor_roundtrip_us", costs.reactor_s * 1e6);
    v.insert("store.engine_get_us", costs.engine_get_s * 1e6);
    v.insert("store.engine_scan_ms", costs.engine_scan_s * 1e3);
    v.insert("store.engine_append_ms", costs.engine_append_s * 1e3);
    v.insert("store.cache_probe_ns", costs.cache_probe_s * 1e9);
    let lookups = (d.hits + d.misses).max(1) as f64;
    v.insert("store.cache_hit_rate", d.hits as f64 / lookups);
    v.insert("store.hits_per_op", win.hits as f64 / ops);
    v.insert("store.misses_per_op", win.misses as f64 / ops);
    v.insert("store.chunks_decoded_per_op", d.decoded as f64 / ops);
    v.insert("store.decode_busy_s", d.decode_s);
    v.insert("store.decode_parallelism", d.decode_s / win.wall_s);
    v.insert("store.dedup_decodes", d.dedup as f64);
    v.insert("store.bytes_copied_per_op", d.copied as f64 / ops);
    v.insert("client.submit_us", self_us(kind.submit));
    v.insert("client.wait_us", self_us(kind.wait));
    v.insert("client.handoff_us", e2e_us - engine_us);
    v.insert("ssd.virtual_device_s", win.virtual_device_s);
    v.insert("ssd.virtual_device_s_per_op", win.virtual_device_s / ops);
    v.insert("trace.e2e_untraced_us", e2e_us);
    v.insert("trace.e2e_traced_us", traced_us);
    v.insert("trace.overhead_us", traced_us - e2e_us);
    v.insert("trace.layer_sum_us", layer_sum);
    v.insert("trace.remainder_us", e2e_us - layer_sum);

    lines.push(format!(
        "untraced window: {} {} ops, p50 {e2e_us} us; traced window: {} ops, p50 {traced_us} us; {} spans",
        untraced.primary.len(),
        w.primary_op(),
        win.primary.len(),
        tr.len()
    ));
    headline_lines(w, &win, &mut lines);
    count_lines(w, &win, &d, &mut lines);
    lines.push(format!(
        "layer breakdown per {} (us; each probe is the median per call of a layer's public function, times the per-op count):",
        w.primary_op()
    ));
    for (name, us, how) in &rows {
        lines.push(format!("  {name:<28} {us:>14.3}  {how}"));
    }
    lines.push(format!("  {:<28} {layer_sum:>14.3}", "layer sum"));
    lines.push(format!(
        "  {:<28} {e2e_us:>14.3}  untraced p50",
        "end to end"
    ));
    lines.push(format!(
        "  {:<28} {:>14.3}  unexplained: {}",
        "remainder",
        e2e_us - layer_sum,
        remainder_label(w)
    ));
    lines.push(format!(
        "  {:<28} {:>14.3}  traced p50 - untraced p50",
        "tracing overhead",
        traced_us - e2e_us
    ));
    lines.push("client span self times (median us per op, spans):".to_string());
    // Probe spans (named after the layer call, `Type::fn`) each cover a
    // block of calls; their per-call costs are in the breakdown above.
    for (name, xs) in self_times.iter().filter(|(n, _)| !n.contains("::")) {
        lines.push(format!(
            "  {name:<32} {:>14.3} {:>8}",
            median(xs) * 1e6,
            xs.len()
        ));
    }
    let failed = untraced.failed + win.failed;
    let attempted = untraced.attempted + win.attempted;
    for e in &untraced.errors {
        lines.push(format!("FAILED: {e}"));
    }
    let outcome = Outcome::new(failed == 0, attempted, failed, &PER_LAYER, &v)?;
    Ok(Report {
        lines,
        outcome,
        spans: Some(tr),
    })
}

/// What the breakdown's remainder (untraced end to end minus the layer
/// sum) holds on each workload.
fn remainder_label(w: Workload) -> &'static str {
    match w {
        Workload::ScanCold => {
            "serving hand-off (dispatcher thread, ticket channel) and scan-to-scan drift against the engine probe"
        }
        Workload::GetWarm => "serving hand-off: dispatcher thread, ticket channel, thread wake-ups",
        Workload::IngestLong => {
            "CPU contention with the side get client (2 clients, 2 cores) plus the serving hand-off"
        }
    }
}

/// The per-op layer model: (layer, µs per primary op, how measured),
/// and the sum of the rows on the op's blocking path (client submit,
/// reactor hand-off, engine op). Rows inside the engine op break it
/// down and are not added again. The decode-stage rows (pread, parse,
/// decode) run on the engine's decode workers: they are CPU time
/// divided by the measured decode overlap (decode busy seconds over
/// the seconds the decoding operations were outstanding, at least 1).
fn breakdown(
    w: Workload,
    c: &LayerCosts,
    win: &Window,
    d: &Counters,
    submit_us: f64,
    engine_us: f64,
) -> (Vec<(String, f64, String)>, f64) {
    let ops = win.primary.len().max(1) as f64;
    let per = |n: u64| n as f64 / ops;
    let decoding_s = win.op_seconds() + win.readback.iter().sum::<f64>();
    let overlap = (d.decode_s / decoding_s).max(1.0);
    let reactor_us = (c.reactor_s - c.ring_s) * 1e6;
    let bases = per(d.decoded_bases);
    let decode_cpu = bases / c.decode_bases_per_s;
    let quality_cpu = bases / c.quality_bases_per_s;
    let row = |name: &str, us: f64, how: String| (name.to_string(), us, how);
    let inner = [
        row(
            "  store.cache_probe",
            per(win.touched) * c.cache_probe_s * 1e6,
            format!("{} chunks x StripedCache::get", per(win.touched)),
        ),
        row(
            "  io.pread",
            per(d.file_reads) * c.pread_s * 1e6 / overlap,
            format!("{} x FileBackend::read_extent / overlap", per(d.file_reads)),
        ),
        row(
            "  core.parse",
            per(d.decoded) * c.parse_s * 1e6 / overlap,
            format!(
                "{} chunks x SageArchive::from_bytes / overlap",
                per(d.decoded)
            ),
        ),
        row(
            "  core.decode (bases)",
            (decode_cpu - quality_cpu) * 1e6 / overlap,
            format!("{bases:.0} bases at decompress minus qualities rate / overlap"),
        ),
        row(
            "  core.quality",
            quality_cpu * 1e6 / overlap,
            format!("{bases:.0} bases at decompress_qualities rate / overlap"),
        ),
        row(
            "  core.encode",
            if w == Workload::IngestLong {
                c.encode_s * 1e6
            } else {
                0.0
            },
            "SageCompressor::compress on one batch".to_string(),
        ),
    ];
    let inner_sum: f64 = inner.iter().map(|r| r.1).sum();
    let mut rows = vec![
        row(
            "client.submit",
            submit_us,
            "span self time (includes the ring push)".into(),
        ),
        row(
            "  io.ring push+pop",
            c.ring_s * 1e6,
            "SubmissionRing::push+pop".into(),
        ),
        row(
            "io.reactor hand-off",
            reactor_us,
            "Reactor::submit+wait_any on a no-op backend, minus the ring".into(),
        ),
        row(
            &format!("store.engine {}", w.primary_op()),
            engine_us,
            "StoreEngine::run_op without the reactor".into(),
        ),
    ];
    rows.extend(inner);
    rows.push(row(
        "  store.engine other",
        engine_us - inner_sum,
        format!("engine op minus the rows above (view build, splice, write-through); decode overlap {overlap}"),
    ));
    (rows, submit_us + reactor_us + engine_us)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = Scratch(PathBuf::from(format!(
        ".bench_tmp/{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    let report = match run(&args, &Sizes::FULL, &scratch.0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            drop(scratch);
            std::process::exit(1);
        }
    };
    drop(scratch);
    for l in &report.lines {
        println!("{l}");
    }
    if let Some(tr) = &report.spans {
        let path = PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.csv",
            args.workload.name(),
            args.seed
        ));
        match tr.write_csv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    println!("{}", report.outcome.to_json());
    if !report.outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inputs::Op;

    /// Miniature sizes: the same code paths on tiny datasets, so the
    /// self-tests finish in a debug build.
    const TINY: Sizes = Sizes {
        paper_profiles: false,
        short_chunk_reads: 32,
        long_chunk_reads: 4,
        get_reads: 16,
        side_get_reads: 4,
        ingest_spare_chunks: 8,
        append_pool_datasets: 1,
        setup_repeats: 2,
        scan_sample: 8,
        min_ops: 3,
        trace_op_cap: 50,
    };

    fn ops(gen: &mut OpGen, n: usize) -> Vec<Op> {
        (0..n).map(|_| gen.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_same_inputs_and_op_sequence() {
        for w in Workload::ALL {
            let a = generate(w, 7, &TINY);
            let b = generate(w, 7, &TINY);
            assert_eq!(a, b, "{}: inputs differ for one seed", w.name());
            let other = generate(w, 8, &TINY);
            assert_ne!(a.reads, other.reads, "{}: the seed must matter", w.name());
            let mut ga = OpGen::primary(w, 7, &a, &TINY);
            let mut gb = OpGen::primary(w, 7, &b, &TINY);
            assert_eq!(ops(&mut ga, 500), ops(&mut gb, 500), "{}", w.name());
            let mut sa = OpGen::side(7, &a, &TINY);
            let mut sb = OpGen::side(7, &b, &TINY);
            assert_eq!(ops(&mut sa, 500), ops(&mut sb, 500), "{}", w.name());
            if !w.is_long() {
                let mut go = OpGen::primary(w, 8, &other, &TINY);
                let mut ga = OpGen::primary(w, 7, &a, &TINY);
                assert_ne!(ops(&mut ga, 50), ops(&mut go, 50), "{}", w.name());
            }
        }
    }

    #[test]
    fn generated_ops_stay_inside_the_inputs() {
        for w in Workload::ALL {
            let inputs = generate(w, 3, &TINY);
            let total = inputs.reads.len() as u64;
            let mut g = OpGen::primary(w, 3, &inputs, &TINY);
            let mut side = OpGen::side(3, &inputs, &TINY);
            for op in ops(&mut g, 200).into_iter().chain(ops(&mut side, 200)) {
                match op {
                    Op::Scan { sample } => assert!(sample.iter().all(|&i| i < total)),
                    Op::Get(r) => assert!(r.start < r.end && r.end <= total),
                    Op::Append(i) => assert!(i < inputs.batches.len()),
                }
            }
        }
    }

    /// The metric names between `"key"` and the next `]` of
    /// BENCHMARK.json, with their units.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..start + json[start..].find(']').expect("list closes")];
        let field = |entry: &str, name: &str| {
            let at = entry
                .find(&format!("\"{name}\": \""))
                .expect("field present")
                + name.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        section
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), own(&PER_LAYER));
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn every_workload_prints_every_metric_with_its_unit() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload: w,
                    seed: 5,
                    seconds: 0.2,
                    trace,
                };
                let scratch = Scratch(PathBuf::from(format!(
                    ".bench_tmp/selftest-{}-{trace}-{}",
                    w.name(),
                    std::process::id()
                )));
                let report = run(&args, &TINY, &scratch.0).expect("run succeeds");
                let o = &report.outcome;
                assert!(o.correct, "{} trace={trace}: {:?}", w.name(), report.lines);
                assert!(o.attempted >= TINY.min_ops as u64 && o.failed == 0);
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                let names: Vec<_> = o.metrics.iter().map(|m| (m.0, m.2)).collect();
                assert_eq!(names, table.to_vec(), "{} trace={trace}", w.name());
                let json = o.to_json();
                for (name, unit) in table {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    let at = json
                        .find(&entry)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    let rest = &json[at + entry.len()..];
                    let value = &rest[..rest.find(',').expect("value ends")];
                    assert!(value.parse::<f64>().is_ok(), "{name}: {value}");
                    assert!(rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")));
                }
                if !trace {
                    for (_, v, _) in &o.metrics {
                        assert!(*v > 0.0, "end-to-end metrics are never 0");
                    }
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload scan_cold --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload get_warm --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload get_warm --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload get_warm --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload get_warm --seconds 2")).is_err());
    }
}
