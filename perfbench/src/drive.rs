//! The closed loops: each client keeps one operation outstanding,
//! submits through `Session`, waits on the ticket, and checks the
//! answer against the generated input.

use crate::inputs::{Inputs, Op, OpGen, Sizes, Workload};
use crate::stats::percentile;
use crate::trace::Tracer;
use sage_genomics::{Read, ReadSet};
use sage_store::client::{Dataset, Session};
use sage_store::{Completion, OpReport, ReadView, Ticket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Operations per slice of the headline statistics.
pub const SLICE_OPS: usize = 100;

/// Think time of ingest_long's side client between one get's answer
/// and its next get. Flat out, the side client and the serving threads
/// handing its gets over keep a second core busy, so on a two-core host
/// the appends measured how much CPU the host's neighbours left rather
/// than the encoder; with the pause the process needs about one core.
const SIDE_THINK: Duration = Duration::from_millis(1);

/// Span names of one operation kind: the root covers submit → wait.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub root: &'static str,
    pub submit: &'static str,
    pub wait: &'static str,
}

pub const SCAN: Kind = Kind {
    root: "session.scan",
    submit: "scan.submit",
    wait: "scan.wait",
};
pub const GET: Kind = Kind {
    root: "session.get",
    submit: "get.submit",
    wait: "get.wait",
};
pub const APPEND: Kind = Kind {
    root: "session.append",
    submit: "append.submit",
    wait: "append.wait",
};
pub const READBACK: Kind = Kind {
    root: "session.readback",
    submit: "readback.submit",
    wait: "readback.wait",
};
pub const SIDE_GET: Kind = Kind {
    root: "session.side_get",
    submit: "side_get.submit",
    wait: "side_get.wait",
};

impl Workload {
    pub fn primary_kind(self) -> Kind {
        match self {
            Workload::ScanCold => SCAN,
            Workload::GetWarm => GET,
            Workload::IngestLong => APPEND,
        }
    }
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Seconds per primary operation (submit → ticket resolved).
    pub primary: Vec<f64>,
    /// Bases each primary operation handed over (scanned, got, appended).
    pub primary_bases: Vec<u64>,
    /// ingest_long: seconds per side get.
    pub side: Vec<f64>,
    /// ingest_long: seconds per read-back get.
    pub readback: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub wall_s: f64,
    /// Σ `OpReport::device_seconds` over every operation.
    pub virtual_device_s: f64,
    /// Chunks touched, cache hits and misses reported by the primary
    /// operations (and, on ingest_long, their read-backs).
    pub touched: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Window {
    /// Σ primary-operation seconds: the time the client waited on the store.
    pub fn op_seconds(&self) -> f64 {
        self.primary.iter().sum()
    }

    /// Bases the primary operations handed over per second they were
    /// outstanding, in millions.
    pub fn mbases_per_s(&self) -> f64 {
        self.primary_bases.iter().sum::<u64>() as f64 / self.op_seconds() / 1e6
    }

    /// The headline statistics of the primary operation: p50 and p90
    /// latency (seconds) and throughput (Mbases/s). The window is cut
    /// into consecutive [`SLICE_OPS`]-operation slices (a trailing
    /// partial slice is left out unless it is the only one), each
    /// slice's p50, p90 and rate are computed — every slice has 10
    /// operations beyond its p90 — and the better quartile across
    /// slices is reported: the 25th percentile of the latencies, the
    /// 75th of the rates. Host preemption only ever slows a slice, so
    /// the better quartile stays put while stalls come and go during a
    /// run, and moves when the program itself gets slower or faster.
    pub fn headline(&self) -> (f64, f64, f64) {
        let n = self.primary.len();
        let size = if n < SLICE_OPS { n.max(1) } else { SLICE_OPS };
        let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        for (lat, bases) in self
            .primary
            .chunks_exact(size)
            .zip(self.primary_bases.chunks_exact(size))
        {
            p50.push(percentile(lat, 0.5));
            p90.push(percentile(lat, 0.9));
            rate.push(bases.iter().sum::<u64>() as f64 / lat.iter().sum::<f64>() / 1e6);
        }
        (
            percentile(&p50, 0.25),
            percentile(&p90, 0.25),
            percentile(&rate, 0.75),
        )
    }

    /// Books an operation's report; `step` marks the primary client's
    /// operations, whose cache outcomes the per-op counts cover.
    fn book(&mut self, r: &OpReport, step: bool) {
        self.virtual_device_s += r.device_seconds;
        if step {
            self.touched += r.chunks_touched();
            self.hits += r.cache_hits();
            self.misses += r.cache_misses();
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn absorb(&mut self, o: Window) {
        self.primary.extend(o.primary);
        self.primary_bases.extend(o.primary_bases);
        self.side.extend(o.side);
        self.readback.extend(o.readback);
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.virtual_device_s += o.virtual_device_s;
        self.touched += o.touched;
        self.hits += o.hits;
        self.misses += o.misses;
    }
}

/// Submits, then blocks on the ticket; returns the completion and the
/// seconds from submit to resolution. With a tracer, records the root
/// span and its submit/wait children.
fn timed<T>(
    tr: Option<&mut Tracer>,
    kind: Kind,
    submit: impl FnOnce() -> sage_store::Result<Ticket<T>>,
) -> (Result<Completion<T>, String>, f64) {
    match tr {
        None => {
            let t0 = Instant::now();
            let out = submit().and_then(Ticket::wait);
            (out.map_err(|e| e.to_string()), t0.elapsed().as_secs_f64())
        }
        Some(tr) => {
            let root = tr.begin(kind.root);
            let out = match tr.child(root, kind.submit, submit) {
                Ok(ticket) => tr.child(root, kind.wait, || ticket.wait()),
                Err(e) => Err(e),
            };
            tr.end(root);
            (out.map_err(|e| e.to_string()), tr.seconds(root))
        }
    }
}

fn same(a: &Read, b: &Read) -> bool {
    a.seq == b.seq && a.qual == b.qual
}

/// Byte-compares every returned read (bases and qualities) with the
/// input; returns the bases handed over.
pub fn check_reads<'a>(
    got: impl IntoIterator<Item = &'a Read>,
    want: &[Read],
) -> Result<u64, String> {
    let mut got = got.into_iter();
    let mut bases = 0u64;
    for (i, w) in want.iter().enumerate() {
        match got.next() {
            Some(g) if same(g, w) => bases += g.len() as u64,
            Some(_) => return Err(format!("read {i} of the range differs from the input")),
            None => return Err(format!("got {i} reads, want {}", want.len())),
        }
    }
    match got.next() {
        Some(_) => Err(format!("got more than the {} reads asked for", want.len())),
        None => Ok(bases),
    }
}

/// Checks a full scan: read count and base total against the input,
/// plus a byte-compare of the reads at `sample`.
pub fn check_scan(view: &ReadView, sample: &[u64], want: &ReadSet) -> Result<u64, String> {
    if view.len() != want.len() {
        return Err(format!(
            "scan got {} reads, want {}",
            view.len(),
            want.len()
        ));
    }
    let bases = view.total_bases();
    if bases != want.total_bases() {
        return Err(format!(
            "scan got {bases} bases, want {}",
            want.total_bases()
        ));
    }
    for &i in sample {
        let i = i as usize;
        match view.get(i) {
            Some(got) if same(got, &want.reads()[i]) => {}
            _ => return Err(format!("scan read {i} differs from the input")),
        }
    }
    Ok(bases as u64)
}

/// Untimed warm-up: fills the cache (get_warm, ingest_long) or brings
/// the scan-thrashed cache to its steady state (scan_cold).
pub fn warm_up(w: Workload, ds: &Dataset, inputs: &Inputs) -> Result<(), String> {
    let passes = if w == Workload::ScanCold { 2 } else { 1 };
    for _ in 0..passes {
        let view = ds
            .session()
            .scan(|_| true)
            .and_then(Ticket::join)
            .map_err(|e| e.to_string())?;
        check_scan(&view, &[], &inputs.reads)?;
    }
    Ok(())
}

/// The clients' op generators, carried across windows so a run's op
/// sequence continues rather than restarts.
#[derive(Debug)]
pub struct Clients {
    pub primary: OpGen,
    pub side: OpGen,
}

/// Runs the workload's closed loop(s) for `secs` seconds (and at least
/// `sizes.min_ops` primary operations). With a tracer, also stops after
/// `sizes.trace_op_cap` primary operations.
pub fn run_window(
    w: Workload,
    ds: &Dataset,
    inputs: &Inputs,
    sizes: &Sizes,
    clients: &mut Clients,
    secs: f64,
    mut tr: Option<&mut Tracer>,
) -> Window {
    let cap = if tr.is_some() {
        sizes.trace_op_cap
    } else {
        usize::MAX
    };
    let t0 = Instant::now();
    let more = |n: usize| n < cap && (n < sizes.min_ops || t0.elapsed().as_secs_f64() < secs);
    let session = ds.session();
    let mut win = Window::default();
    match w {
        Workload::ScanCold | Workload::GetWarm => {
            while more(win.primary.len()) {
                win.attempted += 1;
                let (res, dt) = match clients.primary.next_op() {
                    Op::Scan { sample } => {
                        let (res, dt) = timed(tr.as_deref_mut(), SCAN, || session.scan(|_| true));
                        let res = res.and_then(|c| {
                            win.book(&c.report, true);
                            check_scan(&c.value, &sample, &inputs.reads)
                        });
                        (res, dt)
                    }
                    Op::Get(range) => {
                        let want = &inputs.reads.reads()[range.start as usize..range.end as usize];
                        let (res, dt) = timed(tr.as_deref_mut(), GET, || session.get(range));
                        let res = res.and_then(|c| {
                            win.book(&c.report, true);
                            check_reads(c.value.iter(), want)
                        });
                        (res, dt)
                    }
                    Op::Append(_) => unreachable!("scan/get workloads issue no appends"),
                };
                match res {
                    Ok(bases) => {
                        win.primary.push(dt);
                        win.primary_bases.push(bases);
                    }
                    Err(e) => win.fail(e),
                }
            }
        }
        Workload::IngestLong => {
            let done = AtomicBool::new(false);
            let origin = tr.as_ref().map(|t| t.origin());
            let side_gen = &mut clients.side;
            let (side, side_tr) = std::thread::scope(|s| {
                let (done, cap) = (&done, sizes.trace_op_cap);
                let side = s.spawn(move || side_client(ds, inputs, side_gen, done, origin, cap));
                while more(win.primary.len()) {
                    append_once(
                        &session,
                        inputs,
                        &mut clients.primary,
                        &mut win,
                        tr.as_deref_mut(),
                    );
                }
                done.store(true, Ordering::Release);
                side.join().expect("side client panicked")
            });
            win.absorb(side);
            if let (Some(tr), Some(side_tr)) = (tr, side_tr) {
                tr.absorb(side_tr);
            }
        }
    }
    win.wall_s = t0.elapsed().as_secs_f64();
    win
}

/// One ingest step: append the next batch, then read it back and
/// byte-compare.
fn append_once(
    session: &Session,
    inputs: &Inputs,
    gen: &mut OpGen,
    win: &mut Window,
    mut tr: Option<&mut Tracer>,
) {
    let Op::Append(i) = gen.next_op() else {
        unreachable!("the ingest client only appends")
    };
    let batch = &inputs.batches[i];
    win.attempted += 1;
    let (res, dt) = timed(tr.as_deref_mut(), APPEND, || session.append(batch));
    let first = match res {
        Ok(c) => {
            win.book(&c.report, true);
            win.primary.push(dt);
            win.primary_bases.push(batch.total_bases() as u64);
            c.value
        }
        Err(e) => return win.fail(e),
    };
    win.attempted += 1;
    let range = first..first + batch.len() as u64;
    let (res, dt) = timed(tr, READBACK, || session.get(range));
    match res.and_then(|c| {
        win.book(&c.report, true);
        check_reads(c.value.iter(), batch.reads())
    }) {
        Ok(_) => win.readback.push(dt),
        Err(e) => win.fail(format!("read-back of batch {i}: {e}")),
    }
}

/// ingest_long's second client: 4-read gets on the reads stored at
/// set-up, with a [`SIDE_THINK`] pause after each, until the appender
/// finishes. With a tracer origin, traces its first `cap` gets.
fn side_client(
    ds: &Dataset,
    inputs: &Inputs,
    gen: &mut OpGen,
    done: &AtomicBool,
    origin: Option<Instant>,
    cap: usize,
) -> (Window, Option<Tracer>) {
    let mut tr = origin.map(|o| Tracer::new(o, 1 << 40));
    let session = ds.session();
    let mut win = Window::default();
    while !done.load(Ordering::Acquire) {
        let Op::Get(range) = gen.next_op() else {
            unreachable!("the side client only gets")
        };
        let want = &inputs.reads.reads()[range.start as usize..range.end as usize];
        win.attempted += 1;
        let traced = tr.as_mut().filter(|_| win.side.len() < cap);
        let (res, dt) = timed(traced, SIDE_GET, || session.get(range));
        match res.and_then(|c| {
            win.book(&c.report, false);
            check_reads(c.value.iter(), want)
        }) {
            Ok(_) => win.side.push(dt),
            Err(e) => win.fail(e),
        }
        std::thread::sleep(SIDE_THINK);
    }
    (win, tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    #[test]
    fn wrong_answers_are_caught() {
        let reads = simulate_dataset(&DatasetProfile::tiny_short(), 1).reads;
        let want = &reads.reads()[..8];
        let bases = want.iter().map(|r| r.len() as u64).sum::<u64>();
        assert_eq!(check_reads(want, want), Ok(bases));
        assert!(check_reads(&want[..7], want).is_err(), "missing read");
        assert!(
            check_reads(&reads.reads()[..9], want).is_err(),
            "extra read"
        );
        let mut flipped = want.to_vec();
        flipped[3]
            .qual
            .as_mut()
            .expect("simulated reads carry qualities")[0] ^= 1;
        assert!(
            check_reads(&flipped, want).is_err(),
            "one quality byte differs"
        );
        let mut shifted = want.to_vec();
        shifted.swap(0, 1);
        assert!(check_reads(&shifted, want).is_err(), "reads out of order");
    }
}
