//! End-to-end and per-layer wall-clock benchmark of the `upcr` runtime.
//!
//! ```text
//! perfbench --workload <onnode_eager|onnode_defer|offnode_eager>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a parent process that starts [`CHILDREN`] child processes of
//! this binary one after another and averages their readings: each child
//! is a fresh address-space layout, and on a small VM the layout alone
//! moves an op's latency by a third. Each child measures its share of
//! `--seconds`, in this order:
//!
//! 1. set-up: launch and segment allocation, graph generation, the greedy
//!    reference matching (`setup_s` is the median over children);
//! 2. per-op latency of put, get, fetch_add and fetch_add_into: rank 0
//!    initiates against rank 1's segment while rank 1 waits *outside* the
//!    runtime on a condvar gate, so no second thread polls; the op types
//!    are interleaved round-robin in 256-op batches over the whole phase
//!    and each child reports the median (or p99) of its batch means;
//! 3. GUPS (2^16-word table, AMO variants): alternating timed trials,
//!    median trial reported; the first child also runs one verified trial
//!    per variant;
//! 4. distributed matching on a seeded power-law graph: one warm-up solve,
//!    then timed solves, median reported, every solve checked against the
//!    sequential greedy matching mate for mate.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! phases plus per-layer probes timed with batch spans (see [`spans`]),
//! exact per-op counts from `Upcr::stats`/`net_stats` deltas and the
//! counting allocator, and prints the per-layer metrics. The runtime's own
//! tracing and metric sampling stay off in both modes.
//!
//! The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! The process exits non-zero if any output check failed.

mod alloc;
mod spans;

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use graphgen::{Graph, SeededRng};
use gups::{GupsConfig, Variant};
use matching::Matching;
use upcr::{
    conjoin, launch, make_future, operation_cx, AtomicDomain, GlobalPtr, LibVersion, NetConfig,
    Promise, RuntimeConfig, StatsSnapshot, Upcr,
};

use alloc::AllocCount;
use spans::{SpanId, Spans};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Ops per timed batch.
const BATCH: usize = 256;
/// Ops per op type in the exact-count pass of the traced run.
const COUNT_OPS: usize = 16 * BATCH;
/// GUPS table: 2^16 words (512 KiB), inside one core's L2.
const GUPS_LOG2_TABLE: u32 = 16;
/// Vertices of the matching input (`graphgen::powerlaw(n, 3, seed)`).
const MATCH_VERTICES: usize = 20_000;
/// Per-rank segment of the op/GUPS launch.
const OPS_SEGMENT: usize = 1 << 20;
/// Seeded operand tables (power of two, indexed with a mask).
const OPERANDS: usize = 4096;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    OnnodeEager,
    OnnodeDefer,
    OffnodeEager,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::OnnodeEager,
        Workload::OnnodeDefer,
        Workload::OffnodeEager,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::OnnodeEager => "onnode_eager",
            Workload::OnnodeDefer => "onnode_defer",
            Workload::OffnodeEager => "offnode_eager",
        }
    }

    fn version(self) -> LibVersion {
        match self {
            Workload::OnnodeDefer => LibVersion::V2021_3_6Defer,
            _ => LibVersion::V2021_3_6Eager,
        }
    }

    /// Off-node runs the simulated wire with zero configured latency, so
    /// the figure is the software path alone.
    fn net() -> NetConfig {
        NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        }
    }

    /// The world of the latency and GUPS phases.
    fn ops_config(self) -> RuntimeConfig {
        let rt = match self {
            Workload::OffnodeEager => RuntimeConfig::udp(2, 1).with_net(Self::net()),
            _ => RuntimeConfig::smp(2),
        };
        rt.with_version(self.version())
            .with_segment_size(OPS_SEGMENT)
    }

    /// The world of the matching phase (the paper ran matching on MPI).
    fn match_config(self, g: &Graph) -> RuntimeConfig {
        let rt = match self {
            Workload::OffnodeEager => RuntimeConfig::mpi(2, 1).with_net(Self::net()),
            _ => RuntimeConfig::smp(2),
        };
        // Two words per owned vertex plus scratch, as `matching::benchmark`.
        let seg = (g.n.div_ceil(2) * 16 + 64 * 1024).next_power_of_two();
        rt.with_version(self.version()).with_segment_size(seg)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The run's arguments, plus the child index when this process is one of
/// the run's children (`--child <k>`, passed by the parent only).
fn parse_args(argv: &[String]) -> Result<(Args, Option<usize>), String> {
    let mut child = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == val)
                        .ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--child" => child = Some(val.parse().map_err(|e| format!("--child: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    Ok((args, child))
}

// ---- statistics --------------------------------------------------------------

/// Linear-interpolation quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Output checks feeding `attempted`/`failed`.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Rank 1 parks here, outside the runtime, while rank 0 runs the latency
/// loops: a peer spinning in `barrier()` would share the 2 vCPUs with the
/// initiator and dominate the spread. A world abort (a panicking rank)
/// also releases it, so a failure cannot hang the run.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        *self
            .open
            .lock()
            .expect("gate lock poisoned by a panicking rank") = true;
        self.cv.notify_all();
    }

    fn wait(&self, u: &Upcr) {
        let mut open = self
            .open
            .lock()
            .expect("gate lock poisoned by a panicking rank");
        while !*open && !u.world().is_aborted() {
            open = self
                .cv
                .wait_timeout(open, Duration::from_millis(50))
                .expect("gate lock poisoned by a panicking rank")
                .0;
        }
    }
}

// ---- the micro ops -------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Get,
    FetchAdd,
    FetchAddInto,
}

const OPS: [Op; 4] = [Op::Put, Op::Get, Op::FetchAdd, Op::FetchAddInto];

impl Op {
    fn idx(self) -> usize {
        self as usize
    }

    /// Traced back-to-back batch, split batch, and its initiation child.
    fn span_names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Op::Put => ("op.put", "op.put.split", "rma.put_initiate"),
            Op::Get => ("op.get", "op.get.split", "rma.get_initiate"),
            Op::FetchAdd => (
                "op.fetch_add",
                "op.fetch_add.split",
                "atomics.fetch_add_initiate",
            ),
            Op::FetchAddInto => (
                "op.fetch_add_into",
                "op.fetch_add_into.split",
                "atomics.fetch_add_into_initiate",
            ),
        }
    }
}

/// Rank 0's view of the op targets plus the expected remote state.
struct OpBench<'a> {
    u: &'a Upcr,
    ad: AtomicDomain<u64>,
    /// Put/get word on rank 1.
    word: GlobalPtr<u64>,
    /// Atomic counter on rank 1.
    counter: GlobalPtr<u64>,
    /// `fetch_add_into` result word on rank 0.
    result: GlobalPtr<u64>,
    values: Vec<u64>,
    deltas: Vec<u64>,
    cursor: usize,
    last_put: u64,
    expect_counter: u64,
    checks: Checks,
    unit_futs: Vec<upcr::Future<()>>,
    val_futs: Vec<upcr::Future<u64>>,
}

impl<'a> OpBench<'a> {
    fn new(u: &'a Upcr, seed: u64, word: GlobalPtr<u64>, counter: GlobalPtr<u64>) -> Self {
        let mut rng = SeededRng::seed_from_u64(seed ^ 0x0b5e_55ed);
        let values = (0..OPERANDS).map(|_| rng.next_u64()).collect();
        let deltas = (0..OPERANDS).map(|_| 1 + rng.next_u64() % 1000).collect();
        OpBench {
            u,
            ad: u.atomic_domain::<u64>(),
            word,
            counter,
            result: u.new_::<u64>(0),
            values,
            deltas,
            cursor: 0,
            last_put: 0,
            expect_counter: 0,
            checks: Checks::default(),
            unit_futs: Vec::with_capacity(BATCH),
            val_futs: Vec::with_capacity(BATCH),
        }
    }

    #[inline]
    fn value(&mut self) -> u64 {
        self.cursor = (self.cursor + 1) & (OPERANDS - 1);
        self.values[self.cursor]
    }

    #[inline]
    fn delta(&mut self) -> u64 {
        self.cursor = (self.cursor + 1) & (OPERANDS - 1);
        self.deltas[self.cursor]
    }

    /// One batch of back-to-back `op().wait()` calls — the paper's loop —
    /// with its output check.
    fn batch(&mut self, op: Op) {
        let u = self.u;
        match op {
            Op::Put => {
                for _ in 0..BATCH {
                    let v = self.value();
                    u.rput(v, self.word).wait();
                    self.last_put = v;
                }
            }
            Op::Get => {
                let mut bad = 0usize;
                for _ in 0..BATCH {
                    bad += usize::from(u.rget(self.word).wait() != self.last_put);
                }
                self.checks
                    .check(bad == 0, || format!("{bad} gets missed the last put"));
            }
            Op::FetchAdd => {
                let mut bad = 0usize;
                for _ in 0..BATCH {
                    let d = self.delta();
                    let old = self.ad.fetch_add(self.counter, d).wait();
                    bad += usize::from(old != self.expect_counter);
                    self.expect_counter = self.expect_counter.wrapping_add(d);
                }
                self.checks.check(bad == 0, || {
                    format!("{bad} fetch_adds returned a wrong value")
                });
            }
            Op::FetchAddInto => {
                let mut d = 0;
                for _ in 0..BATCH {
                    d = self.delta();
                    self.ad.fetch_add_into(self.counter, d, self.result).wait();
                    self.expect_counter = self.expect_counter.wrapping_add(d);
                }
                let prior = u.local(self.result).get();
                let want = self.expect_counter.wrapping_sub(d);
                self.checks.check(prior == want, || {
                    format!("fetch_add_into wrote {prior}, expected {want}")
                });
            }
        }
    }

    /// One batch split in two: initiate every op (futures kept), then wait
    /// for them all. Spans separate initiation from completion.
    fn split_batch(&mut self, op: Op, sp: &mut Spans, parent: SpanId, batch: u64) {
        let (_, _, init_name) = op.span_names();
        let u = self.u;
        let init = sp.begin(init_name, parent, batch, BATCH as u64);
        match op {
            Op::Put => {
                for _ in 0..BATCH {
                    let v = self.value();
                    self.unit_futs.push(u.rput(v, self.word));
                    self.last_put = v;
                }
            }
            Op::Get => {
                for _ in 0..BATCH {
                    self.val_futs.push(u.rget(self.word));
                }
            }
            Op::FetchAdd => {
                for _ in 0..BATCH {
                    let d = self.delta();
                    self.val_futs.push(self.ad.fetch_add(self.counter, d));
                    self.expect_counter = self.expect_counter.wrapping_add(d);
                }
            }
            Op::FetchAddInto => {
                for _ in 0..BATCH {
                    let d = self.delta();
                    self.unit_futs
                        .push(self.ad.fetch_add_into(self.counter, d, self.result));
                    self.expect_counter = self.expect_counter.wrapping_add(d);
                }
            }
        }
        sp.end(init);
        let wait = sp.begin("future.wait", parent, batch, BATCH as u64);
        let mut bad = 0usize;
        for f in self.unit_futs.drain(..) {
            f.wait();
        }
        for f in self.val_futs.drain(..) {
            let v = f.wait();
            bad += usize::from(op == Op::Get && v != self.last_put);
        }
        sp.end(wait);
        if op == Op::Get {
            self.checks
                .check(bad == 0, || format!("{bad} split gets missed the last put"));
        }
    }

    /// `BATCH` puts conjoined into one future, then one wait (the GUPS
    /// AMO-with-futures shape).
    fn conjoin_batch(&mut self, sp: &mut Spans, parent: SpanId, batch: u64) {
        let u = self.u;
        let mut f = make_future();
        for _ in 0..BATCH {
            let v = self.value();
            f = conjoin(f, u.rput(v, self.word));
            self.last_put = v;
        }
        sp.time("future.conjoin_wait", parent, batch, BATCH as u64, || {
            f.wait()
        });
    }

    /// `BATCH` puts registered on one promise, then finalize and wait.
    fn promise_batch(&mut self, sp: &mut Spans, parent: SpanId, batch: u64) {
        let u = self.u;
        let pr = Promise::new();
        for _ in 0..BATCH {
            let v = self.value();
            u.rput_with(v, self.word, operation_cx::as_promise(&pr));
            self.last_put = v;
        }
        sp.time("future.promise_wait", parent, batch, BATCH as u64, || {
            pr.finalize().wait()
        });
    }

    /// Final state check: the counter holds the sum of every delta added.
    fn final_check(&mut self) {
        let got = self.u.rget(self.counter).wait();
        let want = self.expect_counter;
        self.checks.check(got == want, || {
            format!("counter holds {got}, expected {want}")
        });
        let got = self.u.rget(self.word).wait();
        let want = self.last_put;
        self.checks
            .check(got == want, || format!("word holds {got}, expected {want}"));
    }
}

/// Exact work per op over a fixed number of ops: heap allocs and bytes on
/// the initiating thread, runtime counters, wire messages.
#[derive(Clone, Copy)]
struct OpCounts {
    ops: u64,
    alloc: AllocCount,
    stats: StatsSnapshot,
    injected: u64,
    retries: u64,
}

impl OpCounts {
    fn measure(u: &Upcr, ops: u64, f: impl FnOnce()) -> OpCounts {
        let s0 = u.stats();
        let n0 = u.net_stats();
        let a0 = AllocCount::now();
        f();
        let alloc = AllocCount::now().since(a0);
        let n1 = u.net_stats();
        OpCounts {
            ops,
            alloc,
            stats: u.stats().since(&s0),
            injected: n1.injected - n0.injected,
            retries: n1.retries - n0.retries,
        }
    }

    fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.ops as f64
    }
}

/// Everything rank 0 measures in the latency phase.
#[derive(Default)]
struct LatencyOut {
    /// Per-op ns of each 256-op batch, per op type (untraced loop).
    samples: [Vec<f64>; 4],
    checks: Checks,
    /// Traced run only.
    layers: Option<LayerOut>,
}

struct LayerOut {
    spans: Spans,
    /// Per-op ns of untraced put batches interleaved with the traced ones.
    put_untraced: Vec<f64>,
    /// Per op type, then all four interleaved.
    counts: [OpCounts; 4],
    all: OpCounts,
    conjoin: OpCounts,
    promise: OpCounts,
}

/// Timed round-robin batches of the four ops until `deadline`, after a
/// short warm-up. Every op type sees the same host phases.
fn latency_loop(b: &mut OpBench, deadline: Instant) -> [Vec<f64>; 4] {
    for _ in 0..8 {
        for op in OPS {
            b.batch(op);
        }
    }
    let mut samples: [Vec<f64>; 4] = Default::default();
    while Instant::now() < deadline {
        for op in OPS {
            let t0 = Instant::now();
            b.batch(op);
            samples[op.idx()].push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        }
    }
    samples
}

/// The traced run's per-layer probes, interleaved round-robin until
/// `deadline`, followed by the fixed-size exact-count pass.
fn layer_probes(b: &mut OpBench, epoch: Instant, deadline: Instant) -> LayerOut {
    let u = b.u;
    let mut sp = Spans::new(epoch, 1 << 16);
    let root = sp.begin("latency.traced", 0, 0, 0);
    let clock_probe = || {
        for _ in 0..BATCH {
            black_box(Instant::now());
        }
    };
    let lock = Mutex::new(0u64);
    let mutex_probe = || {
        for _ in 0..BATCH {
            *lock.lock().expect("probe lock is never poisoned") += 1;
        }
    };
    let mut put_untraced = Vec::new();
    let mut batch = 0u64;
    while Instant::now() < deadline {
        batch += 1;
        // The untraced reference for `trace.overhead_share`, in the same
        // host phase as the traced batches.
        let t0 = Instant::now();
        b.batch(Op::Put);
        put_untraced.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        for op in OPS {
            let (whole, split, _) = op.span_names();
            sp.time(whole, root, batch, BATCH as u64, || b.batch(op));
            let s = sp.begin(split, root, batch, BATCH as u64);
            b.split_batch(op, &mut sp, s, batch);
            sp.end(s);
        }
        let s = sp.begin("future.conjoin", root, batch, BATCH as u64);
        b.conjoin_batch(&mut sp, s, batch);
        sp.end(s);
        let s = sp.begin("future.promise", root, batch, BATCH as u64);
        b.promise_batch(&mut sp, s, batch);
        sp.end(s);
        sp.time("ctx.progress_idle", root, batch, BATCH as u64, || {
            for _ in 0..BATCH {
                u.progress();
            }
        });
        sp.time("host.clock_read", root, batch, BATCH as u64, clock_probe);
        sp.time("host.mutex", root, batch, BATCH as u64, mutex_probe);
    }
    sp.end(root);

    let n = COUNT_OPS as u64;
    let counts = OPS.map(|op| {
        OpCounts::measure(u, n, || {
            for _ in 0..COUNT_OPS / BATCH {
                b.batch(op);
            }
        })
    });
    let all = OpCounts::measure(u, OPS.len() as u64 * n, || {
        for _ in 0..COUNT_OPS / BATCH {
            for op in OPS {
                b.batch(op);
            }
        }
    });
    let mut scratch = Spans::new(epoch, 2 * COUNT_OPS / BATCH);
    let conjoin = OpCounts::measure(u, n, || {
        for _ in 0..COUNT_OPS / BATCH {
            b.conjoin_batch(&mut scratch, 0, 0);
        }
    });
    let promise = OpCounts::measure(u, n, || {
        for _ in 0..COUNT_OPS / BATCH {
            b.promise_batch(&mut scratch, 0, 0);
        }
    });
    LayerOut {
        spans: sp,
        put_untraced,
        counts,
        all,
        conjoin,
        promise,
    }
}

// ---- phases --------------------------------------------------------------------

/// Time budget of each phase in one child, from shares of `--seconds`
/// (the probes run once, in the traced run's last child).
struct Plan {
    latency: Duration,
    probes: Duration,
    gups: Duration,
    matching: Duration,
}

impl Plan {
    fn new(seconds: f64, trace: bool, probes: bool) -> Plan {
        let s = |share: f64| Duration::from_secs_f64(seconds * share / CHILDREN as f64);
        Plan {
            latency: s(if trace { 0.15 } else { 0.4 }),
            probes: if probes {
                s(0.25) * CHILDREN as u32
            } else {
                Duration::ZERO
            },
            gups: s(0.3),
            matching: s(0.3),
        }
    }
}

#[derive(Default)]
struct GupsOut {
    future_mups: Vec<f64>,
    promise_mups: Vec<f64>,
    checks: Checks,
    barrier_ns: Vec<f64>,
    allreduce_ns: Vec<f64>,
}

/// Both ranks: one verified trial per AMO variant (first child only), then
/// alternating timed trials until rank 0's deadline. The probing child then
/// times batches of barriers and allreduces.
fn gups_phase(u: &Upcr, budget: Duration, verify: bool, collectives: bool) -> GupsOut {
    let cfg = GupsConfig {
        log2_table: GUPS_LOG2_TABLE,
        updates_per_word: 4,
        batch: 256,
        verify: false,
    };
    let me0 = u.rank_me() == 0;
    let mut out = GupsOut::default();
    let verified = if verify {
        [Variant::AmoFuture, Variant::AmoPromise].as_slice()
    } else {
        &[]
    };
    for &variant in verified {
        let r = gups::run(
            u,
            &GupsConfig {
                verify: true,
                ..cfg
            },
            variant,
        );
        if me0 {
            out.checks
                .check(r.errors == 0 && r.updates == cfg.total_updates(), || {
                    format!("GUPS {}: {} lost updates", variant.name(), r.errors)
                });
        }
    }
    let deadline = Instant::now() + budget;
    let mut trial = 0usize;
    // At least one trial of each variant, whatever the budget.
    while u.broadcast(trial < 2 || Instant::now() < deadline, 0) {
        let variant = [Variant::AmoFuture, Variant::AmoPromise][trial % 2];
        let r = gups::run(u, &cfg, variant);
        if me0 {
            match variant {
                Variant::AmoFuture => out.future_mups.push(r.mups()),
                _ => out.promise_mups.push(r.mups()),
            }
        }
        trial += 1;
    }
    if collectives {
        const CALLS: usize = 64;
        for _ in 0..32 {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                u.barrier();
            }
            out.barrier_ns
                .push(t0.elapsed().as_nanos() as f64 / CALLS as f64);
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(u.allreduce_sum_u64(i as u64));
            }
            out.allreduce_ns
                .push(t0.elapsed().as_nanos() as f64 / CALLS as f64);
        }
    }
    out
}

#[derive(Default)]
struct MatchOut {
    solve_s: Vec<f64>,
    rounds: usize,
    rma_reads: u64,
    checks: Checks,
}

/// Both ranks: one warm-up solve, then timed solves until rank 0's
/// deadline; every result is compared with the greedy reference.
fn matching_phase(u: &Upcr, g: &Graph, reference: &Matching, budget: Duration) -> MatchOut {
    let me0 = u.rank_me() == 0;
    let mut out = MatchOut::default();
    let deadline = Instant::now() + budget;
    let mut trial = 0usize;
    // The first solve of a launch is a warm-up; at least one is timed.
    while u.broadcast(trial < 2 || Instant::now() < deadline, 0) {
        let (run, m) = matching::run(u, g);
        if me0 {
            out.checks.check(m.mate == reference.mate, || {
                "distributed matching differs from greedy".to_string()
            });
            if trial > 0 {
                out.solve_s.push(run.seconds);
            }
            out.rounds = run.stats.rounds;
            out.rma_reads = run.stats.rma_reads;
        }
        trial += 1;
    }
    out
}

struct SetupOut {
    launch_s: f64,
    generate_s: f64,
    reference_s: f64,
    graph: Graph,
    reference: Matching,
}

/// Everything a child needs before it measures: launch a world (segment
/// allocation included), generate the matching input, compute the greedy
/// reference.
fn setup(w: Workload, seed: u64) -> SetupOut {
    let t0 = Instant::now();
    launch(w.ops_config(), |u| u.barrier());
    let t1 = Instant::now();
    let graph = graphgen::powerlaw(MATCH_VERTICES, 3, seed);
    let t2 = Instant::now();
    let reference = matching::greedy(&graph);
    let t3 = Instant::now();
    SetupOut {
        launch_s: (t1 - t0).as_secs_f64(),
        generate_s: (t2 - t1).as_secs_f64(),
        reference_s: (t3 - t2).as_secs_f64(),
        graph,
        reference,
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One launch of the op world: rank 0's latency loop (and, in the probing
/// child, the layer probes) while rank 1 waits at the gate, then GUPS
/// trials on both ranks.
fn ops_phase(
    w: Workload,
    seed: u64,
    plan: &Plan,
    epoch: Instant,
    verify: bool,
) -> (LatencyOut, GupsOut) {
    let gate = Gate::default();
    let probes = plan.probes > Duration::ZERO;
    launch(w.ops_config(), |u| {
        u.trace_enabled(false);
        u.metrics_enabled(false);
        let word = u.new_::<u64>(0);
        let counter = u.new_::<u64>(0);
        let word = u.broadcast(word, 1);
        let counter = u.broadcast(counter, 1);
        u.barrier();
        let mut lat = LatencyOut::default();
        if u.rank_me() == 0 {
            let mut b = OpBench::new(u, seed, word, counter);
            lat.samples = latency_loop(&mut b, Instant::now() + plan.latency);
            if probes {
                lat.layers = Some(layer_probes(&mut b, epoch, Instant::now() + plan.probes));
            }
            b.final_check();
            lat.checks = std::mem::take(&mut b.checks);
            gate.open();
        } else {
            gate.wait(u);
        }
        let gups = gups_phase(u, plan.gups, verify, probes);
        (lat, gups)
    })
    .swap_remove(0)
}

// ---- one child: one address-space layout ----------------------------------------

/// A child's measurements, by metric name.
type Readings = Vec<(&'static str, f64)>;

/// Measure one share of the run in this process and return the readings,
/// the checks and (in the probing child) the spans.
fn child(args: &Args, k: usize) -> (Readings, Checks, Option<Spans>) {
    let probing = args.trace && k + 1 == CHILDREN;
    let w = args.workload;
    let plan = Plan::new(args.seconds, args.trace, probing);
    let epoch = Instant::now();
    let su = setup(w, args.seed);
    let (mut lat, mut gups) = ops_phase(w, args.seed, &plan, epoch, k == 0);
    let mat = launch(w.match_config(&su.graph), |u| {
        u.trace_enabled(false);
        u.metrics_enabled(false);
        matching_phase(u, &su.graph, &su.reference, plan.matching)
    })
    .swap_remove(0);
    let mut checks = std::mem::take(&mut lat.checks);
    checks.merge(std::mem::take(&mut gups.checks));
    checks.merge(mat.checks);

    let lat_med = |op: Op| median(&lat.samples[op.idx()]);
    let mut r: Readings = vec![
        ("setup_s", su.launch_s + su.generate_s + su.reference_s),
        ("runtime.launch_s", su.launch_s),
        ("graphgen.generate_s", su.generate_s),
        ("matching.reference_s", su.reference_s),
        ("put_ns", lat_med(Op::Put)),
        ("put_p99_ns", quantile(&lat.samples[Op::Put.idx()], 0.99)),
        ("get_ns", lat_med(Op::Get)),
        ("fetch_add_ns", lat_med(Op::FetchAdd)),
        ("fetch_add_into_ns", lat_med(Op::FetchAddInto)),
        ("gups_amo_future_mups", median(&gups.future_mups)),
        ("gups_amo_promise_mups", median(&gups.promise_mups)),
        ("match_solve_ms", median(&mat.solve_s) * 1e3),
        ("matching.rounds", mat.rounds as f64),
        ("matching.rma_reads", mat.rma_reads as f64),
    ];
    let spans = lat.layers.map(|l| {
        layer_readings(&l, &gups, &mut r);
        l.spans
    });
    // Last, so it covers every phase.
    r.push(("peak_rss_mb", peak_rss_mb()));
    eprintln!(
        "perfbench {}: {} latency batches per op, {}+{} GUPS trials, {} matching trials",
        w.name(),
        lat.samples[0].len(),
        gups.future_mups.len(),
        gups.promise_mups.len(),
        mat.solve_s.len(),
    );
    (r, checks, spans)
}

/// The probing child's per-layer readings.
fn layer_readings(l: &LayerOut, gups: &GupsOut, r: &mut Readings) {
    let sp = &l.spans;
    let per_call = |name: &str| median(&sp.per_call_ns(name));
    let per_call_self = |name: &str| median(&sp.per_call_self_ns(name));
    let all = &l.all;
    let s = &all.stats;
    let c = &l.counts;
    let allocs = |o: Op| c[o.idx()].per_op(c[o.idx()].alloc.allocs);
    r.extend([
        ("ctx.progress_idle_ns", per_call("ctx.progress_idle")),
        ("ctx.progress_calls_per_op", all.per_op(s.progress_calls)),
        ("ctx.deferred_per_op", all.per_op(s.deferred_enqueued)),
        ("ctx.wakeups_per_op", all.per_op(s.event_wakeups)),
        ("ctx.progress_ns_per_op", all.per_op(s.progress_ns)),
        ("rma.put_initiate_ns", per_call("rma.put_initiate")),
        ("rma.get_initiate_ns", per_call("rma.get_initiate")),
        (
            "atomics.fetch_add_initiate_ns",
            per_call("atomics.fetch_add_initiate"),
        ),
        (
            "atomics.fetch_add_into_initiate_ns",
            per_call("atomics.fetch_add_into_initiate"),
        ),
        ("rma.put_allocs", allocs(Op::Put)),
        ("rma.put_alloc_bytes", c[0].per_op(c[0].alloc.bytes)),
        ("rma.get_allocs", allocs(Op::Get)),
        ("atomics.fetch_add_allocs", allocs(Op::FetchAdd)),
        ("atomics.fetch_add_into_allocs", allocs(Op::FetchAddInto)),
        ("future.wait_ns", per_call("future.wait")),
        ("future.cell_allocs_per_op", all.per_op(s.cell_allocs)),
        ("future.conjoin_ns", per_call_self("future.conjoin")),
        (
            "future.conjoin_allocs",
            l.conjoin.per_op(l.conjoin.alloc.allocs),
        ),
        (
            "future.when_all_nodes_per_op",
            l.conjoin.per_op(l.conjoin.stats.when_all_nodes),
        ),
        ("future.promise_ns", per_call_self("future.promise")),
        (
            "future.promise_allocs",
            l.promise.per_op(l.promise.alloc.allocs),
        ),
        ("net.injected_per_op", all.per_op(all.injected)),
        ("net.retries_per_op", all.per_op(all.retries)),
        ("collectives.barrier_ns", median(&gups.barrier_ns)),
        ("collectives.allreduce_ns", median(&gups.allreduce_ns)),
        ("host.clock_read_ns", per_call("host.clock_read")),
        ("host.mutex_ns", per_call("host.mutex")),
        (
            "trace.overhead_share",
            per_call("op.put") / median(&l.put_untraced) - 1.0,
        ),
    ]);
}

// ---- the parent: children, aggregation, the result line -------------------------

/// Child processes per run. Each is a fresh address-space layout: on a
/// small VM the same binary reads an off-node put anywhere from ~760 to
/// ~1190 ns depending on layout alone, with a minority of fast layouts.
/// Every metric is the median over children, which stays in the main
/// cluster however many fast layouts a run happens to draw.
const CHILDREN: usize = 30;

/// End-to-end metrics (`--trace 0`), with units: each child's median (or
/// p99, or single set-up time), then the median over children.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("put_ns", "ns"),
    ("put_p99_ns", "ns"),
    ("get_ns", "ns"),
    ("fetch_add_ns", "ns"),
    ("fetch_add_into_ns", "ns"),
    ("gups_amo_future_mups", "MUPS"),
    ("gups_amo_promise_mups", "MUPS"),
    ("match_solve_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units. Set-up parts and matching
/// counts are medians over children; the rest come from the probing child;
/// `error_share` from the checks of every child.
const PER_LAYER: [(&str, &str); 34] = [
    ("ctx.progress_idle_ns", "ns"),
    ("ctx.progress_calls_per_op", "count"),
    ("ctx.deferred_per_op", "count"),
    ("ctx.wakeups_per_op", "count"),
    ("ctx.progress_ns_per_op", "ns"),
    ("rma.put_initiate_ns", "ns"),
    ("rma.get_initiate_ns", "ns"),
    ("atomics.fetch_add_initiate_ns", "ns"),
    ("atomics.fetch_add_into_initiate_ns", "ns"),
    ("rma.put_allocs", "count"),
    ("rma.put_alloc_bytes", "B"),
    ("rma.get_allocs", "count"),
    ("atomics.fetch_add_allocs", "count"),
    ("atomics.fetch_add_into_allocs", "count"),
    ("future.wait_ns", "ns"),
    ("future.cell_allocs_per_op", "count"),
    ("future.conjoin_ns", "ns"),
    ("future.conjoin_allocs", "count"),
    ("future.when_all_nodes_per_op", "count"),
    ("future.promise_ns", "ns"),
    ("future.promise_allocs", "count"),
    ("net.injected_per_op", "count"),
    ("net.retries_per_op", "count"),
    ("collectives.barrier_ns", "ns"),
    ("collectives.allreduce_ns", "ns"),
    ("matching.rounds", "count"),
    ("matching.rma_reads", "count"),
    ("runtime.launch_s", "s"),
    ("graphgen.generate_s", "s"),
    ("matching.reference_s", "s"),
    ("host.clock_read_ns", "ns"),
    ("host.mutex_ns", "ns"),
    ("trace.overhead_share", "share"),
    ("error_share", "share"),
];

/// Run the children one after another, each waited for, and collect their
/// readings. A child that fails or dies counts as a failed check.
fn parent(args: &Args, argv: &[String]) -> (Vec<(String, f64)>, Checks) {
    let exe = std::env::current_exe().expect("path of the running executable");
    eprintln!(
        "perfbench {}: {CHILDREN} children on {} CPUs",
        args.workload.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut readings: Vec<(String, f64)> = vec![];
    let mut checks = Checks::default();
    for k in 0..CHILDREN {
        let out = std::process::Command::new(&exe)
            .args(argv)
            .args(["--child", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                checks.check(false, || format!("child {k} did not start: {e}"));
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match (it.next(), it.next().and_then(|v| v.parse::<f64>().ok())) {
                (Some("checks.attempted"), Some(v)) => checks.attempted += v as u64,
                (Some("checks.failed"), Some(v)) => checks.failed += v as u64,
                (Some(name), Some(v)) => readings.push((name.to_string(), v)),
                _ => {}
            }
        }
        checks.check(out.status.success(), || {
            format!(
                "child {k} of {} exited with {}",
                args.workload.name(),
                out.status
            )
        });
    }
    (readings, checks)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, child_idx) = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(k) = child_idx {
        let (readings, checks, spans) = child(&args, k);
        if let Some(sp) = spans {
            let dir = std::path::Path::new("perfbench/out");
            let path = dir.join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, sp.to_jsonl()))
            {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        for (name, v) in readings {
            println!("{name} {v}");
        }
        println!("checks.attempted {}", checks.attempted);
        println!("checks.failed {}", checks.failed);
        return if checks.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let (readings, checks) = parent(&args, &argv);
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = vec![];
    let mut finite = true;
    for &(name, unit) in wanted {
        let value = if name == "error_share" {
            checks.failed as f64 / checks.attempted.max(1) as f64
        } else {
            let vals: Vec<f64> = readings
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                median(&vals)
            }
        };
        finite &= value.is_finite();
        eprintln!("  {name:<36} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(value)
        ));
    }
    let correct = checks.failed == 0 && checks.attempted > 0 && finite;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit Rust prints; non-finite values become
/// `null` (and fail the run's correctness).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
