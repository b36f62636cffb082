//! The `serve-read` and `serve-write` workloads: an open-loop load generator
//! against a fresh `repf-serve` daemon, plus an in-process replay of the
//! same operations for the per-layer breakdown.
//!
//! Sessions are the 12 workload analogs' sampling profiles. Each phase
//! (a warm-up, the nominal-rate phases, the saturation bursts) starts its
//! own daemon through `repf_serve::start`, preloads and warms the
//! sessions (the set-up time), drives a schedule of pre-encoded requests
//! that is a pure function of (workload, seed, phase), and checks every
//! reply. The load generator is one sender thread and one epoll reader thread
//! over at most `nproc` connections; each op is timed from its scheduled
//! send time (intended latency), and the sender's own lateness is
//! reported.

use crate::span::Spans;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::{nproc, Args, Outcome};
use repf_core::analyze_with_model;
use repf_metrics::json::Json;
use repf_sampling::{Sampler, SamplerConfig};
use repf_serve::conn::FrameAccumulator;
use repf_serve::poll::{EpollEvent, Poller, EPOLLIN};
use repf_serve::{
    Client, MachineId, PlanWire, ReplayRng, Request, Response, SampleBatch, ServeConfig,
    ShardedSessionStore, StorePolicy, Target, ZipfGen,
};
use repf_statstack::corun::CoRunModel;
use repf_statstack::StatStackModel;
use repf_trace::Pc;
use repf_workloads::{build, BenchmarkId, BuildOptions};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Relative weights of the op classes in a workload's schedule.
pub struct Shares {
    mrc: f64,
    pc_mrc: f64,
    plan: f64,
    co_run: f64,
    place: f64,
    submit: f64,
    churn: f64,
}

/// One serve workload.
pub struct Spec {
    name: &'static str,
    /// Nominal open-loop rate (ops/s) the latency metrics are taken at.
    nominal_rate: f64,
    /// Ops in each saturation burst (all sent at once; `wall_s` is the
    /// time to answer them).
    burst_ops: u64,
    shares: Shares,
    budget: Budget,
}

/// A daemon's session-store budget.
#[derive(Clone, Copy)]
enum Budget {
    /// A fixed number of bytes.
    Fixed(usize),
    /// This multiple of the largest shard's hot working set at the end of
    /// the phase (computed from the schedule), times the shard count: the
    /// hot sessions always fit, and the one-shot churn sessions overflow
    /// it, so the store must evict or refuse them.
    HotTimes(f64),
}

// Op-class shares. The MRC, per-PC MRC, submit and churn shares follow
// the load generator's mixes (`repf_serve::OpMix`): `serve-read` reads
// like `query-heavy` (MRC 80 : per-PC 15) without its submits, since
// nothing writes; `serve-write` is `submit-heavy` (submit 50, MRC 40,
// per-PC 10) with `scan-churn`'s 10 % of one-shot churn submits taken
// from its reads. Those mixes have no Plan, CoRun or Place ops, and no
// measured traffic gives their shares, so they are a stated choice:
// Plan and CoRun replace 30 % of each workload's reads (22.5 and 7.5
// points), and Place is one op in 1000, rare enough that the latency
// tail is not simply Place latency. Each phase records the share of
// the daemon's handler time every class took (`handler_share`).

pub static READ: Spec = Spec {
    name: "serve-read",
    nominal_rate: 2000.0,
    burst_ops: 20_000,
    shares: Shares {
        mrc: 0.70 * 80.0 / 95.0,
        pc_mrc: 0.70 * 15.0 / 95.0,
        plan: 0.225,
        co_run: 0.075,
        place: 0.001,
        submit: 0.0,
        churn: 0.0,
    },
    budget: Budget::Fixed(64 << 20),
};

pub static WRITE: Spec = Spec {
    name: "serve-write",
    nominal_rate: 1000.0,
    burst_ops: 6_000,
    shares: Shares {
        mrc: 0.40 * 0.70 * 40.0 / 50.0,
        pc_mrc: 0.40 * 0.70 * 10.0 / 50.0,
        plan: 0.40 * 0.225,
        co_run: 0.40 * 0.075,
        place: 0.001,
        submit: 0.5,
        churn: 0.1,
    },
    budget: Budget::HotTimes(1.5),
};

/// Store shards and policy of every daemon (and of the in-process
/// replay, which must mirror it).
const SHARDS: usize = 4;
const POLICY: StorePolicy = StorePolicy::TinyLfu;
/// Run length of the analogs the session profiles are sampled from.
const CORPUS_SCALE: f64 = 0.25;
/// Each session profile is also cut into this many submit batches.
const CHUNKS: usize = 16;
const MRC_SIZES: [u64; 6] = [32 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20, 6 << 20];
const PC_SIZES: [u64; 4] = [64 << 10, 512 << 10, 2 << 20, 6 << 20];
const CORUN_SIZES: [u64; 3] = [1 << 20, 4 << 20, 6 << 20];
const PLAN_DELTA: f64 = 3.0;
/// Place over all 12 sessions into 3 groups of 4 at the LLC size.
const PLACE_GROUPS: u32 = 3;
const PLACE_CAPACITY: u32 = 4;
const PLACE_SIZE: u64 = 6 << 20;
const ZIPF_S: f64 = 0.99;
/// Share of the run spent at the nominal rate, split over
/// `NOMINAL_PHASES` phases on fresh daemons (the latency metrics are the
/// median of the phases' medians), after one more phase of the same
/// length that warms the process up (it touches the memory the later
/// phases reuse) and is checked but not measured.
const NOMINAL_SHARE: f64 = 0.5;
const NOMINAL_PHASES: u64 = 3;
/// Saturation bursts per run, each on a fresh daemon; the first warms
/// the process up and is not counted.
const BURSTS: u64 = 6;
/// Intended-latency p99 limit (µs) at the nominal rate. A nominal phase
/// whose sender lags by more than `LAG_SHARE` of it, or whose backlog
/// grows, is invalid and the run reports no latency; whether the phase's
/// p99 met the limit is recorded with it.
const P99_LIMIT_US: f64 = 100_000.0;
const LAG_SHARE: f64 = 0.25;
/// How long the reader waits for outstanding replies after the last
/// send before counting them unanswered.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Mrc,
    PcMrc,
    Plan,
    CoRun,
    Place,
    Submit,
    Churn,
}

/// The sessions: names, whole profiles (the preload) and submit batches.
struct Corpus {
    names: Vec<String>,
    chunks: Vec<Vec<SampleBatch>>,
    /// Each whole profile as one batch (the preload and churn submits).
    full: Vec<SampleBatch>,
    /// Up to 8 sampled load PCs per session (per-PC MRC targets).
    pcs: Vec<Vec<u32>>,
}

fn corpus() -> Corpus {
    let machine = repf_sim::amd_phenom_ii();
    let mut c = Corpus {
        names: Vec::new(),
        chunks: Vec::new(),
        full: Vec::new(),
        pcs: Vec::new(),
    };
    for (i, id) in BenchmarkId::all().into_iter().enumerate() {
        let mut w = build(
            id,
            &BuildOptions {
                refs_scale: CORPUS_SCALE,
                ..Default::default()
            },
        );
        let p = Sampler::new(SamplerConfig {
            sample_period: machine.profile_period,
            line_bytes: machine.hierarchy.l1.line_bytes,
            seed: 0x5e55_0000 ^ i as u64,
        })
        .profile(&mut w);
        let cut = |v: usize, k: usize| (v * k / CHUNKS, v * (k + 1) / CHUNKS);
        let chunks = (0..CHUNKS)
            .map(|k| {
                let (r0, r1) = cut(p.reuse.len(), k);
                let (d0, d1) = cut(p.dangling.len(), k);
                let (s0, s1) = cut(p.strides.len(), k);
                SampleBatch {
                    total_refs: p.total_refs / CHUNKS as u64,
                    sample_period: p.sample_period,
                    line_bytes: p.line_bytes,
                    reuse: p.reuse[r0..r1].to_vec(),
                    dangling: p.dangling[d0..d1].to_vec(),
                    strides: p.strides[s0..s1].to_vec(),
                }
            })
            .collect();
        c.names.push(format!("s{i:02}-{}", id.name()));
        c.pcs
            .push(p.sampled_load_pcs().iter().take(8).map(|pc| pc.0).collect());
        c.chunks.push(chunks);
        c.full.push(SampleBatch::from_profile(&p));
    }
    c
}

/// One scheduled operation.
struct Op {
    /// Scheduled send time from the phase start (µs).
    at_us: u64,
    class: Class,
    /// Session whose version a submit bumps (`usize::MAX`: none).
    session: usize,
    /// The encoded request frame (length prefix included).
    frame: Vec<u8>,
}

/// The store budget for a phase running `ops` (see [`Budget`]).
fn budget_bytes(spec: &Spec, c: &Corpus, ops: &[Op]) -> usize {
    let factor = match spec.budget {
        Budget::Fixed(b) => return b,
        Budget::HotTimes(f) => f,
    };
    // Each shard's hot set as the store itself charges it: the preloads
    // plus every hot submit of the phase, held by unbounded stores.
    let shard_of = ShardedSessionStore::new(1 << 20, SHARDS);
    let hot: Vec<ShardedSessionStore> = (0..SHARDS)
        .map(|_| ShardedSessionStore::new(usize::MAX, 1))
        .collect();
    let submits = ops
        .iter()
        .filter(|op| op.session != usize::MAX)
        .map(|op| match Request::decode(&op.frame[4..]) {
            Ok(Request::Submit { session, batch }) => (session, batch),
            other => panic!("a hot op is a submit, not {other:?}"),
        });
    let preload = c.names.iter().cloned().zip(c.full.iter().cloned());
    for (name, batch) in preload.chain(submits) {
        hot[shard_of.shard_of(&name)]
            .submit(&name, batch)
            .expect("hot batches are consistent");
    }
    let largest = hot.iter().map(|s| s.bytes()).max().unwrap_or(0);
    (largest as f64 * factor) as usize * SHARDS
}

/// The op schedule of one phase: a pure function of (workload, seed,
/// phase, rate, duration). Arrivals are evenly spaced; classes and
/// sessions are seeded draws.
fn schedule(spec: &Spec, c: &Corpus, seed: u64, phase: u64, rate: f64, secs: f64) -> Vec<Op> {
    // Session popularity is zipf over corpus order, the same for every
    // seed, so seeds vary the draws but not which session is hot.
    let n_sessions = c.names.len();

    let zipf = ZipfGen::new(n_sessions as u32, ZIPF_S);
    let mut rng = ReplayRng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ phase);
    let s = &spec.shares;
    let weights = [
        (Class::Mrc, s.mrc),
        (Class::PcMrc, s.pc_mrc),
        (Class::Plan, s.plan),
        (Class::CoRun, s.co_run),
        (Class::Submit, s.submit),
        (Class::Churn, s.churn),
    ];
    let total: f64 = weights.iter().map(|w| w.1).sum();
    let n = (rate * secs).round() as u64;
    // Place ops are few and long: a fixed number of them, evenly spaced,
    // so every phase of every seed holds the same count.
    let places = ((n as f64 * s.place / (total + s.place)).round() as u64).max(1);
    let place_at: Vec<u64> = (0..places)
        .map(|k| (2 * k + 1) * n / (2 * places))
        .collect();
    let is_place = |i: u64| place_at.binary_search(&i).is_ok();
    let mut churn_id = 0u64;
    (0..n)
        .map(|i| {
            let at_us = (i as f64 * 1e6 / rate) as u64;
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut acc = 0.0;
            let class = if is_place(i) {
                Class::Place
            } else {
                weights
                    .iter()
                    .find(|(_, w)| {
                        acc += w;
                        u < acc
                    })
                    .map_or(Class::Mrc, |w| w.0)
            };
            let session = zipf.draw(&mut rng) as usize;
            let target = Target::Session(c.names[session].clone());
            let req = match class {
                Class::Mrc => Request::QueryMrc {
                    target,
                    sizes_bytes: MRC_SIZES.to_vec(),
                },
                Class::PcMrc => Request::QueryPcMrc {
                    target,
                    pc: c.pcs[session][rng.below(c.pcs[session].len() as u64) as usize],
                    sizes_bytes: PC_SIZES.to_vec(),
                },
                Class::Plan => Request::QueryPlan {
                    target,
                    machine: MachineId::Amd,
                    delta: PLAN_DELTA,
                },
                Class::CoRun => {
                    let k = 2 + rng.below(3) as usize;
                    let mut members = vec![session];
                    while members.len() < k {
                        let m = zipf.draw(&mut rng) as usize;
                        if !members.contains(&m) {
                            members.push(m);
                        }
                    }
                    Request::CoRun {
                        sessions: members.iter().map(|&m| c.names[m].clone()).collect(),
                        sizes_bytes: CORUN_SIZES.to_vec(),
                        intensities: Vec::new(),
                    }
                }
                // Always all sessions in corpus order: the search's work
                // depends on the order, and it should not vary by seed.
                Class::Place => Request::Place {
                    sessions: c.names.clone(),
                    groups: PLACE_GROUPS,
                    capacity: PLACE_CAPACITY,
                    size_bytes: PLACE_SIZE,
                    intensities: Vec::new(),
                },
                Class::Submit => Request::Submit {
                    session: c.names[session].clone(),
                    batch: c.chunks[session][rng.below(CHUNKS as u64) as usize].clone(),
                },
                // A one-shot client uploading its whole profile once.
                Class::Churn => {
                    churn_id += 1;
                    Request::Submit {
                        session: format!("churn-{seed}-{phase}-{churn_id}"),
                        batch: c.full[session].clone(),
                    }
                }
            };
            Op {
                at_us,
                class,
                session: if class == Class::Submit {
                    session
                } else {
                    usize::MAX
                },
                frame: req.encode(),
            }
        })
        .collect()
}

/// The daemon's request handling for session targets, replayed in
/// process through the same public functions: the session store, the
/// StatStack model, `analyze_with_model`, `CoRunModel` and the placement
/// search. With an enabled [`Spans`] it records one span per layer call.
struct Engine {
    store: ShardedSessionStore,
    model_hits: u64,
    model_misses: u64,
}

impl Engine {
    fn new(budget: usize, c: &Corpus) -> Engine {
        let store = ShardedSessionStore::with_policy(budget, SHARDS, POLICY);
        for (name, b) in c.names.iter().zip(&c.full) {
            store
                .submit(name, b.clone())
                .expect("preload batch is consistent");
        }
        Engine {
            store,
            model_hits: 0,
            model_misses: 0,
        }
    }

    fn model(&mut self, sp: &mut Spans, op: u64, name: &str) -> Option<Arc<StatStackModel>> {
        let (model, hit) = sp.time("session.model", op, |_| self.store.model(name))?;
        if hit {
            self.model_hits += 1;
        } else {
            // The lookup refit the model: attribute it to the fit.
            sp.rename_last("session.model", "statstack.fit");
            self.model_misses += 1;
        }
        Some(model)
    }

    fn models(
        &mut self,
        sp: &mut Spans,
        op: u64,
        names: &[String],
    ) -> Option<Vec<Arc<StatStackModel>>> {
        names.iter().map(|n| self.model(sp, op, n)).collect()
    }

    fn execute(&mut self, sp: &mut Spans, op: u64, req: &Request) -> Response {
        let unknown = || Response::Error {
            code: repf_serve::ErrorCode::UnknownSession,
            message: "unknown session".into(),
        };
        match req {
            Request::Submit { session, batch } => {
                match sp.time("session.submit", op, |_| {
                    self.store.submit(session, batch.clone())
                }) {
                    Ok(o) => Response::Accepted {
                        store_bytes: o.store_bytes,
                        evicted: o.evicted,
                    },
                    Err(_) => Response::Error {
                        code: repf_serve::ErrorCode::InconsistentBatch,
                        message: "inconsistent batch".into(),
                    },
                }
            }
            Request::QueryMrc {
                target: Target::Session(name),
                sizes_bytes,
            } => match self.model(sp, op, name) {
                Some(m) => sp.time("statstack.eval", op, |_| Response::Mrc {
                    ratios: sizes_bytes.iter().map(|&b| m.miss_ratio_bytes(b)).collect(),
                }),
                None => unknown(),
            },
            Request::QueryPcMrc {
                target: Target::Session(name),
                pc,
                sizes_bytes,
            } => match self.model(sp, op, name) {
                Some(m) => sp.time("statstack.eval", op, |_| Response::PcMrc {
                    ratios: m
                        .pc_mrc_bytes(Pc(*pc), sizes_bytes)
                        .map(|curve| curve.ratios().to_vec()),
                }),
                None => unknown(),
            },
            Request::QueryPlan {
                target: Target::Session(name),
                machine,
                delta,
            } => {
                let Some(model) = self.model(sp, op, name) else {
                    return unknown();
                };
                let cfg = match machine {
                    MachineId::Amd => repf_sim::amd_phenom_ii(),
                    MachineId::Intel => repf_sim::intel_i7_2600k(),
                }
                .analysis_config(*delta);
                let store = &self.store;
                sp.time("core.analyze", op, |_| {
                    store.with_profile(name, |p| analyze_with_model(p, &model, &cfg))
                })
                .map_or_else(unknown, |a| {
                    Response::Plan(PlanWire::from_plan(&a.plan, *delta))
                })
            }
            Request::CoRun {
                sessions,
                sizes_bytes,
                ..
            } => {
                let Some(models) = self.models(sp, op, sessions) else {
                    return unknown();
                };
                let answer = sp.time("statstack.corun", op, |_| {
                    let mut co = CoRunModel::new();
                    for m in &models {
                        co.push(m);
                    }
                    co.answer_bytes(sizes_bytes)
                });
                Response::CoRun {
                    per_session: sessions.iter().cloned().zip(answer.per_member).collect(),
                    throughput: answer.throughput,
                }
            }
            Request::Place {
                sessions,
                groups,
                capacity,
                size_bytes,
                ..
            } => {
                let Some(models) = self.models(sp, op, sessions) else {
                    return unknown();
                };
                let refs: Vec<&StatStackModel> = models.iter().map(|m| m.as_ref()).collect();
                let weights: Vec<f64> = refs.iter().map(|m| m.sample_count() as f64).collect();
                // The daemon searches on all cores; the answer does not
                // depend on the thread count.
                let r = sp.time("statstack.placement", op, |_| {
                    repf_statstack::placement::place(
                        &refs,
                        &weights,
                        *groups,
                        *capacity,
                        *size_bytes,
                        repf_sim::Exec::from_env().threads(),
                    )
                });
                Response::Placement {
                    groups: r
                        .groups
                        .iter()
                        .map(|g| g.iter().map(|&i| sessions[i].clone()).collect())
                        .collect(),
                    total_miss_ratio: r.total_miss_ratio,
                    throughput: r.throughput,
                    nodes_explored: r.nodes_explored,
                    pruned: r.pruned,
                }
            }
            _ => Response::Error {
                code: repf_serve::ErrorCode::Unsupported,
                message: "not part of the workload".into(),
            },
        }
    }

    /// One op end to end in process: decode and re-encode the request,
    /// execute it, encode the reply and decode it as a client would.
    /// Returns the reply body (no length prefix).
    fn replay(&mut self, sp: &mut Spans, op: u64, frame: &[u8]) -> Vec<u8> {
        sp.time("op", op, |sp| {
            let req = sp
                .time("proto.decode", op, |_| Request::decode(&frame[4..]))
                .expect("scheduled frames decode");
            let again = sp.time("proto.encode", op, |_| req.encode());
            debug_assert_eq!(again, frame);
            let resp = self.execute(sp, op, &req);
            let bytes = sp.time("proto.encode", op, |_| resp.encode());
            let back = sp
                .time("proto.decode", op, |_| Response::decode(&bytes[4..]))
                .expect("replies decode");
            debug_assert_eq!(back, resp);
            bytes[4..].to_vec()
        })
    }
}

/// Expected reply bodies for every distinct request of a read-only
/// workload, computed before the phase that sends them by
/// `repf_serve::Oracle` (no daemon, no model cache, no sharding) from
/// the same preloaded profiles.
struct Expected {
    oracle: repf_serve::Oracle,
    replies: HashMap<Vec<u8>, Vec<u8>>,
}

impl Expected {
    fn new(c: &Corpus) -> Expected {
        let mut oracle = repf_serve::Oracle::new();
        for (name, b) in c.names.iter().zip(&c.full) {
            oracle.expected(&Request::Submit {
                session: name.clone(),
                batch: b.clone(),
            });
        }
        Expected {
            oracle,
            replies: HashMap::new(),
        }
    }

    fn cover(&mut self, ops: &[Op]) {
        for op in ops {
            if !self.replies.contains_key(&op.frame) {
                let req = Request::decode(&op.frame[4..]).expect("scheduled frames decode");
                let want = self
                    .oracle
                    .expected(&req)
                    .expect("the oracle answers every read");
                self.replies
                    .insert(op.frame.clone(), want.encode()[4..].to_vec());
            }
        }
    }
}

/// The reply kind each op class must get.
fn right_kind(class: Class, body: &[u8]) -> bool {
    matches!(
        (class, Response::decode(body)),
        (Class::Submit | Class::Churn, Ok(Response::Accepted { .. }))
            | (Class::Mrc, Ok(Response::Mrc { .. }))
            | (Class::PcMrc, Ok(Response::PcMrc { .. }))
            | (Class::Plan, Ok(Response::Plan(_)))
            | (Class::CoRun, Ok(Response::CoRun { .. }))
            | (Class::Place, Ok(Response::Placement { .. }))
    )
}

/// What the load generator saw for one phase.
struct Drive {
    /// Completion time of each op from the phase start (ns);
    /// `u64::MAX` when unanswered.
    done_ns: Vec<u64>,
    /// Whether each op's reply passed its check.
    ok: Vec<bool>,
    /// Sender lateness per op (µs).
    lag_us: Vec<f64>,
    /// Seconds from the first to the last send.
    send_span_s: f64,
}

/// Drive `ops` open loop against `addr` over `conns` connections.
/// Submits for one session always go down the same connection, so their
/// replies arrive in submission order.
fn drive(
    addr: std::net::SocketAddr,
    ops: &[Op],
    conns: usize,
    check: &(dyn Fn(usize, &[u8]) -> bool + Sync),
) -> Drive {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect to the daemon");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            s
        })
        .collect();
    let pending: Vec<Mutex<VecDeque<usize>>> =
        (0..conns).map(|_| Mutex::new(VecDeque::new())).collect();
    let sent = AtomicU64::new(0);
    let sending_done = AtomicBool::new(false);
    let conn_of = |i: usize| -> usize {
        let op = &ops[i];
        if op.session != usize::MAX {
            op.session % conns
        } else {
            i % conns
        }
    };
    let mut readers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().expect("clone socket"))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(5);

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let poller = Poller::new().expect("epoll");
            for (k, r) in readers.iter().enumerate() {
                poller
                    .add(r.as_raw_fd(), EPOLLIN, k as u64)
                    .expect("register socket");
            }
            let mut acc: Vec<FrameAccumulator> =
                (0..conns).map(|_| FrameAccumulator::new()).collect();
            let mut alive = vec![true; conns];
            let mut done_ns = vec![u64::MAX; ops.len()];
            let mut ok = vec![false; ops.len()];
            let mut received = 0u64;
            let mut events = vec![EpollEvent { events: 0, data: 0 }; 16];
            let mut buf = vec![0u8; 1 << 16];
            let mut last_progress = Instant::now();
            loop {
                if sending_done.load(Ordering::SeqCst) {
                    if received == sent.load(Ordering::SeqCst)
                        || last_progress.elapsed() > DRAIN_TIMEOUT
                    {
                        break;
                    }
                    if !alive.iter().any(|&a| a) {
                        break;
                    }
                }
                let n = poller.wait(&mut events, 20).expect("epoll wait");
                for ev in &events[..n] {
                    let k = ev.data as usize;
                    if !alive[k] {
                        continue;
                    }
                    // Level-triggered readiness: this read does not block.
                    let got = match readers[k].read(&mut buf) {
                        Ok(0) | Err(_) => {
                            alive[k] = false;
                            let _ = poller.del(readers[k].as_raw_fd());
                            continue;
                        }
                        Ok(got) => got,
                    };
                    let now = t0.elapsed().as_nanos() as u64;
                    acc[k].push(&buf[..got]);
                    while let Ok(Some(body)) = acc[k].next_frame() {
                        let Some(i) = pending[k].lock().expect("pending queue").pop_front() else {
                            alive[k] = false;
                            break;
                        };
                        done_ns[i] = now;
                        ok[i] = check(i, &body);
                        received += 1;
                        last_progress = Instant::now();
                    }
                }
            }
            (done_ns, ok)
        });

        let mut writers = streams;
        let mut lag_us = Vec::with_capacity(ops.len());
        let mut first_send = None;
        let mut last_send = t0;
        for (i, op) in ops.iter().enumerate() {
            let due = t0 + Duration::from_micros(op.at_us);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let k = conn_of(i);
            pending[k].lock().expect("pending queue").push_back(i);
            let at = Instant::now();
            lag_us.push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
            first_send.get_or_insert(at);
            last_send = at;
            sent.fetch_add(1, Ordering::SeqCst);
            if writers[k].write_all(&op.frame).is_err() {
                // The reply for this op will never come; the reader
                // counts it unanswered at the drain timeout.
                continue;
            }
        }
        sending_done.store(true, Ordering::SeqCst);
        let (done_ns, ok) = reader.join().expect("reader thread");
        for w in &writers {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        Drive {
            done_ns,
            ok,
            lag_us,
            send_span_s: first_send.map_or(0.0, |f| (last_send - f).as_secs_f64()),
        }
    })
}

/// A fresh daemon with the workload's sessions preloaded and warmed.
struct Daemon {
    handle: repf_serve::ServerHandle,
    client: Client,
}

fn start_daemon(budget: usize, c: &Corpus) -> Daemon {
    let handle = repf_serve::start(ServeConfig {
        threads: nproc(),
        session_budget_bytes: budget,
        shards: SHARDS,
        store_policy: Some(POLICY),
        ..ServeConfig::default()
    })
    .expect("start the daemon");
    let mut client = Client::connect(handle.addr()).expect("connect to the daemon");
    for (name, b) in c.names.iter().zip(&c.full) {
        match client.call(&Request::Submit {
            session: name.clone(),
            batch: b.clone(),
        }) {
            Ok(Response::Accepted { .. }) => {}
            other => panic!("preload of {name} failed: {other:?}"),
        }
    }
    // Warm-up: fit every session and exercise the plan path once.
    for name in &c.names {
        let target = Target::Session(name.clone());
        for req in [
            Request::QueryMrc {
                target: target.clone(),
                sizes_bytes: MRC_SIZES.to_vec(),
            },
            Request::QueryPlan {
                target,
                machine: MachineId::Amd,
                delta: PLAN_DELTA,
            },
        ] {
            match client.call(&req) {
                Ok(Response::Mrc { .. } | Response::Plan(_)) => {}
                other => panic!("warm-up of {name} failed: {other:?}"),
            }
        }
    }
    Daemon { handle, client }
}

fn stats_map(client: &mut Client) -> HashMap<String, f64> {
    client.stats().expect("stats").into_iter().collect()
}

/// Latency figures of one driven phase.
struct PhaseReport {
    ops: usize,
    failed: usize,
    latency_us: Vec<f64>,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    /// Seconds from the phase start to the last reply.
    last_done_s: f64,
    lag_p99_us: f64,
    achieved_ops_per_s: f64,
    backlog_grew: bool,
    valid: bool,
    per_class_p50_us: Vec<(Class, f64)>,
}

fn report(ops: &[Op], d: &Drive) -> PhaseReport {
    let failed = d.ok.iter().filter(|&&ok| !ok).count();
    // Failed and unanswered ops count as missing any limit.
    let latency_us: Vec<f64> = ops
        .iter()
        .zip(d.done_ns.iter().zip(&d.ok))
        .map(|(op, (&done, &ok))| {
            if ok && done != u64::MAX {
                (done as f64 / 1e3 - op.at_us as f64).max(0.0)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let class_p50 = |c: Class| {
        let v: Vec<f64> = ops
            .iter()
            .zip(&latency_us)
            .filter(|(op, _)| op.class == c)
            .map(|(_, &l)| l)
            .collect();
        median(&v)
    };
    let quarter = ops.len() / 4;
    let backlog_grew = quarter > 0 && {
        let first = median(&latency_us[..quarter]);
        let last = median(&latency_us[ops.len() - quarter..]);
        last > 2.0 * first + 1000.0
    };
    let p99_us = quantile(&latency_us, 0.99);
    let lag_p99_us = quantile(&d.lag_us, 0.99);
    let valid = lag_p99_us <= LAG_SHARE * P99_LIMIT_US && !backlog_grew;
    let classes = [
        Class::Mrc,
        Class::PcMrc,
        Class::Plan,
        Class::CoRun,
        Class::Place,
        Class::Submit,
        Class::Churn,
    ];
    PhaseReport {
        ops: ops.len(),
        failed,
        p50_us: median(&latency_us),
        p90_us: quantile(&latency_us, 0.9),
        p99_us,
        last_done_s: d
            .done_ns
            .iter()
            .filter(|&&t| t != u64::MAX)
            .max()
            .map_or(0.0, |&t| t as f64 / 1e9),
        lag_p99_us,
        achieved_ops_per_s: ops.len().saturating_sub(1) as f64 / d.send_span_s.max(1e-9),
        backlog_grew,
        valid,
        per_class_p50_us: classes
            .iter()
            .filter(|&&c| ops.iter().any(|o| o.class == c))
            .map(|&c| (c, class_p50(c)))
            .collect(),
        latency_us,
    }
}

/// Check every hot session's version: it must equal one (the preload)
/// plus the submits the daemon accepted for it, so it never went back.
fn check_versions(out: &mut Outcome, client: &mut Client, c: &Corpus, ops: &[Op], d: &Drive) {
    let mut expected = vec![1u64; c.names.len()];
    for (op, &ok) in ops.iter().zip(&d.ok) {
        if op.session != usize::MAX && ok {
            expected[op.session] += 1;
        }
    }
    for (name, &want) in c.names.iter().zip(&expected) {
        let got = client.call(&Request::ModelPullCurrent {
            session: name.clone(),
            cached_version: want,
        });
        out.check(
            matches!(got, Ok(Response::ModelEntry { version, model: None }) if version == want),
            || format!("{name}: version {want} expected, got {got:?}"),
        );
    }
}

struct Phase {
    ops: Vec<Op>,
    report: PhaseReport,
    setup_s: f64,
    stats_before: HashMap<String, f64>,
    stats_after: HashMap<String, f64>,
}

/// Start a daemon, drive one phase, sample its `Stats` around the
/// phase, run the write workload's version checks, and shut it down.
fn run_phase(
    spec: &Spec,
    c: &Corpus,
    ops: Vec<Op>,
    oracle: Option<&Expected>,
    versions: Option<&mut Outcome>,
) -> Phase {
    let budget = budget_bytes(spec, c, &ops);
    let t = Instant::now();
    let mut daemon = start_daemon(budget, c);
    let setup_s = t.elapsed().as_secs_f64();
    let stats_before = stats_map(&mut daemon.client);
    let shown = AtomicU64::new(0);
    let check = |i: usize, body: &[u8]| {
        let ok = match oracle {
            Some(o) => o
                .replies
                .get(&ops[i].frame)
                .is_some_and(|want| want == body),
            None => right_kind(ops[i].class, body),
        };
        if !ok && shown.fetch_add(1, Ordering::Relaxed) < 3 {
            eprintln!(
                "perfbench: op {i} ({:?}) failed its check; reply {:?}",
                ops[i].class,
                Response::decode(body)
            );
        }
        ok
    };
    let drive = drive(daemon.handle.addr(), &ops, nproc().min(4), &check);
    let stats_after = stats_map(&mut daemon.client);
    if let Some(out) = versions {
        check_versions(out, &mut daemon.client, c, &ops, &drive);
    }
    drop(daemon.client);
    daemon.handle.shutdown();
    let report = report(&ops, &drive);
    Phase {
        ops,
        report,
        setup_s,
        stats_before,
        stats_after,
    }
}

fn delta(p: &Phase, key: &str) -> f64 {
    p.stats_after.get(key).copied().unwrap_or(0.0) - p.stats_before.get(key).copied().unwrap_or(0.0)
}

/// The daemon's latency histogram labels (it folds per-PC MRC into `mrc`).
const HANDLER_CLASSES: [&str; 5] = ["mrc", "plan", "corun", "placement", "submit"];

/// Daemon handler time (µs) spent on histogram label `k` during the phase.
fn handler_us(p: &Phase, k: &str) -> f64 {
    let sum = |s: &HashMap<String, f64>| {
        s.get(&format!("latency.{k}.mean_us"))
            .copied()
            .unwrap_or(0.0)
            * s.get(&format!("latency.{k}.count")).copied().unwrap_or(0.0)
    };
    sum(&p.stats_after) - sum(&p.stats_before)
}

fn class_name(c: Class) -> &'static str {
    match c {
        Class::Mrc => "mrc",
        Class::PcMrc => "pcmrc",
        Class::Plan => "plan",
        Class::CoRun => "corun",
        Class::Place => "placement",
        Class::Submit => "submit",
        Class::Churn => "churn",
    }
}

fn phase_json(p: &Phase) -> Json {
    let r = &p.report;
    let handler_total_us: f64 = HANDLER_CLASSES.iter().map(|k| handler_us(p, k)).sum();
    Json::Obj(
        [
            ("ops", r.ops as f64),
            ("failed", r.failed as f64),
            ("p50_us", r.p50_us),
            ("p90_us", r.p90_us),
            ("p99_us", r.p99_us),
            ("last_done_s", r.last_done_s),
            ("lag_p99_us", r.lag_p99_us),
            ("achieved_ops_per_s", r.achieved_ops_per_s),
            ("setup_s", p.setup_s),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Num(v)))
        .chain([
            ("valid".to_string(), Json::Bool(r.valid)),
            (
                "meets_p99_limit".to_string(),
                Json::Bool(r.p99_us <= P99_LIMIT_US),
            ),
            ("backlog_grew".to_string(), Json::Bool(r.backlog_grew)),
            (
                "class_p50_us".to_string(),
                Json::Obj(
                    r.per_class_p50_us
                        .iter()
                        .map(|&(c, v)| (class_name(c).to_string(), Json::Num(v)))
                        .collect(),
                ),
            ),
            (
                "handler_share".to_string(),
                Json::Obj(
                    HANDLER_CLASSES
                        .iter()
                        .map(|&k| {
                            let share = handler_us(p, k) / handler_total_us.max(1e-9);
                            (k.to_string(), Json::Num(share))
                        })
                        .collect(),
                ),
            ),
        ])
        .collect(),
    )
}

pub fn run(args: &Args, spec: &Spec) -> Outcome {
    let mut out = Outcome {
        valid: true,
        ..Default::default()
    };
    let c = corpus();
    let read_only = spec.shares.submit + spec.shares.churn == 0.0;
    let nominal_secs = args.seconds * NOMINAL_SHARE / NOMINAL_PHASES as f64;
    let mut oracle = read_only.then(|| Expected::new(&c));
    let mut checks = Outcome::default();
    let mut nominal = Vec::new();
    // Phase 0 warms the process up (threads, allocator, page cache) and
    // is checked but not measured.
    for k in 0..=NOMINAL_PHASES {
        let ops = schedule(spec, &c, args.seed, k, spec.nominal_rate, nominal_secs);
        if let Some(o) = &mut oracle {
            o.cover(&ops);
        }
        let p = run_phase(
            spec,
            &c,
            ops,
            oracle.as_ref(),
            (!read_only).then_some(&mut checks),
        );
        out.attempted += p.report.ops as u64;
        out.failed += p.report.failed as u64;
        let r = &p.report;
        if k > 0 && !r.valid {
            out.valid = false;
            eprintln!(
                "perfbench: nominal phase {k} invalid (send lag p99 {:.0} us, backlog grew: {}); \
                 no latency is reported",
                r.lag_p99_us, r.backlog_grew
            );
        }
        if k > 0 {
            nominal.push(p);
        }
        if args.trace && k > 0 {
            // The traced run replays one nominal phase.
            break;
        }
    }
    out.info(
        "nominal",
        Json::Arr(nominal.iter().map(phase_json).collect()),
    );
    // Memory is read after the nominal phases, before the bursts' larger
    // schedules are built.
    let rss = peak_rss_mb();

    if args.trace {
        out.attempted += checks.attempted;
        out.failed += checks.failed;
        let first = nominal.swap_remove(0);
        return run_traced(args, spec, &c, first, out);
    }

    // Saturation bursts: a fixed number of ops all due at once, on a
    // fresh daemon each; `wall_s` is the time to answer them all.
    let mut setups: Vec<f64> = nominal.iter().map(|p| p.setup_s).collect();
    let mut walls = Vec::new();
    let mut bursts = Vec::new();
    for k in 0..BURSTS {
        let mut ops = schedule(spec, &c, args.seed, 100 + k, spec.burst_ops as f64, 1.0);
        for op in &mut ops {
            op.at_us = 0;
        }
        if let Some(o) = &mut oracle {
            o.cover(&ops);
        }
        let p = run_phase(
            spec,
            &c,
            ops,
            oracle.as_ref(),
            (!read_only).then_some(&mut checks),
        );
        out.attempted += p.report.ops as u64;
        out.failed += p.report.failed as u64;
        setups.push(p.setup_s);
        if k > 0 {
            walls.push(p.report.last_done_s);
        }
        bursts.push(phase_json(&p));
    }
    out.attempted += checks.attempted;
    out.failed += checks.failed;
    out.info("bursts", Json::Arr(bursts));

    out.metric("setup_s", median(&setups), "s");
    out.metric("wall_s", median(&walls), "s");
    if out.valid {
        // Median over the nominal phases of each phase's median, so one
        // phase disturbed by the host does not move the result.
        let per_phase = |class: Option<Class>| {
            let v: Vec<f64> = nominal
                .iter()
                .map(|p| {
                    let l: Vec<f64> = p
                        .ops
                        .iter()
                        .zip(&p.report.latency_us)
                        .filter(|(op, _)| class.is_none_or(|c| op.class == c))
                        .map(|(_, &l)| l)
                        .collect();
                    median(&l)
                })
                .collect();
            median(&v)
        };
        out.metric("latency_p50_us", per_phase(None), "us");
        out.metric("plan_p50_us", per_phase(Some(Class::Plan)), "us");
        out.metric("place_p50_us", per_phase(Some(Class::Place)), "us");
    }
    out.metric(
        "success_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric("peak_rss_mb", rss, "MiB");
    out.info(
        "error_rate",
        Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    out.info(
        "setup_s.all",
        Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
    );
    out.info(
        "wall_s.all",
        Json::Arr(walls.iter().map(|&s| Json::Num(s)).collect()),
    );
    out
}

fn run_traced(args: &Args, spec: &Spec, c: &Corpus, nominal: Phase, mut out: Outcome) -> Outcome {
    // In-process replay of the nominal phase's ops: untraced twice (the
    // first warms the process up; the second is the overhead baseline),
    // then once with spans.
    let budget = budget_bytes(spec, c, &nominal.ops);
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let mut engine = Engine::new(budget, c);
        let mut off = Spans::disabled();
        let t = Instant::now();
        for (i, op) in nominal.ops.iter().enumerate() {
            engine.replay(&mut off, i as u64, &op.frame);
        }
        untraced_s = t.elapsed().as_secs_f64();
    }

    let mut engine = Engine::new(budget, c);
    let mut sp = Spans::new();
    let t = Instant::now();
    for (i, op) in nominal.ops.iter().enumerate() {
        let reply = engine.replay(&mut sp, i as u64, &op.frame);
        out.check(right_kind(op.class, &reply), || {
            format!(
                "in-process op {i} ({:?}) got the right reply kind",
                op.class
            )
        });
    }
    let traced_s = t.elapsed().as_secs_f64();
    sp.write(&format!("{}-seed{}-spans.json", spec.name, args.seed));

    let totals = sp.totals();
    let layer = |n: &str| totals.get(n).copied().unwrap_or_default();
    let attributed: f64 = totals
        .iter()
        .filter(|(n, _)| **n != "op")
        .map(|(_, t)| t.self_s)
        .sum();
    let p = &nominal;
    let r = &p.report;
    let flushes = delta(p, "io.batch.flushes");
    let handler_total_us: f64 = HANDLER_CLASSES.iter().map(|k| handler_us(p, k)).sum();
    let client_us: f64 = r.latency_us.iter().filter(|l| l.is_finite()).sum();
    let hits = delta(p, "model_cache.hits");
    let misses = delta(p, "model_cache.misses");

    out.metric(
        "statstack.fit.calls",
        layer("statstack.fit").calls as f64,
        "count",
    );
    out.metric("statstack.fit.busy_s", layer("statstack.fit").self_s, "s");
    out.metric("statstack.eval.busy_s", layer("statstack.eval").self_s, "s");
    out.metric(
        "core.analyze.calls",
        layer("core.analyze").calls as f64,
        "count",
    );
    out.metric("core.analyze.busy_s", layer("core.analyze").self_s, "s");
    out.metric(
        "statstack.placement.busy_s",
        layer("statstack.placement").self_s,
        "s",
    );
    out.metric(
        "statstack.corun.busy_s",
        layer("statstack.corun").self_s,
        "s",
    );
    out.metric(
        "placement.nodes_explored",
        delta(p, "placement.nodes_explored"),
        "count",
    );
    out.metric("placement.pruned", delta(p, "placement.pruned"), "count");
    out.metric("proto.decode.busy_s", layer("proto.decode").self_s, "s");
    out.metric("proto.encode.busy_s", layer("proto.encode").self_s, "s");
    out.metric("session.submit.busy_s", layer("session.submit").self_s, "s");
    out.metric("session.model.busy_s", layer("session.model").self_s, "s");
    out.metric(
        "session.model_cache.hit_ratio",
        engine.model_hits as f64 / (engine.model_hits + engine.model_misses).max(1) as f64,
        "ratio",
    );
    out.metric("session.evictions", delta(p, "sessions.evictions"), "count");
    out.metric(
        "session.admission_rejected",
        delta(p, "store.admission.rejected"),
        "count",
    );
    out.metric(
        "serve.io.frames_per_flush",
        delta(p, "io.batch.flush_frames") / flushes.max(1.0),
        "ratio",
    );
    out.metric("serve.busy", delta(p, "busy"), "count");
    out.metric(
        "serve.model_cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    for k in HANDLER_CLASSES {
        out.metric(
            &format!("serve.handler.{k}.p50_us"),
            p.stats_after
                .get(&format!("latency.{k}.p50_us"))
                .copied()
                .unwrap_or(0.0),
            "us",
        );
    }
    out.metric(
        "serve.unattributed_frac",
        1.0 - handler_total_us / client_us.max(1e-9),
        "ratio",
    );
    out.metric("gen.send_lag_p99_us", r.lag_p99_us, "us");
    out.metric("gen.achieved_ops_per_s", r.achieved_ops_per_s, "1/s");
    out.metric("traced.wall_s", traced_s, "s");
    out.metric("traced.overhead_s", traced_s - untraced_s, "s");
    out.metric("unattributed_frac", 1.0 - attributed / traced_s, "ratio");

    out.info("client.p50_us", Json::Num(r.p50_us));
    out.info("client.p99_us", Json::Num(r.p99_us));
    out.info("untraced_replay_s", Json::Num(untraced_s));
    out
}
