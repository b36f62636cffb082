//! The `paper` workload: the paper's pipeline on one Table II machine.
//!
//! Every one of the 12 workload analogs goes through profile → fit →
//! analyze → solo simulation under Baseline, Hardware, SoftwareNt and
//! StrideCentric; then a seeded set of 4-app mixes runs under Baseline,
//! Hardware and SoftwareNt, and the placement engine packs the 12 fitted
//! models into 3 cache-sharing groups of 4. The untraced pass calls the
//! library's top-level entry points (`PlanCache`/`prepare`,
//! `run_policy`, `run_mix`, `placement::place`); the traced pass makes
//! the same calls one layer down (workload build → `Sampler::profile` →
//! `StatStackModel::from_profile` → `analyze_with_model` →
//! `Sim::run_solo`/`Sim::run_mix`) with a span around each, and checks
//! that it reproduces the untraced pass bit for bit.

use crate::span::Spans;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::{Args, Outcome};
use repf_core::{analyze_with_model, stride_centric_plan, PrefetchDirective, PrefetchPlan};
use repf_metrics::json::Json;
use repf_sampling::{Sampler, SamplerConfig};
use repf_sim::{
    amd_phenom_ii, run_mix, run_policy, CoreSetup, MachineConfig, MixOutcome, MixSpec, PlanCache,
    Policy, Sim, SoloOutcome,
};
use repf_statstack::placement::{place, PlacementResult};
use repf_statstack::StatStackModel;
use repf_trace::rng::XorShift64Star;
use repf_trace::source::Recorded;
use repf_trace::{Pc, TraceSourceExt};
use repf_workloads::{build, BenchmarkId, BuildOptions, InputSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Run length of every solo and mix simulation (`BuildOptions::refs_scale`).
const SCALE: f64 = 0.025;
/// Seeded draws of the mix set; each yields 3 mixes of 4, so every
/// analog runs in exactly this many mixes.
const MIX_SHUFFLES: usize = 2;
/// The pool in four tiers of three by Baseline solo cycles on this
/// machine at [`SCALE`], slowest first (cigar 2.42 M cycles, lbm 0.48 M).
/// A mix runs until its slowest app completes while the others keep
/// running, so its cost follows its slowest member; every mix takes one
/// analog from each tier. Over seeds 1–12 the references simulated by
/// the mix set then varied by 6 %, against 38 % when the mixes were
/// free shuffles of the pool.
const MIX_TIERS: [[BenchmarkId; 3]; 4] = {
    use BenchmarkId::*;
    [
        [Cigar, Omnetpp, Mcf],
        [Xalan, Libquantum, GemsFdtd],
        [Astar, Soplex, Gcc],
        [Milc, Leslie3d, Lbm],
    ]
};
/// Solo policies besides Baseline (which `prepare` already runs).
const SOLO_POLICIES: [Policy; 3] = [Policy::Hardware, Policy::SoftwareNt, Policy::StrideCentric];
const MIX_POLICIES: [Policy; 3] = [Policy::Baseline, Policy::Hardware, Policy::SoftwareNt];
/// Placement shape over the 12 fitted analog models.
const PLACE_GROUPS: u32 = 3;
const PLACE_CAPACITY: u32 = 4;
/// Set-ups before each pass (the reported set-up time is the median of
/// all set-ups of the run, so they are spread over the run like the
/// passes).
const SETUPS_PER_PASS: usize = 3;
/// Placement searches per pass (the same search; `place_p50_us` is the
/// median of all of them).
const PLACES_PER_PASS: usize = 5;
/// Pass streams run side by side, one per CPU up to this many. On a
/// shared 2-vCPU host the two CPUs slowed down at different moments
/// (two concurrent streams' 10-second medians correlated at 0.2), so
/// pooling both streams' passes halves that share of the run-to-run
/// spread; the streams share no state.
const STREAMS: usize = 2;

fn opts() -> BuildOptions {
    BuildOptions {
        refs_scale: SCALE,
        ..Default::default()
    }
}

fn mix_opts(slot: usize) -> BuildOptions {
    BuildOptions {
        input: InputSet::Ref,
        // Same disjoint per-core address spaces as `repf_sim::run_mix`.
        addr_offset: ((slot + 1) as u64) << 45,
        refs_scale: SCALE,
    }
}

/// The seeded mix set: each draw shuffles every tier of [`MIX_TIERS`]
/// and deals mix `m` the `m`-th analog of each tier.
pub fn mixes(seed: u64) -> Vec<MixSpec> {
    let mut rng = XorShift64Star::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::new();
    for _ in 0..MIX_SHUFFLES {
        let mut tiers = MIX_TIERS;
        for tier in &mut tiers {
            for i in (1..tier.len()).rev() {
                tier.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        for m in 0..3 {
            out.push(MixSpec {
                apps: [tiers[0][m], tiers[1][m], tiers[2][m], tiers[3][m]],
            });
        }
    }
    out
}

/// Inputs of one pass, built during set-up.
struct Inputs {
    mixes: Vec<MixSpec>,
    /// Nominal run length of each analog (index = pool position).
    nominal_refs: Vec<u64>,
}

/// Set-up: choose the mixes and construct every workload generator the
/// pass uses (profiling window, nominal run, each mix slot), checking
/// each yields its first reference.
fn set_up(seed: u64) -> Inputs {
    let mixes = mixes(seed);
    let window = BuildOptions {
        refs_scale: SCALE * repf_sim::solo::PROFILE_WINDOW,
        ..Default::default()
    };
    let mut nominal_refs = Vec::new();
    for id in BenchmarkId::all() {
        let mut w = build(id, &window);
        assert!(
            w.collect_refs(1).len() == 1,
            "{} yields references",
            id.name()
        );
        let mut w = build(id, &opts());
        assert!(
            w.collect_refs(1).len() == 1,
            "{} yields references",
            id.name()
        );
        nominal_refs.push(w.nominal_refs);
    }
    for spec in &mixes {
        for (slot, &id) in spec.apps.iter().enumerate() {
            let mut w = build(id, &mix_opts(slot));
            assert!(
                w.collect_refs(1).len() == 1,
                "{} yields references",
                id.name()
            );
        }
    }
    Inputs {
        mixes,
        nominal_refs,
    }
}

/// One analog's solo results.
struct SoloResult {
    id: BenchmarkId,
    baseline: SoloOutcome,
    /// Outcomes under [`SOLO_POLICIES`], in order.
    runs: Vec<SoloOutcome>,
    plan_nt: Vec<(Pc, PrefetchDirective)>,
    stride_centric: Vec<(Pc, PrefetchDirective)>,
    delta: f64,
    /// Loads kept by MDDLI, and loads it considered.
    kept: usize,
    considered: usize,
}

/// Everything one pass produced.
struct Pass {
    solo: Vec<SoloResult>,
    /// Per mix, outcomes under [`MIX_POLICIES`], in order.
    mixes: Vec<Vec<MixOutcome>>,
    place: PlacementResult,
    wall_s: f64,
    /// Host time per solo cell: one analog through `prepare` and its
    /// three further solo policies.
    cell_s: Vec<f64>,
    /// Host time of `prepare` per analog (time to a plan).
    plan_s: Vec<f64>,
    /// Host time of each placement search.
    place_s: Vec<f64>,
}

fn sorted_plan(p: &PrefetchPlan) -> Vec<(Pc, PrefetchDirective)> {
    p.iter_sorted().map(|(pc, d)| (pc, *d)).collect()
}

fn placement(models: &[&StatStackModel], machine: &MachineConfig) -> PlacementResult {
    let weights: Vec<f64> = models.iter().map(|m| m.sample_count() as f64).collect();
    // One thread: on a shared 2-CPU host the parallel search's time
    // depended on whether the second CPU was free, and moved by half
    // between sets of runs while every serial timing held.
    place(
        models,
        &weights,
        PLACE_GROUPS,
        PLACE_CAPACITY,
        machine.hierarchy.llc.size_bytes,
        1,
    )
}

/// The untraced pass, through the library's top-level entry points.
fn untraced_pass(machine: &MachineConfig, inputs: &Inputs) -> Pass {
    let t0 = Instant::now();
    let opts = opts();
    let cache = PlanCache::lazy(machine, &opts);
    let mut solo = Vec::new();
    let mut cell_s = Vec::new();
    let mut plan_s = Vec::new();
    for id in BenchmarkId::all() {
        let c0 = Instant::now();
        let plans = cache.get(id);
        plan_s.push(c0.elapsed().as_secs_f64());
        let runs = SOLO_POLICIES
            .iter()
            .map(|&p| run_policy(id, machine, plans, p, &opts))
            .collect();
        cell_s.push(c0.elapsed().as_secs_f64());
        solo.push(SoloResult {
            id,
            baseline: plans.baseline.clone(),
            runs,
            plan_nt: sorted_plan(&plans.plan_nt),
            stride_centric: sorted_plan(&plans.stride_centric),
            delta: plans.delta,
            kept: plans.analysis.delinquent.len(),
            considered: plans.profile.sampled_load_pcs().len(),
        });
    }
    let models: Vec<&StatStackModel> = BenchmarkId::all()
        .iter()
        .map(|&id| cache.model(id))
        .collect();
    let mut place_s = Vec::new();
    let mut place = None;
    for _ in 0..PLACES_PER_PASS {
        let p0 = Instant::now();
        place = Some(placement(&models, machine));
        place_s.push(p0.elapsed().as_secs_f64());
    }
    let place = place.expect("placement ran");
    let mut mixes = Vec::new();
    for spec in &inputs.mixes {
        mixes.push(
            MIX_POLICIES
                .iter()
                .map(|&p| run_mix(spec, machine, p, &cache, [InputSet::Ref; 4], SCALE))
                .collect(),
        );
    }
    Pass {
        solo,
        mixes,
        place,
        wall_s: t0.elapsed().as_secs_f64(),
        cell_s,
        plan_s,
        place_s,
    }
}

fn plan_for(policy: Policy, s: &SoloResult) -> Option<PrefetchPlan> {
    let to_plan = |v: &[(Pc, PrefetchDirective)]| {
        let mut p = PrefetchPlan::empty();
        for &(pc, d) in v {
            p.insert(pc, d);
        }
        p
    };
    match policy {
        Policy::Baseline | Policy::Hardware => None,
        Policy::Software => Some(to_plan(&s.plan_nt).without_nta()),
        Policy::SoftwareNt | Policy::Combined => Some(to_plan(&s.plan_nt)),
        Policy::StrideCentric => Some(to_plan(&s.stride_centric)),
    }
}

fn setup(
    machine: &MachineConfig,
    trace: &Recorded,
    base_cpr: f64,
    target_refs: u64,
    policy: Policy,
    plan: Option<PrefetchPlan>,
) -> CoreSetup {
    CoreSetup {
        source: Box::new(trace.clone().cycle()),
        base_cpr,
        plan,
        hw: policy.uses_hardware().then(|| machine.make_hw_prefetcher()),
        target_refs,
    }
}

/// Materialize a workload's references so the simulator's time excludes
/// trace generation.
fn record(sp: &mut Spans, op: u64, id: BenchmarkId, o: &BuildOptions) -> (Recorded, f64, u64) {
    sp.time("trace", op, |_| {
        let mut w = build(id, o);
        let refs = w.collect_refs(w.nominal_refs);
        (Recorded::new(refs), w.base_cpr, w.nominal_refs)
    })
}

/// The traced pass: the same pipeline one layer down, a span per call.
fn traced_pass(machine: &MachineConfig, inputs: &Inputs, sp: &mut Spans) -> Pass {
    let t0 = Instant::now();
    let opts = opts();
    let mut solo = Vec::new();
    let mut models = Vec::new();
    for (op, id) in BenchmarkId::all().into_iter().enumerate() {
        let op = op as u64;
        let window = BuildOptions {
            refs_scale: SCALE * repf_sim::solo::PROFILE_WINDOW,
            ..opts
        };
        let (mut profiled, _, _) = record(sp, op, id, &window);
        let profile = sp.time("sampling", op, |_| {
            Sampler::new(SamplerConfig {
                sample_period: machine.profile_period,
                line_bytes: machine.hierarchy.l1.line_bytes,
                seed: 0x5a3b_0000 ^ id as u64,
            })
            .profile(&mut profiled)
        });
        drop(profiled);
        let (trace, base_cpr, refs) = record(sp, op, id, &opts);
        let baseline = sp.time("sim.solo", op, |_| {
            Sim::run_solo(
                machine,
                setup(machine, &trace, base_cpr, refs, Policy::Baseline, None),
            )
        });
        let delta = (baseline.cycles - baseline.stall_cycles) as f64 / baseline.refs.max(1) as f64
            + machine.sw_prefetch_cost;
        let model = sp.time("statstack.fit", op, |_| {
            StatStackModel::from_profile(&profile)
        });
        let cfg = machine.analysis_config(delta);
        let (analysis, stride_centric) = sp.time("core.analyze", op, |_| {
            (
                analyze_with_model(&profile, &model, &cfg),
                stride_centric_plan(&profile, &cfg),
            )
        });
        let mut s = SoloResult {
            id,
            baseline,
            runs: Vec::new(),
            plan_nt: sorted_plan(&analysis.plan),
            stride_centric: sorted_plan(&stride_centric),
            delta,
            kept: analysis.delinquent.len(),
            considered: profile.sampled_load_pcs().len(),
        };
        for &p in &SOLO_POLICIES {
            let plan = plan_for(p, &s);
            let out = sp.time("sim.solo", op, |_| {
                Sim::run_solo(machine, setup(machine, &trace, base_cpr, refs, p, plan))
            });
            s.runs.push(out);
        }
        solo.push(s);
        models.push(model);
    }
    let refs: Vec<&StatStackModel> = models.iter().collect();
    let place = sp.time("statstack.placement", 100, |_| placement(&refs, machine));
    let mut mixes = Vec::new();
    for (m, spec) in inputs.mixes.iter().enumerate() {
        let op = 200 + m as u64;
        let traces: Vec<_> = spec
            .apps
            .iter()
            .enumerate()
            .map(|(slot, &id)| record(sp, op, id, &mix_opts(slot)))
            .collect();
        let mut outs = Vec::new();
        for &p in &MIX_POLICIES {
            let setups = spec
                .apps
                .iter()
                .zip(&traces)
                .map(|(&id, (trace, cpr, refs))| {
                    let s = &solo[BenchmarkId::all().iter().position(|&b| b == id).unwrap()];
                    setup(machine, trace, *cpr, *refs, p, plan_for(p, s))
                })
                .collect();
            let per_app = sp.time("sim.mix", op, |_| Sim::run_mix(machine, setups));
            outs.push(MixOutcome { per_app });
        }
        mixes.push(outs);
    }
    Pass {
        solo,
        mixes,
        place,
        wall_s: t0.elapsed().as_secs_f64(),
        cell_s: Vec::new(),
        plan_s: Vec::new(),
        place_s: Vec::new(),
    }
}

/// A digest of every simulated and planned figure of a pass (bit-exact).
fn digest(p: &Pass) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut outcome = |o: &SoloOutcome| {
        // `CoreStats` has no `Hash`; its `Debug` form lists every counter.
        (
            o.cycles,
            o.refs,
            format!("{:?}", o.stats),
            o.sw_prefetches,
            o.stall_cycles,
        )
            .hash(&mut h);
    };
    for s in &p.solo {
        outcome(&s.baseline);
        s.runs.iter().for_each(&mut outcome);
    }
    for m in &p.mixes {
        m.iter().flat_map(|o| &o.per_app).for_each(&mut outcome);
    }
    for s in &p.solo {
        s.delta.to_bits().hash(&mut h);
        for (pc, d) in s.plan_nt.iter().chain(&s.stride_centric) {
            (pc.0, d.distance_bytes, d.nta, d.stride).hash(&mut h);
        }
    }
    (
        &p.place.groups,
        p.place.total_miss_ratio.to_bits(),
        p.place.nodes_explored,
        p.place.pruned,
    )
        .hash(&mut h);
    h.finish()
}

/// Output checks on one pass; each counts toward `attempted`.
fn check_pass(out: &mut Outcome, p: &Pass, inputs: &Inputs) {
    for (s, &nominal) in p.solo.iter().zip(&inputs.nominal_refs) {
        let name = s.id.name();
        out.check(
            s.baseline.refs == nominal && s.runs.iter().all(|r| r.refs == nominal && r.cycles > 0),
            || format!("{name}: every solo run completes its {nominal} references"),
        );
        out.check(s.baseline.stats.prefetches_issued == 0, || {
            format!("{name}: Baseline issues no prefetches")
        });
        out.check(s.runs[0].sw_prefetches == 0, || {
            format!("{name}: Hardware issues no software prefetches")
        });
        out.check(
            (s.runs[1].sw_prefetches > 0) != s.plan_nt.is_empty(),
            || format!("{name}: SoftwareNt prefetches exactly when planned"),
        );
    }
    for (spec, outs) in inputs.mixes.iter().zip(&p.mixes) {
        let targets: Vec<u64> = spec
            .apps
            .iter()
            .map(|&id| {
                inputs.nominal_refs[BenchmarkId::all().iter().position(|&b| b == id).unwrap()]
            })
            .collect();
        out.check(
            outs.iter().all(|o| {
                o.per_app.len() == 4
                    && o.per_app
                        .iter()
                        .zip(&targets)
                        .all(|(a, &t)| a.refs == t && a.cycles > 0)
            }),
            || format!("mix {:?}: every app completes its references", spec.apps),
        );
    }
    let mut seen: Vec<usize> = p.place.groups.iter().flatten().copied().collect();
    seen.sort_unstable();
    out.check(
        p.place.groups.len() <= PLACE_GROUPS as usize
            && p.place
                .groups
                .iter()
                .all(|g| g.len() <= PLACE_CAPACITY as usize)
            && seen == (0..12).collect::<Vec<_>>()
            && p.place.total_miss_ratio.is_finite(),
        || "placement is a partition of the 12 analogs within the shape".into(),
    );
}

/// The simulated figures the paper's claims rest on.
struct Simulated {
    speedup_sw_nt: f64,
    traffic_sw_nt_vs_hw: f64,
    mix_ws_sw_nt_vs_hw: f64,
}

fn simulated(p: &Pass) -> Simulated {
    let n = p.solo.len() as f64;
    let speedup_sw_nt = (p
        .solo
        .iter()
        .map(|s| repf_metrics::speedup(s.baseline.cycles, s.runs[1].cycles).ln())
        .sum::<f64>()
        / n)
        .exp();
    let bytes = |i: usize| -> u64 {
        p.solo
            .iter()
            .map(|s| s.runs[i].stats.dram_total_bytes())
            .sum()
    };
    let traffic_sw_nt_vs_hw = bytes(1) as f64 / bytes(0) as f64;
    let ws =
        |o: &MixOutcome, base: &MixOutcome| repf_metrics::weighted_speedup(&o.speedups_vs(base));
    let mix_ws_sw_nt_vs_hw = p
        .mixes
        .iter()
        .map(|m| ws(&m[2], &m[0]) / ws(&m[1], &m[0]))
        .sum::<f64>()
        / p.mixes.len() as f64;
    Simulated {
        speedup_sw_nt,
        traffic_sw_nt_vs_hw,
        mix_ws_sw_nt_vs_hw,
    }
}

/// Set-up before a pass, [`SETUPS_PER_PASS`] times, each timed into
/// `setups`; the last set-up's inputs drive the pass.
fn set_up_timed(seed: u64, setups: &mut Vec<f64>) -> Inputs {
    let mut inputs = None;
    for _ in 0..SETUPS_PER_PASS {
        let t = Instant::now();
        inputs = Some(set_up(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    inputs.expect("set-up ran")
}

/// One stream of timed passes, run until `seconds` after `start` have
/// passed (and at least three passes, so no median is a single pass).
fn pass_stream(
    seed: u64,
    machine: &MachineConfig,
    start: Instant,
    seconds: f64,
) -> (Vec<Pass>, Vec<f64>, Outcome) {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let inputs = set_up_timed(seed, &mut setups);
        let p = untraced_pass(machine, &inputs);
        check_pass(&mut out, &p, &inputs);
        passes.push(p);
    }
    (passes, setups, out)
}

pub fn run(args: &Args) -> Outcome {
    let machine = amd_phenom_ii();
    let mut out = Outcome {
        valid: true,
        ..Default::default()
    };

    if args.trace {
        let mut setups = Vec::new();
        let inputs = set_up_timed(args.seed, &mut setups);
        return run_traced(args, &machine, &inputs, median(&setups), out);
    }

    // Identical pass streams, one per CPU up to [`STREAMS`], side by
    // side for the whole run; every figure pools their passes.
    let streams = crate::nproc().min(STREAMS);
    let start = Instant::now();
    let results: Vec<(Vec<Pass>, Vec<f64>, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|_| scope.spawn(|| pass_stream(args.seed, &machine, start, args.seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pass stream"))
            .collect()
    });
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups = Vec::new();
    for (p, s, o) in results {
        passes.extend(p);
        setups.extend(s);
        out.attempted += o.attempted;
        out.failed += o.failed;
    }
    let first = digest(&passes[0]);
    for p in &passes[1..] {
        out.check(digest(p) == first, || {
            "every pass reproduces the first pass bit for bit".into()
        });
    }
    let setup_s = median(&setups);
    let cells: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_s.iter().map(|s| s * 1e6))
        .collect();
    let plan: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.plan_s.iter().map(|s| s * 1e6))
        .collect();
    let place: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.place_s.iter().map(|s| s * 1e6))
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let sim = simulated(&passes[0]);

    out.metric("setup_s", setup_s, "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric("latency_p50_us", median(&cells), "us");
    out.info("latency_p99_us", Json::Num(quantile(&cells, 0.99)));
    out.metric("plan_p50_us", median(&plan), "us");
    out.metric("place_p50_us", median(&place), "us");
    out.metric(
        "success_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");

    out.info("passes", Json::Num(passes.len() as f64));
    out.info("streams", Json::Num(streams as f64));
    out.info("cells", Json::Num(cells.len() as f64));
    let all = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    out.info("wall_s.all", all(&walls));
    out.info("latency_us.all", all(&cells));
    out.info("plan_us.all", all(&plan));
    out.info("place_us.all", all(&place));
    out.info("speedup_sw_nt", Json::Num(sim.speedup_sw_nt));
    out.info("traffic_sw_nt_vs_hw", Json::Num(sim.traffic_sw_nt_vs_hw));
    out.info("mix_ws_sw_nt_vs_hw", Json::Num(sim.mix_ws_sw_nt_vs_hw));
    out.info(
        "error_rate",
        Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    out
}

fn run_traced(
    args: &Args,
    machine: &MachineConfig,
    inputs: &Inputs,
    setup_s: f64,
    mut out: Outcome,
) -> Outcome {
    let untraced = untraced_pass(machine, inputs);
    check_pass(&mut out, &untraced, inputs);
    let mut sp = Spans::new();
    let traced = traced_pass(machine, inputs, &mut sp);
    check_pass(&mut out, &traced, inputs);
    sp.write(&format!("paper-seed{}-spans.json", args.seed));

    // The decomposed pipeline must reproduce `prepare` (which produced
    // the untraced pass's plans) and the untraced simulations exactly.
    for (t, u) in traced.solo.iter().zip(&untraced.solo) {
        let name = t.id.name();
        out.check(
            t.plan_nt == u.plan_nt
                && t.stride_centric == u.stride_centric
                && t.delta.to_bits() == u.delta.to_bits(),
            || format!("{name}: traced plans equal repf_sim::prepare's"),
        );
        let same = |a: &SoloOutcome, b: &SoloOutcome| {
            (a.cycles, a.refs, a.stats, a.sw_prefetches, a.stall_cycles)
                == (b.cycles, b.refs, b.stats, b.sw_prefetches, b.stall_cycles)
        };
        out.check(
            same(&t.baseline, &u.baseline) && t.runs.iter().zip(&u.runs).all(|(a, b)| same(a, b)),
            || format!("{name}: traced solo simulations equal the untraced ones"),
        );
    }
    out.check(digest(&traced) == digest(&untraced), || {
        "traced pass reproduces the untraced pass bit for bit".into()
    });

    let totals = sp.totals();
    let layer = |n: &str| totals.get(n).copied().unwrap_or_default();
    let attributed: f64 = totals.values().map(|t| t.self_s).sum();
    let solo_refs: u64 = traced
        .solo
        .iter()
        .map(|s| s.baseline.refs + s.runs.iter().map(|r| r.refs).sum::<u64>())
        .sum();
    let mix_refs: u64 = traced
        .mixes
        .iter()
        .flat_map(|m| m.iter().flat_map(|o| o.per_app.iter().map(|a| a.refs)))
        .sum();
    let all_runs = || {
        traced
            .solo
            .iter()
            .flat_map(|s| std::iter::once(&s.baseline).chain(&s.runs))
            .chain(
                traced
                    .mixes
                    .iter()
                    .flat_map(|m| m.iter().flat_map(|o| &o.per_app)),
            )
    };
    let hw_runs = || {
        traced
            .solo
            .iter()
            .map(|s| &s.runs[0])
            .chain(traced.mixes.iter().flat_map(|m| &m[1].per_app))
    };
    let sum = |f: &dyn Fn(&SoloOutcome) -> u64| -> f64 { all_runs().map(f).sum::<u64>() as f64 };
    let hw_useful: u64 = hw_runs().map(|o| o.stats.prefetches_useful).sum();
    let hw_useless: u64 = hw_runs().map(|o| o.stats.prefetches_useless).sum();
    let kept: usize = traced.solo.iter().map(|s| s.kept).sum();
    let considered: usize = traced.solo.iter().map(|s| s.considered).sum();
    let sim = simulated(&traced);

    out.metric("trace.busy_s", layer("trace").self_s, "s");
    out.metric("sampling.busy_s", layer("sampling").self_s, "s");
    out.metric(
        "statstack.fit.calls",
        layer("statstack.fit").calls as f64,
        "count",
    );
    out.metric("statstack.fit.busy_s", layer("statstack.fit").self_s, "s");
    out.metric(
        "core.analyze.calls",
        layer("core.analyze").calls as f64,
        "count",
    );
    out.metric("core.analyze.busy_s", layer("core.analyze").self_s, "s");
    out.metric("sim.solo.busy_s", layer("sim.solo").self_s, "s");
    out.metric("sim.mix.busy_s", layer("sim.mix").self_s, "s");
    out.metric(
        "sim.solo.ns_per_ref",
        layer("sim.solo").self_s * 1e9 / solo_refs as f64,
        "ns",
    );
    out.metric(
        "sim.mix.ns_per_ref",
        layer("sim.mix").self_s * 1e9 / mix_refs as f64,
        "ns",
    );
    out.metric(
        "statstack.placement.busy_s",
        layer("statstack.placement").self_s,
        "s",
    );
    out.metric(
        "placement.nodes_explored",
        traced.place.nodes_explored as f64,
        "count",
    );
    out.metric("placement.pruned", traced.place.pruned as f64, "count");
    out.metric("cache.llc_misses", sum(&|o| o.stats.llc_misses), "count");
    out.metric(
        "cache.dram_read_bytes",
        sum(&|o| o.stats.dram_read_bytes),
        "bytes",
    );
    out.metric(
        "cache.demand_stall_cycles",
        sum(&|o| o.stall_cycles),
        "cycles",
    );
    out.metric(
        "hwpf.prefetches_issued",
        hw_runs().map(|o| o.stats.prefetches_issued).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "hwpf.useful_ratio",
        hw_useful as f64 / (hw_useful + hw_useless).max(1) as f64,
        "ratio",
    );
    out.metric("core.sw_prefetches", sum(&|o| o.sw_prefetches), "count");
    out.metric(
        "core.mddli.kept_ratio",
        kept as f64 / considered.max(1) as f64,
        "ratio",
    );
    out.metric("sim.speedup_sw_nt", sim.speedup_sw_nt, "ratio");
    out.metric("sim.traffic_sw_nt_vs_hw", sim.traffic_sw_nt_vs_hw, "ratio");
    out.metric("sim.mix_ws_sw_nt_vs_hw", sim.mix_ws_sw_nt_vs_hw, "ratio");
    out.metric("traced.wall_s", traced.wall_s, "s");
    out.metric("traced.overhead_s", traced.wall_s - untraced.wall_s, "s");
    out.metric(
        "unattributed_frac",
        1.0 - attributed / traced.wall_s,
        "ratio",
    );

    out.info("setup_s", Json::Num(setup_s));
    out.info("untraced_wall_s", Json::Num(untraced.wall_s));
    out
}
