//! Fast-forward differential: dead-cycle fast-forward is an execution
//! strategy, not a model change, so for any program a fast-forwarded
//! run and a [`Processor::single_stepped`] run (the reference oracle,
//! labelled `ticked` below) must produce byte-identical [`SimStats`]
//! and — with a [`CritPathProbe`] attached — identical critical-path
//! attributions.
//!
//! Programs are randomized IL (deterministic [`mcl_testutil::Rng`]
//! seeds, so failures reproduce exactly): counted loops with int/fp ALU
//! traffic across both clusters' registers, loads and stores for data
//! cache misses, and back-edge branches for mispredictions, run on the
//! single-cluster preset, the dual-cluster preset, and a tiny-buffer
//! dual machine that forces replay exceptions. The six Table 2
//! workloads are checked the same way, with their skip counts pinned,
//! and every statistic of all 18 Table 2 cells is pinned by hash.

use std::sync::OnceLock;

use mcl_bench::{TraceRequest, TraceStore};
use mcl_core::{CheckLevel, CritPathProbe, Processor, ProcessorConfig, SimStats};
use mcl_isa::ArchReg;
use mcl_sched::SchedulerKind;
use mcl_testutil::Rng;
use mcl_trace::{vm::trace_program, PackedTrace, Program, ProgramBuilder};
use mcl_workloads::Benchmark;

/// Machine presets the differential runs on. The tiny-buffer dual
/// machine forces transfer-buffer replays through both paths.
fn presets() -> Vec<(&'static str, ProcessorConfig)> {
    let mut tiny = ProcessorConfig::dual_cluster_8way();
    tiny.operand_buffer = 1;
    tiny.result_buffer = 1;
    vec![
        ("single", ProcessorConfig::single_cluster_8way()),
        ("dual", ProcessorConfig::dual_cluster_8way()),
        ("dual-tiny-buffers", tiny),
    ]
}

/// A random but valid program: a counted loop whose body mixes integer
/// and floating-point ALU ops over registers of both clusters with
/// loads and stores over a small memory window, followed by a random
/// straightline tail. Loop exits mispredict, cold lines miss, and long
/// dependence chains leave plenty of dead cycles to skip.
fn random_program(rng: &mut Rng) -> Program<ArchReg> {
    let mut b = ProgramBuilder::<ArchReg>::new("engine-diff");
    // Avoid the architecturally special registers: GP/SP (29/30) and
    // the hardwired zeros (31). r0 is the loop counter, r1 the memory
    // base pointer.
    let int = |rng: &mut Rng| ArchReg::int(rng.range(2, 29) as u8);
    let fp = |rng: &mut Rng| ArchReg::fp(rng.range(0, 31) as u8);
    for slot in 0..16u64 {
        b.mem_init(0x4000 + 8 * slot, rng.next_u64() >> 8);
    }
    for i in 2..8 {
        b.lda(ArchReg::int(i), rng.range_i64(-1000, 1000));
    }
    b.lda(ArchReg::int(0), rng.range_i64(2, 9));
    b.lda(ArchReg::int(1), 0x4000);

    let body = b.new_block("body");
    let tail = b.new_block("tail");
    b.switch_to(body);
    let body_ops = rng.range(4, 24);
    emit_random_ops(&mut b, rng, body_ops, &int, &fp);
    b.subq_imm(ArchReg::int(0), ArchReg::int(0), 1);
    b.bne(ArchReg::int(0), body);
    b.switch_to(tail);
    let tail_ops = rng.range(2, 16);
    emit_random_ops(&mut b, rng, tail_ops, &int, &fp);
    b.finish().expect("generated programs are structurally valid")
}

fn emit_random_ops(
    b: &mut ProgramBuilder<ArchReg>,
    rng: &mut Rng,
    count: usize,
    int: &impl Fn(&mut Rng) -> ArchReg,
    fp: &impl Fn(&mut Rng) -> ArchReg,
) {
    let base = ArchReg::int(1);
    for _ in 0..count {
        match rng.below(8) {
            0 => {
                let (d, a, s) = (int(rng), int(rng), int(rng));
                b.addq(d, a, s);
            }
            1 => {
                let (d, a) = (int(rng), int(rng));
                let imm = rng.range_i64(-128, 128);
                b.addq_imm(d, a, imm);
            }
            2 => {
                let (d, a, s) = (int(rng), int(rng), int(rng));
                b.mulq(d, a, s);
            }
            3 => {
                let (d, a, s) = (fp(rng), fp(rng), fp(rng));
                b.addt(d, a, s);
            }
            4 => {
                let (d, a, s) = (fp(rng), fp(rng), fp(rng));
                b.mult(d, a, s);
            }
            5 => {
                let d = int(rng);
                let offset = 8 * rng.range_i64(0, 16);
                b.ldq(d, base, offset);
            }
            6 => {
                let v = int(rng);
                let offset = 8 * rng.range_i64(0, 16);
                b.stq(base, offset, v);
            }
            _ => {
                let (d, a) = (fp(rng), fp(rng));
                b.sqrtt(d, a);
            }
        }
    }
}

/// `single_stepped` selects the reference oracle; otherwise the run
/// may fast-forward.
fn processor(cfg: &ProcessorConfig, single_stepped: bool) -> Processor {
    let processor = Processor::new(cfg.clone());
    if single_stepped {
        processor.single_stepped()
    } else {
        processor
    }
}

fn run(cfg: &ProcessorConfig, single_stepped: bool, trace: &PackedTrace) -> mcl_core::SimResult {
    processor(cfg, single_stepped).run_packed(trace).expect("runs")
}

#[test]
fn engines_agree_on_random_programs() {
    let presets = presets();
    let mut total_skipped = 0u64;
    let mut total_jumps = 0u64;
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed);
        let program = random_program(&mut rng);
        let (trace, _) = trace_program(&program).expect("valid program");
        let packed = PackedTrace::from_ops(&trace);
        for (name, cfg) in &presets {
            let ticked = run(cfg, true, &packed);
            let event = run(cfg, false, &packed);
            assert_eq!(
                ticked.stats, event.stats,
                "seed {seed} preset {name}: engines diverged"
            );
            assert_eq!(
                ticked.ff,
                mcl_core::FastForward::default(),
                "seed {seed} preset {name}: a single-stepped run must not fast-forward"
            );
            assert!(
                event.ff.skipped_cycles < event.stats.cycles,
                "seed {seed} preset {name}: skipped more cycles than were simulated"
            );
            total_skipped += event.ff.skipped_cycles;
            total_jumps += event.ff.jumps;
        }
    }
    // The suite as a whole must exercise the fast-forward path, or the
    // differential proves nothing about it.
    assert!(
        total_jumps > 0 && total_skipped > 0,
        "no random program ever fast-forwarded (skipped={total_skipped}, jumps={total_jumps})"
    );
}

#[test]
fn engines_agree_under_the_cycle_level_checker() {
    // CheckLevel::Cycle pins every run to single-stepping (the checker
    // audits every cycle), so this differential confirms the
    // single-stepped switch changes nothing when fast-forward is gated
    // off.
    let presets = presets();
    for seed in 0..6u64 {
        let mut rng = Rng::new(seed);
        let program = random_program(&mut rng);
        let (trace, _) = trace_program(&program).expect("valid program");
        let packed = PackedTrace::from_ops(&trace);
        for (name, cfg) in &presets {
            let checked = |single_stepped| {
                processor(cfg, single_stepped)
                    .checked(CheckLevel::Cycle)
                    .run_packed(&packed)
                    .expect("runs")
            };
            let ticked = checked(true);
            let event = checked(false);
            assert_eq!(
                ticked.stats, event.stats,
                "seed {seed} preset {name}: engines diverged under the checker"
            );
            assert_eq!(
                event.ff,
                mcl_core::FastForward::default(),
                "seed {seed} preset {name}: cycle-level checking must disable fast-forward"
            );
        }
    }
}

#[test]
fn critpath_attribution_is_engine_invariant() {
    // An attached probe forces single-stepping on both paths
    // (fast-forward would skip the per-cycle hook points), so the
    // instrumented runs must agree with each other and with the
    // unprobed stats, and the critical-path attributions must match
    // exactly.
    let presets = presets();
    for seed in 0..6u64 {
        let mut rng = Rng::new(seed);
        let program = random_program(&mut rng);
        let (trace, _) = trace_program(&program).expect("valid program");
        let packed = PackedTrace::from_ops(&trace);
        for (name, cfg) in &presets {
            let mut attributions = Vec::new();
            let mut stats: Vec<SimStats> = Vec::new();
            for single_stepped in [true, false] {
                let engine = if single_stepped { "ticked" } else { "event" };
                let unprobed = run(cfg, single_stepped, &packed);
                let mut probe = CritPathProbe::new();
                let observed = processor(cfg, single_stepped)
                    .run_packed_observed(&packed, &mut probe)
                    .expect("runs");
                assert_eq!(
                    observed.stats, unprobed.stats,
                    "seed {seed} preset {name} {engine}: probe perturbed the run"
                );
                assert_eq!(
                    observed.ff,
                    mcl_core::FastForward::default(),
                    "seed {seed} preset {name} {engine}: probes must disable fast-forward"
                );
                let attr = probe.attribution(observed.stats.cycles);
                attr.check_identity(observed.stats.cycles)
                    .unwrap_or_else(|e| panic!("seed {seed} preset {name} {engine}: {e}"));
                attributions.push(attr);
                stats.push(observed.stats);
            }
            assert_eq!(
                stats[0], stats[1],
                "seed {seed} preset {name}: probed engines diverged"
            );
            assert_eq!(
                attributions[0], attributions[1],
                "seed {seed} preset {name}: critical-path attributions diverged"
            );
        }
    }
}

/// One trace store for the Table 2 tests, so each divisor-8 trace is
/// built once per test binary.
fn table2_store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(TraceStore::new)
}

/// `[cycles, skipped_cycles]` of each Table 2 workload's dual-cluster,
/// local-scheduler trace at divisor 8, fast-forwarded.
const TABLE2_DIV8: [(&str, [u64; 2]); 6] = [
    ("compress", [14_036, 1_178]),
    ("doduc", [6_193, 39]),
    ("gcc1", [20_307, 9_999]),
    ("ora", [72_086, 35_354]),
    ("su2cor", [18_492, 50]),
    ("tomcatv", [17_702, 36]),
];

#[test]
fn table2_workloads_agree_and_fast_forward() {
    // The paper's headline cells: fast-forward must not change a single
    // statistic, and it must keep covering a real share of the cycles —
    // a conservative-check regression that silently stops skipping
    // would otherwise only show up as lost speed.
    let store = table2_store();
    let cfg = ProcessorConfig::dual_cluster_8way();
    let mut total = [0u64; 2];
    for (bench, (name, pinned)) in Benchmark::ALL.into_iter().zip(TABLE2_DIV8) {
        assert_eq!(bench.name(), name);
        let request = TraceRequest::new(bench, bench.scaled(8), SchedulerKind::Local);
        let trace = store.trace(&request).expect("trace builds");
        let ticked = run(&cfg, true, &trace);
        let event = run(&cfg, false, &trace);
        assert_eq!(ticked.stats, event.stats, "{name}: engines diverged");
        assert_eq!(ticked.ff, mcl_core::FastForward::default(), "{name}: ticked fast-forwarded");
        let measured = [event.stats.cycles, event.ff.skipped_cycles];
        assert_eq!(measured, pinned, "{name}: [cycles, skipped_cycles]");
        total[0] += measured[0];
        total[1] += measured[1];
    }
    let skipped_pct = 100.0 * total[1] as f64 / total[0] as f64;
    assert!(skipped_pct >= 25.0, "fast-forward skipped only {skipped_pct:.1}% of cycles");
}

/// FNV-1a 64 over a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every Table 2 cell at divisor 8, fast-forwarded, as `(benchmark,
/// configuration, [FNV-64 of SimStats::to_wire_bytes(), skipped_cycles,
/// jumps])`.
const TABLE2_STATS_DIV8: [(&str, &str, [u64; 3]); 18] = [
    ("compress", "single-native", [0x0f11_742f_f0bc_c8e4, 1_396, 185]),
    ("compress", "dual-native", [0x0127_27aa_e6ba_6d1a, 1_218, 191]),
    ("compress", "dual-local", [0x0d92_7d23_6622_f068, 1_178, 205]),
    ("doduc", "single-native", [0x883e_0e3d_8f69_4a3d, 44, 14]),
    ("doduc", "dual-native", [0xf0a0_637b_8cb3_5ffc, 37, 9]),
    ("doduc", "dual-local", [0x2f44_23ed_9d76_c6cb, 39, 11]),
    ("gcc1", "single-native", [0x6df5_7ec5_fccc_dc94, 10_139, 760]),
    ("gcc1", "dual-native", [0x0852_98d9_cfb7_692b, 9_399, 760]),
    ("gcc1", "dual-local", [0x7912_ba52_2250_edb1, 9_999, 760]),
    ("ora", "single-native", [0x9b16_8145_3f83_4ebd, 19_588, 4_523]),
    ("ora", "dual-native", [0xec34_105c_c05f_abea, 12_832, 3_771]),
    ("ora", "dual-local", [0x72ec_3d6d_bdcc_5c33, 35_354, 7_501]),
    ("su2cor", "single-native", [0x76ad_6abd_eb2f_d0d1, 59, 25]),
    ("su2cor", "dual-native", [0x3fb6_85e0_4aa9_4767, 43, 11]),
    ("su2cor", "dual-local", [0x47d0_d5fa_9886_e60c, 50, 18]),
    ("tomcatv", "single-native", [0x2156_8d5c_afec_58d1, 100, 70]),
    ("tomcatv", "dual-native", [0x3bbc_c01b_3ccb_45ce, 36, 8]),
    ("tomcatv", "dual-local", [0xf62e_1237_8007_402e, 36, 8]),
];

#[test]
fn table2_cells_pin_every_statistic() {
    // `[cycles, skipped_cycles]` above would miss drift in any other
    // counter (issue disorder, transfer-buffer stalls, icache repeat
    // hits, ...): hash the whole wire encoding of every cell instead.
    let store = table2_store();
    let single = ProcessorConfig::single_cluster_8way();
    let dual = ProcessorConfig::dual_cluster_8way();
    let mut measured = Vec::new();
    for bench in Benchmark::ALL {
        let trace = |kind| {
            let request = TraceRequest::new(bench, bench.scaled(8), kind);
            store.trace(&request).expect("trace builds")
        };
        let (native, local) = (trace(SchedulerKind::Naive), trace(SchedulerKind::Local));
        for (label, cfg, trace) in [
            ("single-native", &single, &native),
            ("dual-native", &dual, &native),
            ("dual-local", &dual, &local),
        ] {
            let r = run(cfg, false, trace);
            let pin = [fnv64(&r.stats.to_wire_bytes()), r.ff.skipped_cycles, r.ff.jumps];
            measured.push((bench.name(), label, pin));
        }
    }
    assert_eq!(measured.as_slice(), TABLE2_STATS_DIV8.as_slice());
}
