//! One pass of `table1_paper`: `Table1::generate(CrossbarConfig::paper())`
//! (which starts with `Characterizer::new`) →
//! `RouterPowerModel::from_characterization` per scheme → drop.
//!
//! The traced pass adds the per-layer breakdown after the timed path:
//! each scheme characterized serially, the DC leakage share, and the
//! assemble / refactor / solve kernels replayed on the SDFC slice.

use crate::pinned;
use crate::trace::Tracer;
use lnoc_circuit::assemble::Assembler;
use lnoc_circuit::sparse::SparseLu;
use lnoc_core::characterize::Characterizer;
use lnoc_core::config::CrossbarConfig;
use lnoc_core::scheme::Scheme;
use lnoc_core::slice::BitSlice;
use lnoc_core::table1::Table1;
use lnoc_power::router::RouterPowerModel;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug)]
pub struct Table1Pass {
    pub metrics: Vec<(String, f64)>,
    pub error: Option<String>,
}

/// The largest absolute error, in percentage points, of the measured
/// active and standby savings against the paper's published Table 1.
pub fn paper_err_pp(table: &Table1) -> f64 {
    let paper = Table1::paper_reference();
    table
        .rows
        .iter()
        .filter_map(|row| paper.row(row.scheme).map(|p| (row, p)))
        .flat_map(|(row, p)| {
            [
                (row.active_leakage_savings, p.active_leakage_savings),
                (row.standby_leakage_savings, p.standby_leakage_savings),
            ]
        })
        .filter_map(|(m, p)| Some(100.0 * (m? - p?).abs()))
        .fold(0.0, f64::max)
}

fn scheme_key(scheme: Scheme) -> String {
    scheme.name().to_ascii_lowercase()
}

/// `Characterizer::new` calls timed per pass for `setup_s`, in batches:
/// a call takes under a microsecond once warm, near the clock's
/// resolution, so `setup_s` is the median batch's time per call.
const SETUP_BATCHES: usize = 11;
const SETUP_BATCH_CALLS: u32 = 1000;

pub fn run_pass(tr: &mut Tracer) -> Table1Pass {
    let cfg = CrossbarConfig::paper();
    // `Table1::generate` builds its own characterizer first and offers
    // no way to pass one in; the set-up is that construction, timed on
    // its own, outside `total_s`.
    let mut setups: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH_CALLS {
                black_box(Characterizer::new(black_box(&cfg)));
            }
            t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH_CALLS)
        })
        .collect();
    let setup_s = crate::median(&mut setups);
    let start = Instant::now();
    let (table, run_s) = tr.time("core.table1_generate", |_| Table1::generate(&cfg));
    let table = table.unwrap_or_else(|e| panic!("Table 1 characterization failed: {e}"));
    let (models, _) = tr.time("power.router_models", |_| {
        table
            .raw
            .iter()
            .map(|c| RouterPowerModel::from_characterization(c, &cfg))
            .collect::<Vec<_>>()
    });
    let answer_s = start.elapsed().as_secs_f64();

    let error = pinned::check_table1(&table).err();
    let err_pp = paper_err_pp(&table);
    let mut metrics: Vec<(String, f64)> = vec![("paper_err_pp".into(), err_pp)];
    if tr.is_on() {
        layer_breakdown(&cfg, run_s, tr, &mut metrics);
    }

    let ((), teardown_s) = tr.time("core.teardown", |_| drop((models, table)));
    metrics.extend([
        ("total_s".into(), answer_s + teardown_s),
        ("setup_s".into(), setup_s),
        ("run_s".into(), run_s),
        ("teardown_s".into(), teardown_s),
    ]);
    Table1Pass { metrics, error }
}

/// Serial per-scheme characterization, the DC leakage share, and the
/// circuit kernels, each timed on its own.
fn layer_breakdown(
    cfg: &CrossbarConfig,
    parallel_s: f64,
    tr: &mut Tracer,
    metrics: &mut Vec<(String, f64)>,
) {
    let ch = Characterizer::new(cfg);
    let mut serial_s = 0.0;
    for scheme in Scheme::ALL {
        let name = format!("core.characterize.{}", scheme_key(scheme));
        let (res, secs) = tr.time(&name, |_| ch.characterize(scheme));
        res.unwrap_or_else(|e| panic!("characterizing {}: {e}", scheme.name()));
        metrics.push((format!("{name}_s"), secs));
        serial_s += secs;
    }
    metrics.push(("core.parallel_speedup".into(), serial_s / parallel_s));

    let (_, detail_s) = tr.time("core.leakage_detail", |_| {
        for scheme in Scheme::ALL {
            ch.leakage_detail(scheme)
                .unwrap_or_else(|e| panic!("leakage detail of {}: {e}", scheme.name()));
        }
    });
    metrics.push(("core.leakage_detail_s".into(), detail_s));

    for scheme in Scheme::ALL {
        let slice = BitSlice::build(scheme, cfg);
        let asm = Assembler::new(&slice.netlist);
        let key = scheme_key(scheme);
        metrics.push((format!("circuit.unknowns.{key}"), asm.dim() as f64));
        metrics.push((format!("circuit.nnz.{key}"), asm.pattern().nnz() as f64));
    }
    let (kernels, _) = tr.time("circuit.replay_sdfc", |_| replay_kernels(cfg));
    for (name, us) in kernels {
        metrics.push((name.into(), us));
    }
}

/// Median microseconds per call of assemble, refactorize and solve on the
/// SDFC slice's DC system, at a fixed mid-rail guess.
fn replay_kernels(cfg: &CrossbarConfig) -> [(&'static str, f64); 3] {
    const CALLS: usize = 301;
    let slice = BitSlice::build(Scheme::Sdfc, cfg);
    let mut asm = Assembler::new(&slice.netlist);
    let dim = asm.dim();
    let mut x = vec![0.0; dim];
    x[..asm.node_unknowns()].fill(0.5 * cfg.vdd().0);
    asm.set_linear_state(1e-12, None);
    asm.prepare_rhs(0.0, 1.0, None);
    asm.assemble(&x);
    let mut lu = SparseLu::new(dim);
    lu.factorize(asm.pattern(), asm.values())
        .expect("the SDFC DC Jacobian factors");
    let mut b = vec![0.0; dim];
    let (mut t_asm, mut t_ref, mut t_sol) = (
        Vec::with_capacity(CALLS),
        Vec::with_capacity(CALLS),
        Vec::with_capacity(CALLS),
    );
    for _ in 0..CALLS {
        let t = Instant::now();
        asm.assemble(&x);
        t_asm.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        lu.refactorize(asm.pattern(), asm.values())
            .expect("the SDFC DC Jacobian refactors");
        t_ref.push(t.elapsed().as_secs_f64());
        b.copy_from_slice(asm.residual());
        let t = Instant::now();
        lu.solve_in_place(black_box(&mut b));
        t_sol.push(t.elapsed().as_secs_f64());
    }
    [
        ("circuit.assemble_us", 1e6 * crate::median(&mut t_asm)),
        ("circuit.refactor_us", 1e6 * crate::median(&mut t_ref)),
        ("circuit.solve_us", 1e6 * crate::median(&mut t_sol)),
    ]
}
