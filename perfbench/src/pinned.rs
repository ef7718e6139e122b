//! Pinned outputs the benchmark checks every pass against.
//!
//! Re-pin with `perfbench digest --workload <name> --kernel reference`
//! (or `--kernel auto` where the dense reference kernel is infeasible) and
//! `perfbench table1`, and say why in the change that does it: a pinned
//! value that moves means the program's results changed.

use crate::workload::Workload;
use lnoc_core::scheme::Scheme;
use lnoc_core::table1::{Table1, Table1Row};

/// `NetworkStats` digests at the default seed. `noc_uniform_64` and
/// `noc_faulted_16` are the dense reference kernel's; `noc_sparse_1m` is
/// too large for it, so its digest is the `Auto` kernel's.
pub fn noc_digest(w: Workload) -> Option<&'static str> {
    match w {
        Workload::Table1Paper => None,
        Workload::NocSparse1m => Some("075a47118ef3741f"),
        Workload::NocUniform64 => Some("6943c2ed7e3cbd78"),
        Workload::NocFaulted16 => Some("88e5b6bb85cf3063"),
    }
}

/// Table 1 as this program computes it for `CrossbarConfig::paper()`:
/// delay H→L (ps), delay L→H (ps), active and standby savings (0 for the
/// baseline), Minimum Idle Time (cycles) and total power (mW).
const TABLE1: [(Scheme, [f64; 6]); 5] = [
    (
        Scheme::Sc,
        [
            63.45105498305228,
            68.76681365541289,
            0.0,
            0.0,
            36.0,
            125.60083382639384,
        ],
    ),
    (
        Scheme::Dfc,
        [
            58.22065114013776,
            72.75705509042126,
            0.03873219703548392,
            0.049471037874523116,
            26.0,
            121.71343992963239,
        ],
    ),
    (
        Scheme::Dpc,
        [
            47.92967936832614,
            61.328394482523606,
            0.48549046935294204,
            0.7627773605238429,
            9.0,
            105.95095980644858,
        ],
    ),
    (
        Scheme::Sdfc,
        [
            67.6198746821002,
            70.02643646378094,
            0.24664477518272898,
            0.20202857577342037,
            1.0,
            76.01612224506025,
        ],
    ),
    (
        Scheme::Sdpc,
        [
            64.69322823440793,
            58.49183779999133,
            0.5768235453062791,
            0.7005166467562866,
            10.0,
            71.40311772052179,
        ],
    ),
];

/// Relative tolerance of the Table 1 comparison: the characterization is
/// deterministic, so only floating-point reassociation across builds is
/// allowed for.
const TABLE1_RTOL: f64 = 1e-9;

pub fn row_values(row: &Table1Row) -> [f64; 6] {
    [
        row.delay_high_to_low_ps,
        row.delay_low_to_high_ps,
        row.active_leakage_savings.unwrap_or(0.0),
        row.standby_leakage_savings.unwrap_or(0.0),
        row.min_idle_time_cycles as f64,
        row.total_power_mw,
    ]
}

/// Compares every row with the pinned table.
pub fn check_table1(table: &Table1) -> Result<(), String> {
    for (scheme, want) in TABLE1 {
        let row = table
            .row(scheme)
            .ok_or_else(|| format!("Table 1 has no {} row", scheme.name()))?;
        for (i, (g, w)) in row_values(row).iter().zip(want).enumerate() {
            if (g - w).abs() > TABLE1_RTOL * w.abs().max(1e-12) {
                return Err(format!(
                    "Table 1 {} column {i}: computed {g:?}, pinned {w:?}",
                    scheme.name()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noc::check_digest;

    /// Flips the digest's last hex digit: a stand-in for a run whose
    /// results changed.
    fn perturb(digest: &str) -> String {
        let (head, last) = digest.split_at(digest.len() - 1);
        let flipped = u8::from_str_radix(last, 16).map_or(0, |d| d ^ 1);
        format!("{head}{flipped:x}")
    }

    /// The pinned table, every value scaled by `scale`.
    fn pinned_table(scale: f64) -> Table1 {
        Table1 {
            rows: TABLE1
                .iter()
                .map(|&(scheme, v)| {
                    let v = v.map(|x| x * scale);
                    Table1Row {
                        scheme,
                        delay_high_to_low_ps: v[0],
                        delay_low_to_high_ps: v[1],
                        active_leakage_savings: (scheme != Scheme::Sc).then_some(v[2]),
                        standby_leakage_savings: (scheme != Scheme::Sc).then_some(v[3]),
                        min_idle_time_cycles: v[4] as u32,
                        total_power_mw: v[5],
                        delay_penalty: None,
                    }
                })
                .collect(),
            raw: Vec::new(),
        }
    }

    #[test]
    fn perturbed_digest_is_caught() {
        for w in [
            Workload::NocSparse1m,
            Workload::NocUniform64,
            Workload::NocFaulted16,
        ] {
            let pinned = noc_digest(w).expect("NoC workloads are pinned");
            assert!(check_digest(Some(pinned), pinned).is_ok());
            let err = check_digest(Some(pinned), &perturb(pinned)).unwrap_err();
            assert!(err.contains("differs from the pinned"), "{err}");
            // Inputs without a pinned digest have nothing to compare with.
            assert!(check_digest(None, &perturb(pinned)).is_ok());
        }
    }

    #[test]
    fn perturbed_table1_is_caught() {
        assert!(check_table1(&pinned_table(1.0)).is_ok());
        assert!(check_table1(&pinned_table(1.0 + 1e-6)).is_err());
        // The paper's own numbers are not this program's.
        assert!(check_table1(&Table1::paper_reference()).is_err());
    }
}
