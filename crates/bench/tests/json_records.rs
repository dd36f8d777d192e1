//! The JSON text of every record the figure binaries write under
//! `results/`, pinned: a field renamed, reordered or dropped shows here.
//! (`profile_table`'s own row is pinned beside it, in the binary.)

use pbte_bench::calibration::{Ran, Spread};
use pbte_bench::figures::{BreakdownColumn, CommVolumeRow, ScalingSeries};
use pbte_bench::{Calibration, PhasedTime};
use serde::Serialize;

fn json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("renders")
}

const RAN: &str =
    r#"{"tier":"native","flux":"table","walls":"fixed:32 gather:32 callback:0","rev":"unknown"}"#;

fn ran() -> Ran {
    Ran {
        tier: "native".into(),
        flux: "table".into(),
        walls: "fixed:32 gather:32 callback:0".into(),
        rev: "unknown".into(),
    }
}

#[test]
fn phased_time() {
    let time = PhasedTime {
        intensity: 1.5,
        temperature: 0.25,
        communication: 0.0,
    };
    assert_eq!(
        json(&time),
        r#"{"intensity":1.5,"temperature":0.25,"communication":0.0}"#
    );
}

#[test]
fn ran_and_calibration() {
    assert_eq!(json(&ran()), RAN);
    let spread = Spread {
        rounds: 15,
        dsl: 1.25,
        base: 1.5,
    };
    const SPREAD: &str = r#"{"rounds":15,"dsl":1.25,"base":1.5}"#;
    assert_eq!(json(&spread), SPREAD);
    let calibration = |spread| Calibration {
        c_dsl: 5.9e-9,
        c_base: 4.1e-9,
        c_temp: 8.9e-7,
        c_temp_energy: 5.6e-7,
        c_temp_newton: 1.5e-7,
        c_temp_rewrite: 1.4e-7,
        ran: ran(),
        spread,
    };
    let constants = r#""c_dsl":0.0000000059,"c_base":0.0000000041,"c_temp":0.00000089,"c_temp_energy":0.00000056,"c_temp_newton":0.00000015,"c_temp_rewrite":0.00000014"#;
    assert_eq!(
        json(&calibration(Some(spread))),
        format!(r#"{{{constants},"ran":{RAN},"spread":{SPREAD}}}"#)
    );
    assert_eq!(
        json(&calibration(None)),
        format!(r#"{{{constants},"ran":{RAN},"spread":null}}"#)
    );
}

#[test]
fn figure_rows() {
    let series = ScalingSeries {
        label: "parallel bands".into(),
        points: vec![(1, 2.5), (2, 1.25)],
    };
    assert_eq!(
        json(&vec![series]),
        r#"[{"label":"parallel bands","points":[[1,2.5],[2,1.25]]}]"#
    );
    let column = BreakdownColumn {
        processes: 4,
        intensity_pct: 80.0,
        temperature_pct: 15.5,
        communication_pct: 4.5,
        total_seconds: 12.0,
    };
    assert_eq!(
        json(&column),
        r#"{"processes":4,"intensity_pct":80.0,"temperature_pct":15.5,"communication_pct":4.5,"total_seconds":12.0}"#
    );
    let row = CommVolumeRow {
        processes: 2,
        halo_bytes_per_step: 1024,
        reduction_bytes_per_step: 96,
    };
    assert_eq!(
        json(&row),
        r#"{"processes":2,"halo_bytes_per_step":1024,"reduction_bytes_per_step":96}"#
    );
}
