//! The native load goes through the once-per-key cell: two plans of
//! different source compile side by side, not one behind the other, and
//! two plans of one source share one library.
//!
//! `PBTE_NATIVE_RUSTC` points at a script that is a two-party barrier in
//! front of the real `rustc`: each invocation leaves a marker and waits for
//! the other's. Were `rustc` run under a lock shared by every plan (as the
//! load cache did before the cell), the first invocation would wait for a
//! second that cannot start, give up, and its plan would fall back to the
//! row tier — which is what the test refuses.
//!
//! Its own binary: the compiler and the cache directory are process-wide
//! environment variables.

#![cfg(all(unix, not(miri)))]

use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{KernelTier, Problem};
use pbte_dsl::BoundaryCondition;
use pbte_mesh::grid::UniformGrid;
use std::os::unix::fs::PermissionsExt;

/// A two-band upwind problem, with a decay term when `decay`. The decay
/// is a statement of the emitted source, so with and without it are two
/// shapes and two libraries; `speed` lands in the flux table, so two
/// speeds are two plans of one source.
fn plan(speed: f64, decay: bool) -> Problem {
    let mut p = Problem::new("side-by-side");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(6, 6, 1.0, 1.0).build());
    p.set_steps(1e-3, 1);
    let d = p.index("d", 4);
    let b = p.index("b", 2);
    let i_var = p.variable("I", &[d, b]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.coefficient_array("vg", &[b], vec![speed, 0.5 * speed]);
    p.initial(i_var, |_, _| 1.0);
    for side in ["left", "right", "top", "bottom"] {
        p.boundary(i_var, side, BoundaryCondition::Value(1.0));
    }
    let decay = if decay { "-I[d,b] + " } else { "" };
    let form = format!("{decay}surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))");
    p.conservation_form(i_var, &form);
    p.kernel_tier(KernelTier::Native);
    p
}

#[test]
fn two_plans_compile_side_by_side() {
    let dir = std::env::temp_dir().join(format!("pbte-native-side-by-side-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meet = dir.join("meet");
    std::fs::create_dir_all(&meet).unwrap();
    let script = dir.join("rustc-after-barrier.sh");
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\n: > '{meet}'/$$\ni=0\n\
             while [ \"$(ls '{meet}' | wc -l)\" -lt 2 ]; do\n\
             i=$((i+1)); [ $i -gt 300 ] && exit 1; sleep 0.1\ndone\n\
             exec rustc \"$@\"\n",
            meet = meet.display()
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::env::set_var("PBTE_NATIVE_RUSTC", &script);
    std::env::set_var("PBTE_NATIVE_CACHE_DIR", dir.join("cache"));

    let native = |speed: f64, decay: bool| {
        let solver = plan(speed, decay).build(ExecTarget::CpuSeq).unwrap();
        let bench = solver
            .compiled
            .intensity_bench(solver.fields(), KernelTier::Native);
        assert_eq!(
            bench.tier(),
            KernelTier::Native,
            "speed {speed}, decay {decay}: {:?}",
            bench.native_fallback().map(|d| d.render())
        );
        solver.compiled.plan_reused
    };
    let libraries = || {
        let cache = std::fs::read_dir(dir.join("cache")).unwrap();
        let names = cache.map(|e| e.unwrap().file_name().into_string().unwrap());
        names.filter(|n| n.ends_with(".so")).count()
    };
    std::thread::scope(|s| {
        for decay in [false, true] {
            s.spawn(move || native(1.0, decay));
        }
    });
    assert_eq!(libraries(), 2);

    // The same content again: the plan and its library are the process's.
    let before = pbte_dsl::exec::plans_lowered();
    assert!(native(1.0, false));
    assert_eq!(pbte_dsl::exec::plans_lowered(), before);
    // Another speed is another plan of the same shape: one library.
    assert!(!native(2.0, false));
    assert_eq!(libraries(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
