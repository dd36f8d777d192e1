//! Negative-test seam for the static plan verifier.
//!
//! The shipped scenarios must verify clean (no false positives), and
//! deliberately-broken plans must produce exactly the diagnostic the
//! verifier exists to catch: an overlapping parallel write split, a
//! schedule missing a D2H the host needs, and each kind of redundant
//! transfer.

use pbte_dsl::analysis::{self, rules, WriteRegion};
use pbte_dsl::dataflow::{Policy, Transfer};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{KernelTier, Problem, StepContext};
use pbte_dsl::{BoundaryCondition, GpuStrategy, Severity};
use pbte_gpu::DeviceSpec;
use pbte_mesh::grid::UniformGrid;

const NDIRS: usize = 4;
const NBANDS: usize = 3;

/// A mini BTE-shaped problem whose callbacks *declare* their access sets,
/// so the verifier has exact information and the clean plan has zero
/// diagnostics (not even conservative warnings).
fn declared_problem(n: usize, steps: usize) -> Problem {
    let mut p = Problem::new("declared-mini-bte");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(n, n, 1.0, 1.0).build());
    p.set_steps(0.01, steps);
    let d = p.index("d", NDIRS);
    let b = p.index("b", NBANDS);
    let i_var = p.variable("I", &[d, b]);
    let io = p.variable("Io", &[b]);
    let beta = p.variable("beta", &[b]);
    let t_var = p.variable("T", &[]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.coefficient_array("vg", &[b], vec![1.0, 0.7, 0.4]);
    p.initial(i_var, |_, idx| 1.0 + 0.1 * idx[0] as f64);
    p.initial(io, |_, _| 1.0);
    p.initial(beta, |_, _| 0.5);
    p.initial(t_var, |_, _| 1.0);
    // Hot wall: depends on position/band only — declares no field reads.
    p.boundary(
        i_var,
        "left",
        BoundaryCondition::callback_reading(&[], |q| 1.5 + 0.05 * q.idx[1] as f64),
    );
    p.boundary(i_var, "right", BoundaryCondition::Value(1.0));
    // Symmetry walls: the ghost reads the interior intensity.
    for region in ["top", "bottom"] {
        p.boundary(
            i_var,
            region,
            BoundaryCondition::callback_reading(&["I"], |q| {
                let r = match q.idx[0] {
                    1 => 3,
                    3 => 1,
                    other => other,
                };
                let i_id = q.fields.var_id("I").unwrap();
                q.fields.value(i_id, q.owner_cell, r * NBANDS + q.idx[1])
            }),
        );
    }
    // Temperature-like update with declared access sets.
    p.post_step(
        "temperature",
        &["I", "T"],
        &["T", "Io", "beta"],
        move |ctx: &mut StepContext| {
            let n_cells = ctx.fields.n_cells;
            for cell in 0..n_cells {
                let mut e = 0.0;
                for dd in 0..NDIRS {
                    for bb in 0..NBANDS {
                        e += ctx.fields.value(0, cell, dd * NBANDS + bb);
                    }
                }
                let t = e / (NDIRS * NBANDS) as f64;
                ctx.fields.set(3, cell, 0, t);
                for bb in 0..NBANDS {
                    ctx.fields.set(1, cell, bb, t);
                    ctx.fields.set(2, cell, bb, 0.5 + 0.01 * t);
                }
            }
        },
    );
    p.conservation_form(
        i_var,
        "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    p
}

fn gpu_target() -> ExecTarget {
    ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    }
}

/// The six targets.
fn every_target() -> [ExecTarget; 6] {
    [
        ExecTarget::CpuSeq,
        ExecTarget::CpuParallel,
        ExecTarget::DistCells { ranks: 3 },
        ExecTarget::DistBands {
            ranks: 3,
            index: "b".into(),
        },
        gpu_target(),
        ExecTarget::DistBandsGpu {
            ranks: 3,
            index: "b".into(),
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
    ]
}

#[test]
fn declared_plan_is_clean_on_every_target_and_tier() {
    for target in &every_target() {
        for tier in [KernelTier::Vm, KernelTier::Row] {
            let mut p = declared_problem(6, 2);
            p.kernel_tier(tier);
            let solver = p.build(target.clone()).unwrap();
            let diags = solver.compiled.verify_plan(&solver.target);
            assert!(
                diags.is_empty(),
                "{target:?}/{tier:?} should verify clean, got: {:?}",
                diags.iter().map(|d| d.render()).collect::<Vec<_>>()
            );
        }
    }
}

/// No false positive from the run proof on a compiled-flux plan: on the
/// mesh of `jittered_array.pbte` (no flux table, so no orientation
/// classes) the run tables are the connectivity and the walls alone — 24
/// rows of 22 cells and the two x-end columns of 22, every cell but the 4
/// corners — and `geometry/run-mismatch` proves them without classes, on
/// the sequential scope and on the fanned-out one.
#[test]
fn compiled_flux_plan_with_runs_verifies_clean_on_seq_and_par() {
    let msh = include_str!("../../../examples/meshes/jittered_array.msh");
    for target in [ExecTarget::CpuSeq, ExecTarget::CpuParallel] {
        let mut p = Problem::new("jittered-runs");
        p.domain(2);
        p.mesh(pbte_mesh::gmsh::parse_msh(msh).unwrap());
        p.set_steps(1e-3, 1);
        let d = p.index("d", 2);
        let i_var = p.variable("I", &[d]);
        p.coefficient_array("Sx", &[d], vec![0.6, -0.8]);
        p.coefficient_array("Sy", &[d], vec![0.8, 0.6]);
        for side in ["left", "right", "top", "bottom"] {
            p.boundary(i_var, side, BoundaryCondition::Value(0.0));
        }
        p.conservation_form(i_var, "surface(upwind([Sx[d];Sy[d]], I[d]))");
        let solver = p.build(target.clone()).unwrap();
        let cp = &solver.compiled;
        assert_eq!(
            cp.flux_path(KernelTier::Row),
            pbte_dsl::exec::FluxPath::Compiled
        );
        let bench = cp.intensity_bench(solver.fields(), KernelTier::Row);
        assert_eq!(bench.run_cells(), 24 * 24 - 4);
        let diags = cp.verify_plan(&target);
        assert!(diags.is_empty(), "{target:?}: {diags:?}");
    }
}

/// A table plan whose stencil runs read all three kinds of slot: a 12 × 12
/// grid, 4 directions × 3 bands, its bottom and top walls fixed values
/// (ghost rows), its left and right walls gathers, each side its own
/// permutation of the directions (two gather columns). Its rows and its
/// x-end columns are runs of 10 cells; only the corners are left.
fn walled_runs_problem() -> Problem {
    let mut p = Problem::new("walled-runs");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(12, 12, 1.0, 1.0).build());
    p.set_steps(1e-3, 1);
    let d = p.index("d", NDIRS);
    let b = p.index("b", NBANDS);
    let i_var = p.variable("I", &[d, b]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.initial(i_var, |x, idx| (3.0 * x.x + x.y + idx[0] as f64).sin());
    p.boundary(i_var, "bottom", BoundaryCondition::Value(1.0));
    p.boundary(i_var, "top", BoundaryCondition::Value(0.5));
    for (side, shift) in [("left", 2), ("right", 1)] {
        let source = move |idx: &[usize]| ((idx[0] + shift) % NDIRS) * NBANDS + idx[1];
        p.boundary(
            i_var,
            side,
            BoundaryCondition::gather(
                &["I"],
                move |q| q.fields.value(0, q.owner_cell, source(q.idx)),
                move |_, idx| Some(source(idx)),
            ),
        );
    }
    p.conservation_form(i_var, "-I[d,b] + surface(upwind([Sx[d];Sy[d]], I[d,b]))");
    p
}

/// The run descriptors are proved, not trusted, on every target: a ghost
/// row's step off by one, a gather column swapped for the other side's,
/// and a changed stride — each on a run drawn from a seed — are each
/// refused by `verify_plan` under `geometry/run-mismatch` and nothing
/// else.
#[test]
fn tampered_run_descriptors_are_refused_on_every_target() {
    use pbte_dsl::exec::{StencilRun, SLOT_GATHER, SLOT_ROW};
    let mut state = 0x5EED_0045_u64;
    let mut draw = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ state >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z ^ z >> 27) >> 16) as usize % n
    };
    // A drawn (run, slot) of `kind` over both tables: stride-1 first.
    fn slots(runs: &[StencilRun], kind: u32) -> Vec<(usize, usize)> {
        let slots = runs.iter().enumerate().flat_map(|(r, run)| {
            (0..run.nf as usize)
                .filter(move |&s| run.kind[s] == kind)
                .map(move |s| (r, s))
        });
        slots.collect()
    }
    type Tamper = Box<dyn Fn(&mut Vec<StencilRun>, &mut Vec<StencilRun>)>;
    let (rows, strided) = {
        let mut clean = walled_runs_problem().build(ExecTarget::CpuSeq).unwrap();
        let (rows, strided) = clean.compiled.stencil_runs_mut();
        (rows.clone(), strided.clone())
    };
    assert_eq!((rows.len(), strided.len()), (12, 2));
    let ghost = slots(&rows, SLOT_ROW);
    let gather = slots(&strided, SLOT_GATHER);
    let all = rows.len() + strided.len();
    let (g, c, r) = (
        ghost[draw(ghost.len())],
        gather[draw(gather.len())],
        draw(all),
    );
    let tampers: [(&str, Tamper); 3] = [
        (
            "ghost-row step",
            Box::new(move |rows, _| rows[g.0].step[g.1] += 1),
        ),
        (
            "gather column",
            Box::new(move |_, strided| strided[c.0].at[c.1] ^= 1),
        ),
        (
            "stride",
            Box::new(move |rows, strided| match r < rows.len() {
                true => rows[r].stride += 1,
                false => strided[r - rows.len()].stride += 1,
            }),
        ),
    ];
    for target in every_target() {
        let clean = walled_runs_problem().build(target.clone()).unwrap();
        let diags = clean.compiled.verify_plan(&target);
        assert!(diags.is_empty(), "{target:?}: {diags:?}");
        for (what, tamper) in &tampers {
            let mut solver = walled_runs_problem().build(target.clone()).unwrap();
            let (rows, strided) = solver.compiled.stencil_runs_mut();
            tamper(rows, strided);
            let diags = solver.compiled.verify_plan(&target);
            let fired: Vec<_> = diags.iter().map(|d| (d.rule, d.severity)).collect();
            assert_eq!(
                fired,
                [(rules::RUN_MISMATCH, Severity::Error)],
                "{what} on {target:?}: {diags:?}"
            );
        }
    }
}

#[test]
fn overlapping_write_split_reports_the_race() {
    // Two "thread" regions both claim cell 5 of flat 0 — the exact bug the
    // disjointness prover exists to rule out in the cell-span split.
    let regions = vec![
        WriteRegion {
            label: "thread 0",
            flats: &[0, 1],
            cells: 0..6,
        },
        WriteRegion {
            label: "thread 1",
            flats: &[0, 1],
            cells: 5..10,
        },
    ];
    let diags = analysis::check_disjoint_writes("I", 2, 10, regions);
    let races: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == rules::OVERLAPPING_WRITE)
        .collect();
    assert_eq!(races.len(), 1, "exactly one overlap pair: {diags:?}");
    let d = races[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.entity, "I");
    assert!(
        d.location.contains("thread 0") && d.location.contains("thread 1"),
        "location names both regions: {}",
        d.location
    );
    // Disjoint regions covering everything: no diagnostics at all.
    let clean = vec![
        WriteRegion {
            label: "thread 0",
            flats: &[0, 1],
            cells: 0..5,
        },
        WriteRegion {
            label: "thread 1",
            flats: &[0, 1],
            cells: 5..10,
        },
    ];
    assert!(analysis::check_disjoint_writes("I", 2, 10, clean).is_empty());
}

/// The race pass proves the value the driver runs: tamper with the tile
/// list of a scope `rank_scopes` built — on a sequential rank and on a
/// fanned-out one — and the partition synthesized from *that scope* fires
/// exactly the rule for what was broken.
#[test]
fn tampered_tile_list_fires_through_the_synthesized_partition() {
    let solver = declared_problem(6, 1).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let (n_flat, n_cells) = (NDIRS * NBANDS, 36);
    let rules_of = |scopes: &[analysis::Scope]| -> Vec<&'static str> {
        let regions = analysis::synthesize_partition(scopes);
        let diags = analysis::check_disjoint_writes("I", n_flat, n_cells, regions);
        diags.iter().map(|d| d.rule).collect()
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap();
    for target in [ExecTarget::CpuSeq, ExecTarget::CpuParallel] {
        let scopes = pool.install(|| analysis::rank_scopes(cp, &target).unwrap());
        let parts = scopes[0].workers;
        assert_eq!(parts == 3, matches!(target, ExecTarget::CpuParallel));
        assert_eq!(scopes[0].tiles.len(), n_flat * parts);
        assert!(rules_of(&scopes).is_empty(), "the untouched scope is clean");

        // Two tiles overlapping by one cell: an extra tile on the last
        // cell of the first.
        let mut overlapping = scopes.clone();
        let first = overlapping[0].tiles[0];
        let extra = analysis::Tile {
            cell0: first.cell0 + first.len - 1,
            len: 1,
            ..first
        };
        overlapping[0].tiles.insert(1, extra);
        assert_eq!(
            rules_of(&overlapping),
            [rules::OVERLAPPING_WRITE],
            "{target:?}"
        );

        let mut dropped = scopes.clone();
        dropped[0].tiles.remove(parts);
        assert_eq!(rules_of(&dropped), [rules::INCOMPLETE_COVER], "{target:?}");
    }
}

/// The halo a cell-partitioned rank sends is derived once, from the rank
/// scopes: every cell it lists is its own and touches the peer it goes to,
/// each peer's list is sorted without repeats, and adjacency is mutual —
/// a rank hears from exactly the peers it sends to.
#[test]
fn interface_send_lists_are_owned_adjacent_and_deduplicated() {
    let solver = declared_problem(6, 1).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let mesh = cp.mesh();
    for ranks in [2, 3, 5] {
        let scopes = analysis::rank_scopes(cp, &ExecTarget::DistCells { ranks }).unwrap();
        let mut part = vec![usize::MAX; mesh.n_cells()];
        for (r, scope) in scopes.iter().enumerate() {
            scope.cells.iter().for_each(|&c| part[c] = r);
        }
        let lists = analysis::interface_send_lists(cp, &scopes);
        assert_eq!(lists.len(), ranks);
        for (r, list) in lists.iter().enumerate() {
            assert!(!list.is_empty(), "{ranks} ranks: rank {r} has a neighbour");
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "peers ascend");
            for (peer, cells) in list {
                assert_ne!(*peer, r);
                assert!(cells.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
                for &c in cells {
                    assert_eq!(part[c], r, "a rank sends only its own cells");
                    assert!(mesh.neighbors(c).any(|nb| part[nb] == *peer), "cell {c}");
                }
                assert!(lists[*peer].iter().any(|(p, _)| *p == r), "mutual");
            }
        }
    }
}

/// An expression initial fills after every closure initial, in declaration
/// order, and may read only what is filled by then. Reading a variable
/// with a closure initial (wherever it was declared) or an earlier
/// expression initial is clean; reading the variable being initialised, a
/// later expression initial's variable, or one with no initial at all is
/// refused by the access pass, naming the variable and what it read.
#[test]
fn expression_initial_reading_uninitialised_data_is_refused() {
    let build = |initials: &[(&str, &str)], drop_closure_of: Option<&str>| {
        let mut p = declared_problem(4, 1);
        if let Some(name) = drop_closure_of {
            let var = p.registry.variable_id(name).unwrap();
            p.initials.retain(|(v, _)| *v != var);
        }
        for (name, rhs) in initials {
            let var = p.registry.variable_id(name).unwrap();
            p.initial_expr(var, rhs);
        }
        let solver = p.build(ExecTarget::CpuSeq).unwrap();
        let findings: Vec<(String, String)> = (solver.compiled.verify_plan(&solver.target).iter())
            .map(|d| {
                assert_eq!(
                    (d.rule, d.severity),
                    (rules::UNINITIALISED_READ, Severity::Error)
                );
                (d.entity.clone(), d.message.clone())
            })
            .collect();
        (findings, solver)
    };

    // Clean: `I` from `Io` (a closure initial), `beta` from the `I` just
    // filled; the rows are the values read.
    let (findings, solver) = build(&[("I", "Io[b] + d"), ("beta", "0.5 * I[1,b]")], None);
    assert!(findings.is_empty(), "{findings:?}");
    let (i_var, beta) = (0, 2);
    for flat in 0..NDIRS * NBANDS {
        let d = (flat / NBANDS + 1) as f64;
        assert_eq!(solver.fields().value(i_var, 3, flat), 1.0 + d);
    }
    assert_eq!(solver.fields().value(beta, 3, 1), 0.5 * 2.0);

    let (findings, _) = build(&[("I", "0.5 * I[d,b]")], None);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, "I");
    assert!(findings[0].1.contains("the variable it initialises"));

    // `T` keeps no initial at all; and `Io` is only filled by the
    // expression declared after the one that reads it.
    let (findings, _) = build(&[("I", "Io[b] * T")], Some("T"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].1.contains("reads `T`"), "{findings:?}");
    let (findings, _) = build(&[("I", "Io[b]"), ("Io", "2.0")], Some("Io"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, "I");
    assert!(findings[0].1.contains("reads `Io`"), "{findings:?}");
}

/// The register file bounds every program the `vm` tier runs: a compiled
/// statement writing past it (the compiler refuses such an expression)
/// is `bytecode/use-before-def` — the same rule a bound program's
/// out-of-file destination fires — and the access pass names the
/// statement.
#[test]
fn a_compiled_destination_past_the_register_file_is_use_before_def() {
    let clean = declared_problem(4, 1).build(ExecTarget::CpuSeq).unwrap();
    assert!(clean.compiled.verify_plan(&clean.target).is_empty());
    let mut solver = declared_problem(4, 1).build(ExecTarget::CpuSeq).unwrap();
    let last = solver.compiled.plan_mut().volume.stmts.last_mut().unwrap();
    last.dst = pbte_dsl::bytecode::MAX_REGS as u8;
    let diags = solver.compiled.verify_plan(&solver.target);
    let fired: Vec<_> = diags
        .iter()
        .map(|d| (d.rule, d.location.as_str()))
        .collect();
    let at = format!(
        "volume kernel (vm), op {}",
        solver.compiled.volume.stmts.len() - 1
    );
    assert_eq!(fired[0], (rules::USE_BEFORE_DEF, at.as_str()), "{diags:?}");
    assert!(
        fired.iter().all(|&(rule, _)| rule == rules::USE_BEFORE_DEF),
        "{diags:?}"
    );
}

#[test]
fn schedule_missing_a_d2h_is_a_stale_read() {
    let solver = declared_problem(6, 2).build(gpu_target()).unwrap();
    let cp = &solver.compiled;
    let mut schedule = cp.transfer_schedule();
    assert!(
        analysis::check_schedule(cp, &schedule).is_empty(),
        "unmodified schedule must be clean"
    );
    // Drop the D2H of the unknown: the temperature post-step (declared
    // reader of I) would then consume stale host data every step.
    let before = schedule.transfers.len();
    schedule.transfers.retain(|t| t.name != "I" || t.to_device);
    assert_eq!(before - 1, schedule.transfers.len(), "one D2H of I removed");
    let diags = analysis::check_schedule(cp, &schedule);
    assert_eq!(diags.len(), 1, "exactly the seeded defect: {diags:?}");
    assert_eq!(diags[0].rule, rules::STALE_READ);
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].entity, "I");
}

/// One `transfer/redundant` branch per row, each seeded alone into a clean
/// schedule: the verifier fires exactly that rule, on that entity.
#[test]
fn transfer_nothing_reads_is_redundant() {
    let declared = declared_problem(6, 2).build(gpu_target()).unwrap();
    // No host code touches the unknown: every wall lowered, no callback.
    let mut p = Problem::new("quiet-host");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
    p.set_steps(0.01, 2);
    let d = p.index("d", 2);
    let i_var = p.variable("I", &[d]);
    p.coefficient_array("Sx", &[d], vec![1.0, -1.0]);
    p.coefficient_array("Sy", &[d], vec![0.5, -0.5]);
    p.initial(i_var, |_, _| 1.0);
    for region in ["left", "right", "top", "bottom"] {
        p.boundary(i_var, region, BoundaryCondition::Value(0.0));
    }
    p.conservation_form(i_var, "surface(upwind([Sx[d];Sy[d]], I[d]))");
    let quiet = p.build(gpu_target()).unwrap();

    let line = |name: &str, to_device: bool, policy: Policy| Transfer {
        name: name.into(),
        to_device,
        policy,
        reason: "seeded defect".into(),
    };
    let rows = [
        (
            "an upload the device never reads",
            &declared,
            line("T", true, Policy::Once),
        ),
        (
            "a per-step upload no host code rewrites",
            &declared,
            line("vg", true, Policy::EveryStep),
        ),
        (
            "a download of an entity the device never writes",
            &declared,
            line("Io", false, Policy::EveryStep),
        ),
        (
            "a download no host code reads",
            &quiet,
            line("I", false, Policy::EveryStep),
        ),
        (
            "the same copy twice",
            &declared,
            line("I", true, Policy::EveryStep),
        ),
        (
            "a one-time upload beside a per-step one",
            &declared,
            line("I", true, Policy::Once),
        ),
    ];
    for (case, solver, seeded) in rows {
        let cp = &solver.compiled;
        let mut schedule = cp.transfer_schedule();
        assert!(analysis::check_schedule(cp, &schedule).is_empty(), "{case}");
        let entity = seeded.name.clone();
        schedule.transfers.push(seeded);
        let diags = analysis::check_schedule(cp, &schedule);
        let fired: Vec<_> = (diags.iter())
            .map(|d| (d.rule, d.entity.as_str(), d.severity))
            .collect();
        let want = (rules::REDUNDANT_TRANSFER, entity.as_str(), Severity::Error);
        assert_eq!(fired, [want], "{case}: {diags:?}");
    }
}

/// A callback that declares rewriting the unknown re-uploads it every
/// step: the rewrite is a declared host write, so leaving it out would be
/// a stale read.
#[test]
fn a_callback_rewriting_the_unknown_re_uploads_it() {
    let mut p = declared_problem(6, 2);
    p.post_step("relax", &[], &["I"], |_| {});
    let solver = p
        .build(ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        })
        .unwrap();
    let cp = &solver.compiled;
    let schedule = cp.transfer_schedule();
    assert!(
        schedule.each_step_h2d().contains(&"I"),
        "{}",
        schedule.render()
    );
    assert!(analysis::check_schedule(cp, &schedule).is_empty());
}

/// A declared name that is no variable — the post-step's `Io` spelled
/// `Iq`, a wall reading `J` — is refused by `compile` on every target, in
/// every build, naming the callback and the name: dropping it would leave
/// `Io` uploaded once and never again on the device targets.
#[test]
fn a_misspelled_declared_name_is_refused_at_compile_on_every_target() {
    type Misspell = fn(&mut Problem);
    let cases: [(Misspell, &str); 2] = [
        (
            |p| p.post_steps[0].writes = vec!["T".into(), "Iq".into(), "beta".into()],
            "step callback `temperature` declares `Iq`",
        ),
        (
            |p| p.boundary_conditions[0].2 = BoundaryCondition::callback_reading(&["J"], |_| 1.0),
            "boundary callback on `left` declares `J`",
        ),
    ];
    for (misspell, want) in cases {
        for target in every_target() {
            let mut p = declared_problem(6, 2);
            misspell(&mut p);
            let err = p.build(target.clone()).err();
            let err = err.unwrap_or_else(|| panic!("{target:?}: built"));
            assert!(err.to_string().contains(want), "{target:?}: {err}");
        }
    }
}

/// Debug builds hold a step callback to its declared writes: one that
/// rewrites `beta` while declaring no write panics naming both, on the
/// first step — the transfer proof would otherwise upload `beta` once.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "step callback `sneaky` wrote `beta`, which it does not declare")]
fn a_callback_writing_an_undeclared_variable_panics_in_debug_builds() {
    let mut p = declared_problem(4, 1);
    p.post_step("sneaky", &["beta"], &[], |ctx| {
        let beta = ctx.fields.var_id("beta").unwrap();
        ctx.fields.set(beta, 0, 0, 0.25);
    });
    p.build(ExecTarget::CpuSeq).unwrap().solve().unwrap();
}

#[test]
fn diagnostics_render_as_json() {
    let regions = vec![
        WriteRegion {
            label: "a",
            flats: &[0],
            cells: 0..2,
        },
        WriteRegion {
            label: "b",
            flats: &[0],
            cells: 1..2,
        },
    ];
    let diags = analysis::check_disjoint_writes("I", 1, 2, regions);
    let json = analysis::render_json(&diags);
    assert!(json.starts_with('['), "array output: {json}");
    assert!(json.contains("\"rule\""), "rule field present: {json}");
    assert!(
        json.contains(rules::OVERLAPPING_WRITE),
        "rule id appears: {json}"
    );
    assert!(json.contains("\"severity\":\"error\""), "severity: {json}");
}
