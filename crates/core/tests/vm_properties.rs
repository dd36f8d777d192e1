//! Property tests for the compiled-kernel layer.
//!
//! 1. The `vm` tier's evaluation of the compiled statements computes the
//!    same values as the reference symbolic evaluator on randomly
//!    generated volume expressions (the "generated code" is faithful to
//!    the mathematics it was generated from).
//! 2. Per-flat binding (`Program::bind`) is an exact specialization.
//! 3. Discrete conservation: with a pure-flux equation, the mass change of
//!    a step equals the net boundary exchange — interior fluxes cancel in
//!    pairs by construction of the owner/neighbor evaluation.
//! 4. The RK2 transform is second-order accurate (Euler is first-order).
//! 5. A flux program bound like a volume program (row evaluation over
//!    face inputs) is bit-identical to the `vm` tier on every face,
//!    special values and the upwind branch edge included.
//! 6. On a grid of any size, with a fixed-value wall and a gather wall,
//!    any renumbering of its cells and any cut of the cell range into
//!    spans, the three kernel tiers agree bit for bit — the stencil runs
//!    Row and Native walk (rows, wall rows and x-end columns) are the CSR
//!    walk of the per-dof tiers.
//! 7. The same on the *compiled* flux (a jittered mesh, more orientations
//!    than the flux table holds): runs found from the connectivity and the
//!    walls alone, normals read from the per-slot oriented column, quads,
//!    triangles and hexahedra, with and without runs.

use proptest::prelude::*;
use std::collections::HashMap;

use pbte_dsl::bytecode::{
    Binding, Compiler, KernelKind, VmCtx, FACE_INPUTS, FACE_NORMAL, FACE_U1, FACE_U2, ROW_CHUNK,
};
use pbte_dsl::entities::Fields;
use pbte_dsl::exec::{ExecTarget, FluxPath};
use pbte_dsl::problem::{BoundaryCondition, KernelTier, Problem, TimeStepper};
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::Mesh;
use pbte_symbolic::expr::{CmpOp, Expr, ExprRef};
use pbte_symbolic::{eval, substitute_indices, EvalContext};

const ND: usize = 3;
const NB: usize = 4;

/// A problem registry with I[d,b], Io[b], vg[b], k.
fn registry_problem() -> Problem {
    let mut p = Problem::new("vmprops");
    p.domain(2);
    let d = p.index("d", ND);
    let b = p.index("b", NB);
    let _ = p.variable("I", &[d, b]);
    let _ = p.variable("Io", &[b]);
    p.coefficient_array("vg", &[b], vec![1.5, 2.5, 0.5, 3.0]);
    p.coefficient_scalar("k", 2.5);
    p
}

/// Random *volume* expressions over the registry's symbols. Exponents stay
/// small non-negative integers and function arguments are scaled so every
/// evaluation is finite.
fn arb_volume_expr() -> impl Strategy<Value = ExprRef> {
    let leaf = prop_oneof![
        (-3i32..4).prop_map(|v| Expr::num(v as f64)),
        Just(Expr::sym_indexed("I", vec![Expr::sym("d"), Expr::sym("b")])),
        Just(Expr::sym_indexed("Io", vec![Expr::sym("b")])),
        Just(Expr::sym_indexed("vg", vec![Expr::sym("b")])),
        Just(Expr::sym("k")),
        Just(Expr::sym("dt")),
        Just(Expr::sym("d")),
        Just(Expr::sym("b")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::add),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Expr::mul),
            (inner.clone(), 2u32..4).prop_map(|(b, n)| Expr::pow(b, Expr::num(n as f64))),
            inner
                .clone()
                .prop_map(|a| Expr::call("sin", vec![Expr::mul(vec![Expr::num(0.01), a])])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::conditional(
                Expr::cmp(CmpOp::Gt, Expr::sym("b"), Expr::num(2.0)),
                a,
                b
            )),
        ]
    })
}

/// Reference context: resolves the registry's symbols for the symbolic
/// evaluator after 1-based index substitution.
struct RefCtx<'a> {
    fields: &'a Fields,
    cell: usize,
    dt: f64,
}

impl EvalContext for RefCtx<'_> {
    fn symbol(&self, name: &str, indices: &[i64]) -> Option<f64> {
        match (name, indices.len()) {
            ("I", 2) => Some(self.fields.value(
                0,
                self.cell,
                (indices[0] as usize - 1) * NB + (indices[1] as usize - 1),
            )),
            ("Io", 1) => Some(self.fields.value(1, self.cell, indices[0] as usize - 1)),
            ("vg", 1) => Some([1.5, 2.5, 0.5, 3.0][indices[0] as usize - 1]),
            ("k", 0) => Some(2.5),
            ("dt", 0) => Some(self.dt),
            _ => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vm_matches_symbolic_evaluator(
        e in arb_volume_expr(),
        seed in any::<u64>(),
    ) {
        let p = registry_problem();
        let compiler = Compiler::new(&p.registry, 0, KernelKind::Volume);
        let program = compiler.compile(&e).expect("volume expr compiles");

        // Random fields.
        let mut fields = Fields::new(&p.registry, 4);
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for v in 0..2 {
            for i in 0..fields.slice(v).len() {
                let val = next();
                let n_cells = fields.n_cells;
                fields.slice_mut(v)[i] = val;
                let _ = n_cells;
            }
        }
        let vars = fields.as_slices();
        let dt = 0.125;

        for cell in 0..4 {
            for dd in 0..ND {
                for bb in 0..NB {
                    let idx = [dd, bb];
                    let vm = VmCtx {
                        vars: &vars,
                        n_cells: 4,
                        coefficients: &p.registry.coefficients,
                        idx: &idx,
                        cell,
                        u1: 0.0,
                        u2: 0.0,
                        normal: [0.0; 3],
                        position: pbte_mesh::Point::zero(),
                        dt,
                        time: 0.0,
                    };
                    let got = program.eval(&vm);

                    // Reference: substitute 1-based index values, then eval.
                    let mut ivals = HashMap::new();
                    ivals.insert("d".to_string(), dd as i64 + 1);
                    ivals.insert("b".to_string(), bb as i64 + 1);
                    let substituted = substitute_indices(&e, &ivals);
                    let reference = eval(
                        &substituted,
                        &RefCtx { fields: &fields, cell, dt },
                    )
                    .expect("reference evaluates");

                    let close = (got - reference).abs()
                        <= 1e-9 * (1.0 + got.abs().max(reference.abs()))
                        || (got.is_nan() && reference.is_nan());
                    prop_assert!(close, "cell {cell} d {dd} b {bb}: vm {got} vs ref {reference} for {e}");
                }
            }
        }

        // Property 2: per-flat binding is an exact specialization — the
        // bound row kernel is bit-identical to the `vm` tier on every cell,
        // for any span split.
        let centroids = vec![pbte_mesh::Point::zero(); 4];
        for dd in 0..ND {
            for bb in 0..NB {
                let idx = [dd, bb];
                let binding = Binding {
                    idx: &idx,
                    n_cells: 4,
                    dt,
                    coefficients: &p.registry.coefficients,
                };
                let reg = program.bind(&binding);
                let mut regs = vec![[0.0; ROW_CHUNK]; reg.n_regs()];
                let mut row = [0.0f64; 4];
                reg.eval_row(&vars, 0, &mut row, &centroids, 0.0, &mut regs);
                // Split evaluation must agree with the whole-row one.
                let mut split = [0.0f64; 4];
                reg.eval_row(&vars, 0, &mut split[..1], &centroids, 0.0, &mut regs);
                reg.eval_row(&vars, 1, &mut split[1..], &centroids, 0.0, &mut regs);
                for cell in 0..4 {
                    let vm = program.eval(&VmCtx {
                        vars: &vars,
                        n_cells: 4,
                        coefficients: &p.registry.coefficients,
                        idx: &idx,
                        cell,
                        u1: 0.0,
                        u2: 0.0,
                        normal: [0.0; 3],
                        position: pbte_mesh::Point::zero(),
                        dt,
                        time: 0.0,
                    });
                    prop_assert!(
                        row[cell].to_bits() == vm.to_bits(),
                        "row kernel differs at cell {cell} d {dd} b {bb}: {} vs vm {vm} for {e}",
                        row[cell]
                    );
                    prop_assert!(
                        split[cell].to_bits() == row[cell].to_bits(),
                        "span split changed cell {cell}: {} vs {}",
                        split[cell],
                        row[cell]
                    );
                }
                // Property 2b: the bound program — the statement list the
                // native tier prints — is *symbolically* equal to the
                // compiled statements executed under the same fold: the abstract
                // interpretation the `--validate` chain and the native tier
                // run before any generated source reaches rustc. This is
                // purely symbolic (no compilation), so it runs everywhere,
                // including miri.
                let mut diags = Vec::new();
                pbte_dsl::analysis::check_reg(
                    &program,
                    &binding,
                    &reg,
                    "vm_properties",
                    &mut diags,
                );
                prop_assert!(
                    diags.is_empty(),
                    "binding diverges symbolically for {e}: {:?}",
                    diags.iter().map(|d| d.render()).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Property 3: one explicit step of a pure-flux equation changes total
    /// mass exactly by the boundary exchange.
    #[test]
    fn flux_step_conserves_mass_up_to_the_boundary(
        amplitudes in prop::collection::vec(-1.0f64..1.0, 16),
        bx in -1.0f64..1.0,
        by in -1.0f64..1.0,
    ) {
        let n = 4;
        let mut p = Problem::new("conserve");
        p.domain(2);
        p.mesh(UniformGrid::new_2d(n, n, 1.0, 1.0).build());
        let dt = 1e-2;
        p.set_steps(dt, 1);
        let u = p.variable("u", &[]);
        p.vector_coefficient("bvec", vec![bx, by]);
        let amps = amplitudes.clone();
        p.initial(u, move |pt, _| {
            let i = (pt.x * n as f64) as usize;
            let j = (pt.y * n as f64) as usize;
            2.0 + amps[(j * n + i).min(15)]
        });
        for region in ["left", "right", "top", "bottom"] {
            p.boundary(u, region, BoundaryCondition::Value(2.0));
        }
        p.conservation_form(u, "surface(upwind(bvec, u))");
        let mut solver = p.build(ExecTarget::CpuSeq).unwrap();

        let cell_volume = 1.0 / (n * n) as f64;
        let before: f64 = solver.fields().slice(0).iter().sum::<f64>() * cell_volume;

        // Independent boundary-exchange accounting from the initial state:
        // for each boundary face, upwind flux with ghost = 2.
        let initial = solver.fields().clone();
        let mesh = UniformGrid::new_2d(n, n, 1.0, 1.0).build();
        let mut boundary_outflow = 0.0;
        for f in &mesh.faces {
            if !f.is_boundary() {
                continue;
            }
            let vn = bx * f.normal.x + by * f.normal.y;
            let upwind_value = if vn > 0.0 {
                initial.value(0, f.owner, 0)
            } else {
                2.0
            };
            boundary_outflow += f.area * vn * upwind_value;
        }

        solver.solve().unwrap();
        let after: f64 = solver.fields().slice(0).iter().sum::<f64>() * cell_volume;
        let expected = before - dt * boundary_outflow;
        prop_assert!(
            (after - expected).abs() < 1e-12 * (1.0 + after.abs()),
            "mass {before} -> {after}, expected {expected} (interior fluxes must cancel)"
        );
    }
}

#[test]
fn rk2_is_second_order_on_exponential_decay() {
    // du/dt = -k u with flux-free dynamics: exact solution u0·exp(-k t).
    let run = |stepper: TimeStepper, dt: f64, t_end: f64| -> f64 {
        let steps = (t_end / dt).round() as usize;
        let mut p = Problem::new("decay");
        p.domain(2);
        p.mesh(UniformGrid::new_2d(2, 2, 1.0, 1.0).build());
        p.time_stepper(stepper);
        p.set_steps(dt, steps);
        let u = p.variable("u", &[]);
        p.coefficient_scalar("k", 3.0);
        p.initial(u, |_, _| 1.0);
        for region in ["left", "right", "top", "bottom"] {
            // Spatially uniform: any ghost equal to the field keeps the
            // flux zero; there is no flux term at all here.
            p.boundary(u, region, BoundaryCondition::Value(1.0));
        }
        p.conservation_form(u, "-k*u");
        let mut solver = p.build(ExecTarget::CpuSeq).unwrap();
        solver.solve().unwrap();
        solver.fields().value(0, 0, 0)
    };
    let exact = (-3.0f64 * 0.5).exp();
    let order = |stepper: TimeStepper| {
        let e1 = (run(stepper, 0.025, 0.5) - exact).abs();
        let e2 = (run(stepper, 0.0125, 0.5) - exact).abs();
        (e1 / e2).log2()
    };
    let euler_order = order(TimeStepper::EulerExplicit);
    let rk2_order = order(TimeStepper::Rk2);
    assert!(
        (0.8..1.3).contains(&euler_order),
        "Euler must be first order, got {euler_order}"
    );
    assert!(
        (1.8..2.3).contains(&rk2_order),
        "RK2 must be second order, got {rk2_order}"
    );
}

/// Property 5. The upwind flux of the BTE, `vg·cond(v·n > 0, (v·n)·u1,
/// (v·n)·u2)`, compiled as the pipeline expands it. Faces carry random
/// normals and unknowns salted with `±0.0`, `NaN`, `±inf`, and normals
/// exactly perpendicular to a direction (`v·n == 0`, the branch edge, where
/// `0 · inf` must come out as the same NaN). The face inputs are the
/// pseudo-variables a bound flux program loads, so evaluating the row
/// program over a lane range is evaluating it over face slots; the result
/// must not depend on where a span of faces is cut.
#[test]
fn compiled_flux_matches_the_vm_bitwise_for_any_span_split() {
    const N: usize = 2 * ROW_CHUNK + 9;
    let mut p = Problem::new("flux-props");
    p.domain(2);
    let d = p.index("d", 4);
    let b = p.index("b", 2);
    let i_var = p.variable("I", &[d, b]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -0.6, 0.28]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.8, -0.96]);
    p.coefficient_array("vg", &[b], vec![1.5, 0.25]);
    p.conservation_form(i_var, "surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))");
    let sys = p.analyze().unwrap();
    let program = Compiler::new(&p.registry, i_var, KernelKind::Flux)
        .compile(&sys.flux_expr)
        .unwrap();
    let face_base = program.face_base as usize;
    assert_eq!(face_base, p.registry.variables.len());

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0];
    let mut lanes = vec![vec![0.0f64; N]; FACE_INPUTS];
    for l in 0..N {
        let theta = std::f64::consts::PI * next();
        let mut normal = [theta.cos(), theta.sin(), 0.0];
        if l % 5 == 0 {
            // Perpendicular to direction 0 or 1, flipped every other time.
            normal = [[0.0, 1.0, 0.0], [-1.0, 0.0, -0.0]][(l / 5) % 2];
        }
        lanes[FACE_U1 as usize][l] = if l % 3 == 0 {
            special[(l / 3) % 6]
        } else {
            next()
        };
        lanes[FACE_U2 as usize][l] = if l % 7 == 0 {
            special[(l / 7) % 6]
        } else {
            next()
        };
        for (axis, component) in normal.into_iter().enumerate() {
            lanes[FACE_NORMAL as usize + axis][l] = component;
        }
    }
    // Real variables first (a compiled flux reads none), face inputs after.
    let mut vars: Vec<&[f64]> = vec![&[]; face_base];
    vars.extend(lanes.iter().map(|lane| lane.as_slice()));

    for flat in 0..8 {
        let idx = [flat / 2, flat % 2];
        let reg = program.bind(&Binding {
            idx: &idx,
            n_cells: 1,
            dt: 0.1,
            coefficients: &p.registry.coefficients,
        });
        let mut regs = vec![[0.0; ROW_CHUNK]; reg.n_regs()];
        let reference: Vec<f64> = (0..N)
            .map(|l| {
                program.eval(&VmCtx {
                    vars: &[],
                    n_cells: 1,
                    coefficients: &p.registry.coefficients,
                    idx: &idx,
                    cell: 0,
                    u1: lanes[FACE_U1 as usize][l],
                    u2: lanes[FACE_U2 as usize][l],
                    normal: [0, 1, 2].map(|axis| lanes[FACE_NORMAL as usize + axis][l]),
                    position: pbte_mesh::Point::zero(),
                    dt: 0.1,
                    time: 0.0,
                })
            })
            .collect();
        assert!(reference.iter().any(|v| v.is_nan()) && reference.contains(&0.0));
        for span in [1, 7, ROW_CHUNK, ROW_CHUNK + 1, N] {
            let mut out = vec![0.0; N];
            for start in (0..N).step_by(span) {
                let end = (start + span).min(N);
                reg.eval_row(&vars, start, &mut out[start..end], &[], 0.0, &mut regs);
            }
            for l in 0..N {
                assert_eq!(
                    out[l].to_bits(),
                    reference[l].to_bits(),
                    "flat {flat} span {span} face {l}: row {} vs vm {}",
                    out[l],
                    reference[l]
                );
            }
        }
    }
}

/// An `nx × ny` grid over the unit square with `swaps` seeded
/// transpositions applied to its cell numbering: each one cuts the stencil
/// runs through the two cells and through their neighbors' rows. Its x
/// ends are the region `mirror`, the rest of its boundary `wall`.
fn renumbered_grid(nx: usize, ny: usize, seed: u64, swaps: usize) -> Mesh {
    let base = UniformGrid::new_2d(nx, ny, 1.0, 1.0).build();
    let mut order: Vec<usize> = (0..base.n_cells()).collect();
    let mut state = seed | 1;
    for _ in 0..2 * swaps {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (a, b) = (
            (state >> 33) as usize % order.len(),
            (state >> 13) as usize % order.len(),
        );
        order.swap(a, b);
    }
    let cells: Vec<Vec<usize>> = order
        .iter()
        .map(|&c| base.cell_vertices(c).to_vec())
        .collect();
    let mut mesh = Mesh::from_cells(2, base.vertices.clone(), &cells);
    mesh.add_boundary_region("mirror", |c| c.x < 1e-9 || c.x > 1.0 - 1e-9);
    mesh.add_boundary_region("wall", |_| true);
    mesh
}

proptest! {
    // Every case compiles its own native plan (a fraction of a second).
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 6.
    #[test]
    fn all_tiers_agree_bitwise_on_any_grid_numbering_and_span(
        nx in 9usize..24,
        ny in 3usize..13,
        seed in any::<u64>(),
        swaps in 0usize..4,
        span in 1usize..80,
    ) {
        let mut p = Problem::new("run-props");
        p.domain(2);
        p.mesh(renumbered_grid(nx, ny, seed, swaps));
        p.set_steps(1e-3, 1);
        let d = p.index("d", 3);
        let i_var = p.variable("I", &[d]);
        p.coefficient_array("Sx", &[d], vec![1.0, -0.6, 0.28]);
        p.coefficient_array("Sy", &[d], vec![0.0, 0.8, -0.96]);
        p.initial(i_var, |x, idx| (17.0 * x.x + 5.0 * x.y + idx[0] as f64).sin());
        p.boundary(i_var, "wall", BoundaryCondition::Value(0.25));
        // Each x end gathers its own permutation of the directions.
        let source = |n: pbte_mesh::Point, d: usize| if n.x < 0.0 { 2 - d } else { (d + 1) % 3 };
        p.boundary(
            i_var,
            "mirror",
            BoundaryCondition::gather(
                &["I"],
                move |q| q.fields.value(0, q.owner_cell, source(q.normal, q.idx[0])),
                move |n, idx| Some(source(n, idx[0])),
            ),
        );
        p.conservation_form(i_var, "-I[d] + surface(upwind([Sx[d];Sy[d]], I[d]))");
        let solver = p.build(ExecTarget::CpuSeq).unwrap();
        let (cp, fields) = (&solver.compiled, solver.fields());
        let sweep = |tier: KernelTier, span: usize| {
            let mut bench = cp.intensity_bench(fields, tier).split(span);
            let mut rhs = vec![0.0; fields.slice(0).len()];
            bench.run(fields, &mut rhs);
            (bench.tier(), bench.run_cells(), rhs)
        };
        let (_, run_cells, reference) = sweep(KernelTier::Vm, nx * ny);
        // An untouched grid is its rows without their ends and its x-end
        // columns without the corners, each once it reaches MIN_RUN (8)
        // cells; a renumbered one has lost some. The corners never join a
        // run.
        let rows = if nx - 2 >= 8 { ny * (nx - 2) } else { 0 };
        let columns = if ny - 2 >= 8 { 2 * (ny - 2) } else { 0 };
        prop_assert!(if swaps == 0 {
            run_cells == rows + columns
        } else {
            run_cells <= nx * ny - 4
        });
        for tier in [KernelTier::Row, KernelTier::Native] {
            let (resolved, _, got) = sweep(tier, span);
            // Native degrades to Row on a host without `rustc`.
            prop_assert!(resolved == tier || tier == KernelTier::Native);
            for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{:?} span {} dof {}: {} vs {}",
                    tier,
                    span,
                    i,
                    a,
                    b
                );
            }
        }
    }
}

/// `grid` with every interior vertex displaced by up to an eighth of a
/// cell per axis (hashed from `seed`): no two interior faces share an
/// orientation, so the flux is compiled, not tabulated. `cells_of` turns
/// the grid's cells (`base.cell_vertices(c)`, in grid order) into the
/// cell list of the mesh.
fn jittered(grid: &UniformGrid, seed: u64, cells_of: impl Fn(&Mesh) -> Vec<Vec<usize>>) -> Mesh {
    let base = grid.build();
    let h = [
        grid.lx / grid.nx as f64,
        grid.ly / grid.ny as f64,
        grid.lz / grid.nz.max(1) as f64,
    ];
    let size = [grid.lx, grid.ly, grid.lz];
    let mut vertices = base.vertices.clone();
    for (i, v) in vertices.iter_mut().enumerate() {
        let at = [v.x, v.y, v.z];
        let inside = |a: usize| at[a] > 1e-9 * size[a] && at[a] < size[a] * (1.0 - 1e-9);
        if !(0..base.dim).all(inside) {
            continue;
        }
        let unit = |axis: u64| {
            let x = (seed ^ (3 * i as u64 + axis + 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let x = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        v.x += unit(0) * 0.125 * h[0];
        v.y += unit(1) * 0.125 * h[1];
        if base.dim == 3 {
            v.z += unit(2) * 0.125 * h[2];
        }
    }
    let mut mesh = Mesh::from_cells(base.dim, vertices, &cells_of(&base));
    mesh.add_boundary_region("wall", |_| true);
    mesh
}

/// The grid's own cells, or with each pair `2i`, `2i + 1` swapped.
fn grid_cells(base: &Mesh, pair_swapped: bool) -> Vec<Vec<usize>> {
    (0..base.n_cells())
        .map(|c| base.cell_vertices(c ^ pair_swapped as usize).to_vec())
        .collect()
}

/// Per grid row: the quads of the left half, then the lower triangles of
/// the right half, then its upper triangles — three kinds of cell, each
/// numbered consecutively, so a row holds a run of 4-face cells and two of
/// 3-face cells, each ending where the kind changes.
fn tri_quad_cells(base: &Mesh, nx: usize) -> Vec<Vec<usize>> {
    let mut cells = Vec::new();
    for row in 0..base.n_cells() / nx {
        let quad = |i: usize| base.cell_vertices(row * nx + i).to_vec();
        cells.extend((0..nx / 2).map(quad));
        cells.extend((nx / 2..nx).map(|i| quad(i)[..3].to_vec()));
        cells.extend((nx / 2..nx).map(|i| {
            let q = quad(i);
            vec![q[0], q[2], q[3]]
        }));
    }
    cells
}

proptest! {
    // The emitted source does not depend on the jitter (normals are data),
    // so only a mesh shape's first case compiles its native plan.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property 7.
    #[test]
    fn all_tiers_agree_bitwise_on_the_compiled_flux_with_and_without_runs(
        seed in any::<u64>(),
    ) {
        let quads = UniformGrid::new_2d(26, 12, 1.3, 0.6);
        let mix = UniformGrid::new_2d(32, 10, 1.6, 0.5);
        let hexes = UniformGrid::new_3d(12, 5, 4, 1.2, 0.5, 0.4);
        // (mesh, cells in stencil runs): the property the fast loop needs.
        // The jittered quads are all runs but their 4 corners (rows, wall
        // rows included, and the x-end columns); the hexes are their rows,
        // their x-end columns too short for a run. A pair-swapped
        // numbering has none inside its walls: only the quads' x-end
        // columns, which the swap leaves at a constant stride. The mix
        // has, per row, runs of quads, lower and upper triangles — both
        // face counts, each run ending where the kind of cell changes —
        // and the x-end columns of quads and of lower triangles.
        let meshes: [(&str, Mesh, usize); 5] = [
            ("quads", jittered(&quads, seed, |b| grid_cells(b, false)), 26 * 12 - 4),
            ("pair-swapped quads", jittered(&quads, seed, |b| grid_cells(b, true)), 2 * 10),
            ("tri + quad mix", jittered(&mix, seed, |b| tri_quad_cells(b, 32)), 458),
            ("hexes", jittered(&hexes, seed, |b| grid_cells(b, false)), 10 * 5 * 4),
            ("pair-swapped hexes", jittered(&hexes, seed, |b| grid_cells(b, true)), 0),
        ];
        for (name, mesh, cells_in_runs) in meshes {
            let (dim, n_cells) = (mesh.dim, mesh.n_cells());
            let mut p = Problem::new("compiled-run-props");
            p.domain(dim);
            p.mesh(mesh);
            p.set_steps(1e-3, 1);
            let d = p.index("d", 3);
            let i_var = p.variable("I", &[d]);
            p.coefficient_array("Sx", &[d], vec![1.0, -0.6, 0.28]);
            p.coefficient_array("Sy", &[d], vec![0.0, 0.8, -0.96]);
            p.initial(i_var, |x, idx| (17.0 * x.x + 5.0 * x.y + 3.0 * x.z + idx[0] as f64).sin());
            p.boundary(i_var, "wall", BoundaryCondition::Value(0.25));
            if dim == 3 {
                p.coefficient_array("Sz", &[d], vec![0.0, 0.0, 0.0]);
                p.conservation_form(i_var, "-I[d] + surface(upwind([Sx[d];Sy[d];Sz[d]], I[d]))");
            } else {
                p.conservation_form(i_var, "-I[d] + surface(upwind([Sx[d];Sy[d]], I[d]))");
            }
            let solver = p.build(ExecTarget::CpuSeq).unwrap();
            let (cp, fields) = (&solver.compiled, solver.fields());
            prop_assert_eq!(cp.flux_path(KernelTier::Native), FluxPath::Compiled, "{}", name);
            let sweep = |tier: KernelTier, span: usize| {
                let mut bench = cp.intensity_bench(fields, tier).split(span);
                let mut rhs = vec![0.0; fields.slice(0).len()];
                bench.run(fields, &mut rhs);
                (bench.tier(), bench.run_cells(), rhs)
            };
            let (_, run_cells, reference) = sweep(KernelTier::Vm, n_cells);
            prop_assert_eq!(run_cells, cells_in_runs, "{}", name);
            // Tiles of 7 cells start and end inside the 24-cell runs of
            // the quads; 64 and `n_cells` straddle whole runs.
            for tier in [KernelTier::Row, KernelTier::Native] {
                for span in [1, 7, 64, n_cells] {
                    let (resolved, _, got) = sweep(tier, span);
                    // Native degrades to Row on a host without `rustc`.
                    prop_assert!(resolved == tier || tier == KernelTier::Native);
                    for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} {:?} span {} dof {}: {} vs {}",
                            name,
                            tier,
                            span,
                            i,
                            a,
                            b
                        );
                    }
                }
            }
        }
    }
}
