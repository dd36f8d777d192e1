//! Micro-benchmarks of the building blocks: the symbolic pipeline, the
//! `vm` tier's per-dof evaluation vs its bound forms, the temperature
//! Newton solve, the partitioner, and the simulated device's launch
//! machinery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pbte_bte::material::Material;
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_bte::temperature::{BteVars, TemperatureUpdate};
use pbte_dsl::bytecode::VmCtx;
use pbte_dsl::exec::CompiledProblem;
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::partition::Partition;
use pbte_mesh::{gmsh, medit, Mesh, Point};
use std::sync::Arc;

fn compiled() -> CompiledProblem {
    let cfg = BteConfig::small(8, 8, 6, 1);
    let bte = hotspot_2d(&cfg);
    CompiledProblem::compile(bte.problem).expect("compiles").0
}

fn bench_pipeline(c: &mut Criterion) {
    c.bench_function("symbolic_pipeline_bte", |b| {
        b.iter_batched(
            || hotspot_2d(&BteConfig::small(6, 8, 6, 1)).problem,
            |p| black_box(p.analyze().unwrap()),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("compile_problem_bte", |b| {
        b.iter_batched(
            || hotspot_2d(&BteConfig::small(6, 8, 6, 1)).problem,
            |p| black_box(CompiledProblem::compile(p).unwrap().0),
            BatchSize::SmallInput,
        )
    });
}

fn bench_kernel_eval(c: &mut Criterion) {
    let cp = compiled();
    let coefficients = &cp.problem.registry.coefficients;
    let fields = pbte_dsl::Fields::new(&cp.problem.registry, 64);
    let vars = fields.as_slices();
    let idx = [3usize, 2usize];

    c.bench_function("volume_vm_eval", |b| {
        let vm = VmCtx {
            vars: &vars,
            n_cells: 64,
            coefficients,
            idx: &idx,
            cell: 17,
            u1: 0.0,
            u2: 0.0,
            normal: [0.0; 3],
            position: pbte_mesh::Point::zero(),
            dt: 1e-12,
            time: 0.0,
        };
        b.iter(|| black_box(cp.volume.eval(&vm)))
    });

    c.bench_function("volume_row_eval_64", |b| {
        let reg = cp.volume.bind(&pbte_dsl::bytecode::Binding {
            idx: &idx,
            n_cells: 64,
            dt: 1e-12,
            coefficients,
        });
        let centroids = vec![pbte_mesh::Point::zero(); 64];
        let mut regs = vec![[0.0; pbte_dsl::bytecode::ROW_CHUNK]; reg.n_regs()];
        let mut out = vec![0.0; 64];
        b.iter(|| {
            reg.eval_row(&vars, 0, &mut out, &centroids, 0.0, &mut regs);
            black_box(out[17])
        })
    });

    c.bench_function("flux_vm_eval", |b| {
        let vm = VmCtx {
            vars: &vars,
            n_cells: 64,
            coefficients,
            idx: &idx,
            cell: 17,
            u1: 1.2,
            u2: 0.9,
            normal: [0.6, 0.8, 0.0],
            position: pbte_mesh::Point::zero(),
            dt: 1e-12,
            time: 0.0,
        };
        b.iter(|| black_box(cp.flux.eval(&vm)))
    });

    c.bench_function("flux_linearized_eval", |b| {
        let lin = cp.flux_lin.as_ref().expect("BTE flux linearizes");
        b.iter(|| black_box(lin.eval(13, 1, 1.2, 0.9)))
    });
}

fn bench_temperature(c: &mut Criterion) {
    let material = Arc::new(Material::silicon_2d(40, 20, 250.0, 400.0));
    let upd = TemperatureUpdate::new(
        material.clone(),
        BteVars {
            i: 0,
            io: 1,
            beta: 2,
            t: 3,
        },
    );
    let n = material.n_bands();
    let mut beta = vec![0.0; n];
    material.beta_all(312.0, &mut beta);
    let four_pi = 4.0 * std::f64::consts::PI;
    let target: f64 = (0..n)
        .map(|b| beta[b] * four_pi * material.table().io(b, 312.0))
        .sum();
    c.bench_function("temperature_newton_solve", |b| {
        b.iter(|| black_box(upd.solve(&beta, black_box(target), 300.0)))
    });
    c.bench_function("equilibrium_table_lookup", |b| {
        b.iter(|| black_box(material.table().io(black_box(27), black_box(317.3))))
    });
    c.bench_function("equilibrium_direct_quadrature", |b| {
        b.iter(|| black_box(material.io_exact(black_box(27), black_box(317.3))))
    });
}

fn bench_partitioners(c: &mut Criterion) {
    let mesh = UniformGrid::new_2d(120, 120, 1.0, 1.0).build();
    c.bench_function("rcb_partition_120x120_into_32", |b| {
        b.iter(|| black_box(Partition::build(&mesh, 32)))
    });
}

fn bench_device(c: &mut Criterion) {
    use pbte_gpu::{Device, DeviceSpec, KernelCost};
    c.bench_function("simulated_kernel_launch_64k", |b| {
        let mut dev = Device::new(DeviceSpec::a6000());
        let a = dev.alloc("in", 1 << 16);
        let mut out = dev.alloc("out", 1 << 16);
        let cost = KernelCost::stencil(10.0, 16.0, 8.0);
        // 64 blocks of 1024 threads, the row-kernel grid the executors
        // launch.
        b.iter(|| {
            dev.launch_rows("noop", 64, 1024, cost, &[&a], &mut out, |row, i, o| {
                for (o, x) in o.iter_mut().zip(&i[0][row * 1024..]) {
                    *o = x + 1.0;
                }
            })
        })
    });
}

/// A pair of operands shaped like the solver's Krylov vectors on
/// `die3d_implicit`: the same cells are zero in both (about 40 % exact
/// zeros, in runs of 5–20 elements), between runs of values whose
/// magnitudes spread over about 100 binary orders.
fn krylov_operands(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut s = 0x5eed_u64;
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (s ^ s >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb)
    };
    let value = |u: u64| {
        let mantissa = (u >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        mantissa * 2f64.powi((u % 101) as i32 - 60)
    };
    let (mut a, mut b) = (Vec::with_capacity(n), Vec::with_capacity(n));
    while a.len() < n {
        let zeros = 5 + next() % 16;
        let values = 8 + next() % 21;
        for _ in 0..zeros {
            a.push(0.0);
            b.push(0.0);
        }
        for _ in 0..values {
            a.push(value(next()));
            b.push(value(next()));
        }
    }
    a.truncate(n);
    b.truncate(n);
    (a, b)
}

/// The Krylov reduction layer at the `die3d_implicit` problem size
/// (276 480 dofs): the exact dot and norm the implicit drivers run
/// between sweeps, both tiers — the limbs (`exact_*`) and the certified
/// double-double (`dot2_*`) — against a plain (inexact, order-dependent)
/// dot as the memory-and-multiply floor. `exact_dot_276k` has no zeros
/// and a narrow exponent range; the `_sparse` lanes have the solver's
/// operands.
fn bench_reductions(c: &mut Criterion) {
    const N: usize = 276_480;
    let a: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
    let b: Vec<f64> = (0..N).map(|i| (i as f64 * 0.11).cos() * 1e-2).collect();
    let (sa, sb) = krylov_operands(N);
    let mut group = c.benchmark_group("reductions");
    group.bench_function("exact_dot_276k", |bch| {
        bch.iter(|| pbte_runtime::exact::exact_dot(black_box(&a), black_box(&b)))
    });
    group.bench_function("exact_dot_276k_sparse", |bch| {
        bch.iter(|| pbte_runtime::exact::exact_dot(black_box(&sa), black_box(&sb)))
    });
    // One operand, the way the fused passes accumulate a norm.
    group.bench_function("exact_norm_276k", |bch| {
        bch.iter(|| {
            let mut acc = pbte_runtime::exact::ExactAcc::new();
            for &x in black_box(&a) {
                acc.add_prod(x, x);
            }
            acc.value().sqrt()
        })
    });
    // The certified tier on the same operands: what the Krylov passes pay
    // when the sum certifies (the FMA instantiation where the CPU has it).
    group.bench_function("dot2_276k_sparse", |bch| {
        bch.iter(|| {
            let mut dot = pbte_runtime::exact::Dot2::new();
            dot.add_dot(black_box(&sa), black_box(&sb));
            dot.value()
        })
    });
    group.bench_function("dot2_norm_276k", |bch| {
        bch.iter(|| {
            let mut dot = pbte_runtime::exact::Dot2::new();
            let a = black_box(&a);
            dot.add_dot(a, a);
            dot.value().map(f64::sqrt)
        })
    });
    group.bench_function("plain_dot_276k", |bch| {
        bch.iter(|| {
            let (a, b) = (black_box(&a), black_box(&b));
            a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()
        })
    });
    group.finish();
}

/// The fig-4 hot-spot problem on its grid, optionally `jittered` (every
/// interior vertex displaced by up to an eighth of a cell, so no two faces
/// share an orientation and the flux is compiled, not tabulated) and
/// optionally with each pair of neighboring cells `2i`, `2i + 1` swapped:
/// then no two consecutive cells share their neighbor offsets, so the plan
/// has no stencil run, while memory locality stays what it was.
fn fig4_plan(
    cfg: &BteConfig,
    jittered: bool,
    pair_swapped: bool,
) -> (CompiledProblem, pbte_dsl::Fields) {
    let mut problem = hotspot_2d(cfg).problem;
    if jittered || pair_swapped {
        let base = problem.mesh.take().expect("the scenario attaches its grid");
        let (lx, ly) = (cfg.lx, cfg.ly);
        let mut vertices = base.vertices.clone();
        if jittered {
            jitter(&mut vertices, (lx, ly), (cfg.nx, cfg.ny));
        }
        let cells: Vec<Vec<usize>> = (0..base.n_cells())
            .map(|c| base.cell_vertices(c ^ pair_swapped as usize).to_vec())
            .collect();
        let mut mesh = Mesh::from_cells(2, vertices, &cells);
        let (ex, ey) = (0.1 * lx / cfg.nx as f64, 0.1 * ly / cfg.ny as f64);
        mesh.add_boundary_region("left", move |c| c.x < ex);
        mesh.add_boundary_region("right", move |c| c.x > lx - ex);
        mesh.add_boundary_region("bottom", move |c| c.y < ey);
        mesh.add_boundary_region("top", move |c| c.y > ly - ey);
        problem.mesh(mesh);
    }
    CompiledProblem::compile(problem).expect("compiles")
}

/// Move every vertex strictly inside `[0, lx] × [0, ly]` by up to an
/// eighth of a cell (`lx / nx` × `ly / ny`) per axis, by a hash of its
/// index: no two interior faces share an orientation, and the coordinates
/// print as long float tokens, as a real mesh file's do.
fn jitter(vertices: &mut [Point], (lx, ly): (f64, f64), (nx, ny): (usize, usize)) {
    for (i, v) in vertices.iter_mut().enumerate() {
        let inside = |x: f64, l: f64| x > 1e-9 * l && x < l - 1e-9 * l;
        if inside(v.x, lx) && inside(v.y, ly) {
            let unit = |axis: u64| {
                let x = (2 * i as u64 + axis + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let x = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            };
            v.x += unit(0) * 0.125 * lx / nx as f64;
            v.y += unit(1) * 0.125 * ly / ny as f64;
        }
    }
}

/// One full intensity sweep on the span tiers, with the property and
/// without it. Table flux: the fig-4 problem (48×48 cells × 96 flats) over
/// the grid, where every cell but the 4 corners sits in a stencil run, and
/// over the pair-swapped numbering, where every cell but the x-end columns
/// (which the swap leaves at a constant stride) takes the CSR walk — the
/// floor a regression back to CSR would land on. Compiled flux
/// (`native_compiled_*`): the benchmark's `array_unstructured` shape, 96×96
/// jittered quads × 16 flats, 9 212 of 9 216 cells in runs, and its
/// pair-swapped twin with only its x-end columns.
fn bench_flux_runs(c: &mut Criterion) {
    use pbte_dsl::problem::KernelTier;
    let grid = BteConfig::small(48, 12, 8, 1);
    let array = BteConfig::small(96, 8, 2, 1);
    let mut group = c.benchmark_group("flux_runs");
    for (cfg, jittered, lanes) in [
        (
            &grid,
            false,
            &[("row", KernelTier::Row), ("native", KernelTier::Native)][..],
        ),
        (&array, true, &[("native_compiled", KernelTier::Native)][..]),
    ] {
        for (numbering, pair_swapped) in [("runs", false), ("csr", true)] {
            let (cp, fields) = fig4_plan(cfg, jittered, pair_swapped);
            for &(name, tier) in lanes {
                let mut bench = cp.intensity_bench(&fields, tier);
                if bench.tier() != tier {
                    eprintln!("flux_runs/{name}_{numbering}: tier unavailable, skipped");
                    continue;
                }
                let compiled = cp.flux_path(tier) == pbte_dsl::exec::FluxPath::Compiled;
                assert_eq!(
                    compiled, jittered,
                    "{name}: the flux path the lane is named for"
                );
                let (all_but_corners, columns) = (cfg.nx * cfg.ny - 4, 2 * (cfg.ny - 2));
                let run_cells = if pair_swapped {
                    columns
                } else {
                    all_but_corners
                };
                assert_eq!(bench.run_cells(), run_cells);
                let mut rhs = vec![0.0; fields.slice(cp.system.unknown).len()];
                group.bench_function(&format!("{name}_{numbering}"), |b| {
                    b.iter(|| {
                        bench.run(black_box(&fields), &mut rhs);
                        black_box(rhs[rhs.len() / 2])
                    })
                });
            }
        }
    }
    group.finish();
}

/// The benchmark's 3-D lane as a `.pbte` text: 24 × 24 × 12 hexes × 40
/// flats under the implicit integrator.
const DIE3D: &str = "[scenario]\nname = die3d\nstrategy = redundant\nintegrator = implicit:1.0\n\
    t_ref = 300\nt_hot = 330\n[mesh]\nkind = grid\nnx = 24\nny = 24\nnz = 12\n\
    lx = 300e-6\nly = 300e-6\nlz = 100e-6\n[material]\nmodel = silicon\nn_freq_bands = 4\n\
    n_polar = 2\nn_azimuthal = 4\n[time]\ndt = auto\nsteps = 1\n[boundary]\n\
    front = isothermal 300\nback = hotspots 300 330 50e-6 @ 150e-6,150e-6,100e-6\n\
    left = symmetry\nright = symmetry\nbottom = symmetry\ntop = symmetry\n";

/// One file of the benchmark's warm sweep: two frequency bands on 32²
/// cells.
fn sweep_text(integrator: &str) -> String {
    format!(
        "[scenario]\nname = sweep\nstrategy = redundant\nintegrator = {integrator}\n\
         t_ref = 300\nt_hot = 350\n[mesh]\nkind = grid\nnx = 32\nny = 32\nlx = 525e-6\n\
         ly = 525e-6\n[material]\nmodel = silicon\nn_freq_bands = 2\nndirs = 8\n\
         [time]\ndt = auto\nsteps = 1\n[boundary]\nbottom = isothermal 300\n\
         top = hotspots 300 340 50e-6 @ 262e-6,525e-6\nleft = symmetry\nright = symmetry\n"
    )
}

/// What a run pays before step 0, at the benchmark's sizes: the mesh built
/// from its cell list (64 × 64 quads, 24 × 24 × 12 hexes), the two mesh
/// files imported (96 × 96 jittered quads from Gmsh text, the 24 × 24 × 12
/// hex die from MEDIT text, as `array.msh` and `die3d.mesh`), the initial
/// state of the hot-spot die (64² cells × 132 flats: `I` filled by rows
/// from `Io`), the race proof of the sequential scope of the hot-spot
/// and of the implicit 3-D plan (one tile per flat) — and what a process
/// pays once per content against every time: a sweep file built file in →
/// solver out with nothing stored (`build/first`) and with its plan and
/// material the process's already (`build/repeat`), and the material alone.
fn bench_setup(c: &mut Criterion) {
    use pbte_dsl::analysis::{check_disjoint_writes, rank_scopes, synthesize_partition};
    use pbte_dsl::exec::ExecTarget;
    let mut group = c.benchmark_group("setup");
    let quads = UniformGrid::new_2d(64, 64, 1.0, 1.0).build();
    let hexes = UniformGrid::new_3d(24, 24, 12, 3.0, 3.0, 1.0).build();
    for (name, mesh) in [
        ("mesh_from_cells_quads_4096", &quads),
        ("mesh_from_cells_hexes_6912", &hexes),
    ] {
        let cells: Vec<Vec<usize>> = (0..mesh.n_cells())
            .map(|c| mesh.cell_vertices(c).to_vec())
            .collect();
        group.bench_function(name, |b| {
            b.iter_batched(
                || mesh.vertices.clone(),
                |vertices| Mesh::from_cells(mesh.dim, vertices, black_box(&cells)),
                BatchSize::LargeInput,
            )
        });
    }

    let die = 525e-6;
    let grid = UniformGrid::new_2d(96, 96, die, die).build();
    let mut vertices = grid.vertices.clone();
    jitter(&mut vertices, (die, die), (96, 96));
    let cells: Vec<&[usize]> = (0..grid.n_cells()).map(|c| grid.cell_vertices(c)).collect();
    let mut quads = Mesh::from_cells(2, vertices, &cells);
    let edge = 0.1 * die / 96.0;
    quads.add_boundary_region("left", |c| c.x < edge);
    quads.add_boundary_region("right", |c| c.x > die - edge);
    quads.add_boundary_region("bottom", |c| c.y < edge);
    quads.add_boundary_region("top", |c| c.y > die - edge);
    let msh = gmsh::write_msh(&quads);
    group.bench_function("import/gmsh_quads_9216", |b| {
        b.iter(|| gmsh::parse_msh(black_box(&msh)).unwrap())
    });
    let mesh = medit::write_mesh(&UniformGrid::new_3d(24, 24, 12, 300e-6, 300e-6, 100e-6).build());
    group.bench_function("import/medit_hexes_6912", |b| {
        b.iter(|| medit::parse_mesh(black_box(&mesh)).unwrap())
    });

    let hotspot = hotspot_2d(&BteConfig::small(64, 12, 8, 1)).problem;
    group.bench_function("initial_fill_hotspot", |b| {
        b.iter(|| {
            pbte_dsl::exec::initial_state(black_box(&hotspot))
                .unwrap()
                .0
        })
    });

    let forget = || {
        pbte_dsl::exec::forget_plans();
        pbte_bte::material::forget_tables();
    };
    for integrator in ["explicit", "implicit:1.0"] {
        let spec = pbte_bte::pbte::parse_pbte(&sweep_text(integrator)).expect("parses");
        let build = || {
            let problem = spec.build().expect("builds").problem;
            pbte_dsl::Solver::build(problem, ExecTarget::CpuSeq).expect("lowers")
        };
        group.bench_function(&format!("build/first/{integrator}"), |b| {
            b.iter_batched(forget, |()| build(), BatchSize::SmallInput)
        });
        group.bench_function(&format!("build/repeat/{integrator}"), |b| b.iter(build));
    }
    let material = || Material::silicon_2d(2, 8, 240.0, 410.0);
    group.bench_function("material/first", |b| {
        b.iter_batched(forget, |()| material(), BatchSize::SmallInput)
    });
    group.bench_function("material/repeat", |b| b.iter(material));

    let die3d = pbte_bte::pbte::parse_pbte(DIE3D)
        .and_then(|spec| spec.build())
        .expect("the die3d text builds")
        .problem;
    for (name, problem) in [
        ("race_proof_hotspot", hotspot),
        ("race_proof_die3d_implicit", die3d),
    ] {
        let cp = CompiledProblem::compile(problem).expect("compiles").0;
        let scopes = rank_scopes(&cp, &ExecTarget::CpuSeq).expect("one scope");
        let n_cells = cp.problem.mesh.as_ref().map_or(0, |m| m.n_cells());
        group.bench_function(name, |b| {
            b.iter(|| {
                let tiles = synthesize_partition(black_box(&scopes));
                let diags = check_disjoint_writes("I", cp.n_flat, n_cells, tiles);
                assert!(diags.is_empty());
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline, bench_kernel_eval, bench_temperature, bench_partitioners, bench_device,
        bench_reductions, bench_flux_runs, bench_setup
);
criterion_main!(benches);
