//! Fuzz harness for the Gmsh and MEDIT importers, driven by the committed
//! fixtures (`examples/meshes/`): truncation at many offsets, byte flips,
//! declared-count bombs, node ids past `u32`, and `nan` / `inf`
//! coordinates.
//!
//! The property is the `.pbte` loader's: a file ends as a mesh that
//! `validate()` accepts, or as an error — the importer's own, or
//! `validate()`'s problem list, which the loader turns into one — and never
//! as a panic. Where a mutation cannot make a well-formed mesh file
//! ill-shaped (everything but byte flips, which can move a vertex), the
//! importer itself must refuse what `validate()` would. The proptest shim
//! is seeded per test name, so a failure reproduces with the same command.

use pbte_mesh::{gmsh, medit, Mesh};
use proptest::prelude::*;
use std::path::Path;

const FIXTURES: [&str; 3] = ["hotspot_array.msh", "jittered_array.msh", "die3d.mesh"];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/meshes");
    std::fs::read_to_string(path.join(name)).unwrap()
}

/// The importer a fixture's name calls for.
fn import(name: &str, text: &str) -> Result<Mesh, String> {
    match name.ends_with(".msh") {
        true => gmsh::parse_msh(text).map_err(|e| e.to_string()),
        false => medit::parse_mesh(text).map_err(|e| e.to_string()),
    }
}

/// What the loader makes of a file.
fn load(name: &str, text: &str) -> Result<Mesh, String> {
    let mesh = import(name, text)?;
    match mesh.validate() {
        problems if problems.is_empty() => Ok(mesh),
        problems => Err(problems.join("; ")),
    }
}

/// `import` is an error or a mesh `validate()` accepts.
fn refused_or_valid(name: &str, text: &str) -> Result<(), String> {
    match import(name, text) {
        Ok(mesh) if !mesh.validate().is_empty() => Err(format!(
            "{name}: imported a mesh validate() refuses: {:?}",
            mesh.validate()
        )),
        _ => Ok(()),
    }
}

/// The text with the first `from` after `after` replaced by `to`.
fn replace_after(text: &str, after: &str, from: &str, to: &str) -> String {
    let at = text.find(after).unwrap() + after.len();
    let (head, tail) = text.split_at(at);
    assert!(tail.contains(from), "{after:?} is followed by {from:?}");
    format!("{head}{}", tail.replacen(from, to, 1))
}

/// A cut anywhere leaves a file that is refused, or one that imports a
/// valid mesh (a MEDIT file cut after a whole section).
#[test]
fn truncation_at_many_offsets() {
    for name in FIXTURES {
        let text = fixture(name);
        let step = text.len() / 150 + 1;
        let offsets = (0..text.len())
            .step_by(step)
            .chain(text.len() - 40..text.len());
        for at in offsets.filter(|&at| text.is_char_boundary(at)) {
            refused_or_valid(name, &text[..at]).unwrap();
        }
    }
}

/// Every declared count, made absurd, too large by one, or past `u64`, is
/// an error — read against, never allocated for.
#[test]
fn declared_count_bombs_are_errors() {
    let sections: [(&str, &[&str]); 3] = [
        (
            "hotspot_array.msh",
            &["$PhysicalNames\n", "$Nodes\n", "$Elements\n"],
        ),
        ("jittered_array.msh", &["$Nodes\n", "$Elements\n"]),
        (
            "die3d.mesh",
            &["Vertices\n", "Hexahedra\n", "Quadrilaterals\n"],
        ),
    ];
    for (name, headers) in sections {
        let text = fixture(name);
        for header in headers {
            let at = text.find(header).unwrap() + header.len();
            let count = text[at..].split_whitespace().next().unwrap();
            let more = (count.parse::<u64>().unwrap() + 1).to_string();
            for bomb in [
                "99999999999",
                "18446744073709551615",
                "18446744073709551616",
                &more,
            ] {
                let bombed = replace_after(&text, header, count, bomb);
                let err = import(name, &bombed).err();
                assert!(err.is_some(), "{name}: {header:?} {bomb} imported");
            }
        }
    }
}

/// A node id past `u32` (or past `u64`) that no node has is an error; the
/// same ids given to the nodes themselves import the same mesh.
#[test]
fn node_ids_past_u32() {
    let name = "hotspot_array.msh";
    let text = fixture(name);
    let cell = "50 3 2 0 0 2 3 16 15";
    for id in [
        "4294967296",
        "4294967298",
        "18446744073709551615",
        "99999999999999999999",
    ] {
        let dangling = text.replace(cell, &format!("50 3 2 0 0 2 3 16 {id}"));
        assert!(import(name, &dangling).is_err(), "{id}");
    }
    // Every node id and reference moved past `u32`.
    let mut section = "";
    let shifted: String = (text.lines())
        .map(|line| {
            if line.starts_with('$') {
                section = line;
                return format!("{line}\n");
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let ids = match (section, tokens.len()) {
                ("$Nodes", 4) => 0..1,
                ("$Elements", n) if n > 3 => 3 + tokens[2].parse::<usize>().unwrap()..n,
                _ => 0..0,
            };
            let shift = |(i, t): (usize, &&str)| match ids.contains(&i) {
                true => (t.parse::<u64>().unwrap() + (1 << 32)).to_string(),
                false => t.to_string(),
            };
            let line: Vec<String> = tokens.iter().enumerate().map(shift).collect();
            format!("{}\n", line.join(" "))
        })
        .collect();
    let (a, b) = (load(name, &text).unwrap(), load(name, &shifted).unwrap());
    assert_eq!(a.digest(), b.digest());
    // MEDIT ids are positions: one past the vertex count is out of range.
    let die = fixture("die3d.mesh");
    let hex = "1 2 9 8 50 51 58 57 0";
    for id in ["4294967297", "18446744073709551616"] {
        let far = die.replace(hex, &format!("1 2 9 8 50 51 58 {id} 0"));
        assert!(import("die3d.mesh", &far).is_err(), "{id}");
    }
}

/// A non-finite coordinate is refused when a cell uses its vertex.
#[test]
fn non_finite_coordinates() {
    for name in FIXTURES {
        let text = fixture(name);
        let lines: Vec<&str> = text.lines().collect();
        let (header, x) = match name.ends_with(".msh") {
            true => ("$Nodes", 1),    // `id x y z`
            false => ("Vertices", 0), // `x y [z] ref`
        };
        let first = lines.iter().position(|&l| l == header).unwrap() + 2;
        for at in first..first + 10 {
            for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
                let mut tokens: Vec<&str> = lines[at].split_whitespace().collect();
                tokens[x] = bad;
                let mut edited = lines.clone();
                let line = tokens.join(" ");
                edited[at] = &line;
                refused_or_valid(name, &edited.join("\n")).unwrap();
            }
        }
    }
}

/// Words a mutated token becomes: edge values of every field a mesh file
/// has, and section words out of place.
const SWAPS: [&str; 16] = [
    "0",
    "-1",
    "+7",
    "4294967296",
    "18446744073709551616",
    "nan",
    "-inf",
    "1e3",
    "0.5",
    "",
    "#",
    "$EndNodes",
    "$Elements",
    "End",
    "Vertices",
    "Hexahedra",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// A few bytes overwritten anywhere: the file is refused or imports a
    /// mesh, and `validate()` has its say on that mesh without panicking.
    #[test]
    fn byte_flips_never_panic(
        which in 0usize..3,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let name = FIXTURES[which];
        let mut bytes = fixture(name).into_bytes();
        for (at, byte) in flips {
            let at = at % bytes.len();
            bytes[at] = match byte % 4 {
                // A digit, a separator or a sign, which keep most tokens
                // tokens; else any byte at all.
                0 => b'0' + byte % 10,
                1 => b" \n-"[byte as usize % 3],
                _ => byte,
            };
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = load(name, &text);
    }

    /// A few tokens swapped for edge values or section words: the same.
    #[test]
    fn token_swaps_never_panic(
        which in 0usize..3,
        swaps in prop::collection::vec((any::<usize>(), 0..SWAPS.len()), 1..4),
    ) {
        let name = FIXTURES[which];
        let text = fixture(name);
        // Each piece is a token and the separator after it.
        let pieces: Vec<&str> = text.split_inclusive([' ', '\n']).collect();
        let swaps: Vec<(usize, &str)> = (swaps.into_iter())
            .map(|(at, swap)| (at % pieces.len(), SWAPS[swap]))
            .collect();
        let mut swapped = String::with_capacity(text.len());
        for (k, piece) in pieces.iter().enumerate() {
            match swaps.iter().find(|&&(at, _)| at == k) {
                Some((_, word)) => swapped.extend([word, &piece[piece.trim_end().len()..]]),
                None => swapped.push_str(piece),
            }
        }
        let _ = load(name, &swapped);
    }
}
