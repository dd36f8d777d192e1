//! The committed mutation checks: each `tests/mutations/*.patch` breaks
//! the code on purpose and names, on a `Must fail: <package> <test
//! target> <test name>` line before its diff, the test that must catch
//! the break (the target `lib` names the package's unit tests, the name
//! then being the test's path, e.g. `nativegen::tests::…`). The runner copies the tracked files of the working tree to
//! a scratch directory, applies each patch there (and takes it back
//! after), builds the copy into a target directory of its own, runs the
//! named test, and asserts that the build succeeded and the test failed.
//! A test that passes on its break has gone vacuous.
//!
//! It builds the workspace once more, so it is `#[ignore]`d in tier-1:
//! `cargo test --release -p pbte-apps --test mutations -- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Run `cmd`, returning its status and its stdout and stderr together.
fn run(cmd: &mut Command) -> (bool, String) {
    let out = cmd.output().unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text)
}

/// The tracked files of the working tree, copied under `to`.
fn copy_tree(to: &Path) {
    let (ok, listing) = run(Command::new("git")
        .args(["ls-files", "-z"])
        .current_dir(repo()));
    assert!(ok, "git ls-files: {listing}");
    for file in listing.split('\0').filter(|f| !f.is_empty()) {
        let (from, dest) = (repo().join(file), to.join(file));
        std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
        if from.is_file() {
            std::fs::copy(&from, &dest).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }
}

#[test]
#[ignore = "builds a second copy of the workspace"]
fn every_committed_mutation_fails_its_test() {
    let start = Instant::now();
    let copy = std::env::temp_dir().join(format!("pbte-mutations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    copy_tree(&copy);
    let mut patches: Vec<PathBuf> = std::fs::read_dir(repo().join("tests/mutations"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "patch"))
        .collect();
    patches.sort();
    assert!(!patches.is_empty(), "no mutation to replay");
    for patch in &patches {
        let text = std::fs::read_to_string(patch).unwrap();
        let target = text
            .lines()
            .find_map(|l| l.strip_prefix("Must fail: "))
            .unwrap_or_else(|| panic!("{}: no `Must fail:` line", patch.display()));
        let [package, test_target, name] = target.split_whitespace().collect::<Vec<_>>()[..] else {
            panic!(
                "{}: `Must fail: <package> <test target> <test name>`",
                patch.display()
            );
        };
        let apply = |reverse: bool| {
            let mut git = Command::new("git");
            git.arg("apply").args(reverse.then_some("-R")).arg(patch);
            let (ok, out) = run(git.current_dir(&copy));
            assert!(ok, "{}: git apply: {out}", patch.display());
        };
        apply(false);
        let target = match test_target {
            "lib" => vec!["--lib"],
            test => vec!["--test", test],
        };
        let (passed, out) = run(Command::new(env!("CARGO"))
            .args(["test", "--offline", "-p", package])
            .args(target)
            .args(["--", "--exact", name])
            .env("CARGO_TARGET_DIR", copy.join("target"))
            .current_dir(&copy));
        apply(true);
        assert!(
            !passed && out.contains(&format!("test {name} ... FAILED")),
            "{}: `{name}` must build and fail on this break:\n{out}",
            patch.display()
        );
        eprintln!(
            "{}: `{name}` fails, as it must ({:.0} s in)",
            patch.display(),
            start.elapsed().as_secs_f64()
        );
    }
    let _ = std::fs::remove_dir_all(&copy);
}
