//! Differential gates for the durable sweep CLI: routing a sweep through
//! the result store — with or without injected I/O faults — must change
//! nothing about the results. Storeless, stored, fault-injected and
//! resumed runs of the same grid agree byte-for-byte on every value;
//! only the status column may tell the runs apart.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::Command;

fn stash(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .output()
        .expect("run stash binary")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stash_sweepdiff_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweep_grid(extra: &[&str]) -> std::process::Output {
    let mut args = vec![
        "sweep",
        "--models",
        "AlexNet,ResNet18",
        "--clusters",
        "p3.2xlarge,p3.8xlarge",
    ];
    args.extend_from_slice(extra);
    stash(&args)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

fn strip_status(csv: &str) -> String {
    csv.lines()
        .map(|l| l.rsplit_once(',').map_or(l, |(head, _)| head).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn storeless_stored_and_faulted_sweeps_are_bit_identical() {
    let dir = scratch("diff");
    let a = dir.join("storeless.csv");
    let b = dir.join("stored.csv");
    let c = dir.join("faulted.csv");
    let store_b = dir.join("store_b");
    let store_c = dir.join("store_c");

    let out = sweep_grid(&["--out", a.to_str().unwrap()]);
    assert!(out.status.success(), "storeless sweep failed: {out:?}");

    let out = sweep_grid(&[
        "--store",
        store_b.to_str().unwrap(),
        "--out",
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stored sweep failed: {out:?}");

    // Seeded recoverable faults (torn write, short read, EIO, ENOSPC):
    // the retry/quarantine machinery must absorb all of them.
    let out = sweep_grid(&[
        "--store",
        store_c.to_str().unwrap(),
        "--io-fault-seed",
        "42",
        "--out",
        c.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "faulted sweep failed: {out:?}");

    // All three CSVs are byte-identical — same cells, same values, and
    // every cell computed in-run.
    let (ta, tb, tc) = (read(&a), read(&b), read(&c));
    assert_eq!(ta, tb, "store routing changed the results");
    assert_eq!(tb, tc, "injected faults changed the results");
    assert!(ta.lines().skip(1).all(|l| l.ends_with(",computed")));

    // The two stores hold byte-identical records under identical names.
    let list = |store: &Path| -> Vec<(String, Vec<u8>)> {
        let mut v: Vec<_> = std::fs::read_dir(store.join("records"))
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(list(&store_b), list(&store_c));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_sweep_serves_every_cell_from_the_store() {
    let dir = scratch("resume");
    let cold = dir.join("cold.csv");
    let warm = dir.join("warm.csv");
    let store = dir.join("store");

    let out = sweep_grid(&[
        "--store",
        store.to_str().unwrap(),
        "--out",
        cold.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "cold sweep failed: {out:?}");

    // Resume with no grid flags: the journal carries the intent.
    let out = stash(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--resume",
        "--out",
        warm.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "resume failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("0 computed, 4 resumed, 0 failed"),
        "{stdout}"
    );

    let (tc, tw) = (read(&cold), read(&warm));
    assert_eq!(strip_status(&tc), strip_status(&tw));
    assert!(tw.lines().skip(1).all(|l| l.ends_with(",resumed")));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cells_degrade_gracefully_with_exit_class_2() {
    let dir = scratch("degrade");
    let csv = dir.join("partial.csv");

    // p3.16xlarge*3 has no single-instance reference measurement, so its
    // cell fails with a typed profile error; the healthy cell still runs.
    let out = stash(&[
        "sweep",
        "--models",
        "AlexNet",
        "--clusters",
        "p3.16xlarge*3,p3.2xlarge",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "want exit class 2: {out:?}");

    let text = read(&csv);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header + one row per cell:\n{text}");
    assert!(lines[1].starts_with("p3.16xlarge*3,AlexNet,"));
    assert!(lines[1].ends_with(",profile-error"), "{}", lines[1]);
    assert!(lines[2].ends_with(",computed"), "{}", lines[2]);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    v.sort();
    v
}

/// `stash sweep` with `STASH_BENCH_THREADS` set for the child process
/// only.
fn sweep_on_threads(threads: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .arg("sweep")
        .args(args)
        .env("STASH_BENCH_THREADS", threads)
        .output()
        .expect("run stash binary")
}

#[test]
fn one_and_four_workers_write_identical_csv_records_and_journal() {
    let dir = scratch("threads");
    // p3.16xlarge and p3.8xlarge*2 measure steps 1/2 on the same
    // reference instance, so concurrent workers share those measurements
    // through the single-flight cache.
    let grid = [
        "--models",
        "AlexNet,ResNet18",
        "--clusters",
        "p3.16xlarge,p3.8xlarge*2,p3.2xlarge",
    ];
    for (tag, extra) in [
        ("cold", &[][..]),
        ("faulted", &["--io-fault-seed", "42"][..]),
    ] {
        let mut runs = Vec::new();
        for threads in ["1", "4"] {
            let store = dir.join(format!("{tag}_{threads}"));
            let csv = dir.join(format!("{tag}_{threads}.csv"));
            let (store_arg, csv_arg) = (store.to_str().unwrap(), csv.to_str().unwrap());
            let args = [&grid[..], &["--store", store_arg, "--out", csv_arg], extra].concat();
            let out = sweep_on_threads(threads, &args);
            assert!(out.status.success(), "{tag} sweep on {threads}: {out:?}");
            let cold = (
                read(&csv),
                files(&store.join("records")),
                std::fs::read(store.join("journal.log")).unwrap(),
            );
            assert!(cold.0.lines().skip(1).all(|l| l.ends_with(",computed")));

            // Lose one record, then resume: that cell is recomputed, the
            // rest are served from the store.
            let (victim, _) = &cold.1[0];
            std::fs::remove_file(store.join("records").join(victim)).unwrap();
            let resumed_csv = dir.join(format!("{tag}_{threads}_resumed.csv"));
            let out = sweep_on_threads(
                threads,
                &[
                    "--store",
                    store_arg,
                    "--resume",
                    "--out",
                    resumed_csv.to_str().unwrap(),
                ],
            );
            assert!(out.status.success(), "{tag} resume on {threads}: {out:?}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                stdout.contains("1 computed, 5 resumed, 0 failed"),
                "{stdout}"
            );
            let resumed = (
                read(&resumed_csv),
                files(&store.join("records")),
                std::fs::read(store.join("journal.log")).unwrap(),
            );
            assert_eq!(cold.1, resumed.1, "{tag} resume on {threads} records");
            runs.push((cold, resumed));
        }
        let (one, four) = (&runs[0], &runs[1]);
        for (phase, a, b) in [("cold", &one.0, &four.0), ("resumed", &one.1, &four.1)] {
            assert_eq!(
                a.0, b.0,
                "{tag} {phase} CSV differs between 1 and 4 workers"
            );
            assert_eq!(
                a.1, b.1,
                "{tag} {phase} records differ between 1 and 4 workers"
            );
            assert_eq!(
                a.2, b.2,
                "{tag} {phase} journal differs between 1 and 4 workers"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
