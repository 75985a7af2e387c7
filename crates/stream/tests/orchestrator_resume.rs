//! The resume-equivalence suite: the orchestrator's headline contract.
//!
//! Every per-cell result is a pure function of `(bucket, plan, fault seed)`,
//! so a run that is killed after k checkpoints and then resumed must produce
//! **bit-identical** per-cell centroids, weights, E_pm, mass accounting and
//! fault counters to an uninterrupted run. This suite enforces that across:
//!
//! 1. a seeded kill-point matrix on a ≥ 8-cell planet (the acceptance bar),
//! 2. chaos schedules under the tolerant policy (fault counters and lost
//!    mass must survive the round trip through the checkpoint journal),
//! 3. corrupted / truncated / torn / stale journal records — detected via
//!    checksum, fingerprint and version checks, answered with a silent
//!    re-scan, never a panic,
//! 4. random `(seed, cells, kill_k, jobs)` triples via proptest.

use pmkm_core::KMeansConfig;
use pmkm_stream::fault::InjectedPanic;
use pmkm_stream::prelude::*;
use pmkm_stream::{journal_path, FaultPlan, FaultPolicy, CHECKPOINT_VERSION};
use std::path::{Path, PathBuf};
use std::sync::Once;

fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

fn write_cell(dir: &Path, idx: u16, n: usize, seed: u64) -> PathBuf {
    use rand::Rng;
    let mut rng = pmkm_core::seeding::rng_for(seed, idx as u64);
    let mut points = pmkm_core::Dataset::new(2).unwrap();
    for _ in 0..n {
        let blob = if rng.gen_bool(0.5) { 0.0 } else { 40.0 };
        points.push(&[blob + rng.gen_range(-1.0..1.0), blob + rng.gen_range(-1.0..1.0)]).unwrap();
    }
    let cell = pmkm_data::GridCell::new(idx, idx).unwrap();
    let path = dir.join(cell.bucket_file_name());
    pmkm_data::GridBucket { cell, points }.write_to(&path).unwrap();
    path
}

/// A planet of `cells` buckets with varied sizes, k = 2, 40-point chunks.
fn planet(tag: &str, cells: usize, data_seed: u64, plan_seed: u64) -> (PathBuf, PhysicalPlan) {
    let dir = std::env::temp_dir().join(format!("pmkm_resume_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> =
        (1..=cells).map(|i| write_cell(&dir, i as u16, 60 + 25 * (i % 4), data_seed)).collect();
    let logical =
        LogicalPlan::new(paths, KMeansConfig { restarts: 2, ..KMeansConfig::paper(2, plan_seed) });
    let plan = optimize_fixed_split(logical, &Resources::fixed(1 << 20, 2), 40);
    (dir, plan)
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit-level equality over everything a resumed run must reproduce.
/// (Durations are wall-clock and deliberately excluded.)
fn assert_bit_identical(a: &PlanetReport, b: &PlanetReport) {
    assert_eq!(a.cells.len(), b.cells.len(), "cell count");
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.input, y.input);
        assert_eq!(x.path, y.path);
        assert_eq!(x.degraded, y.degraded, "cell {}", x.input);
        assert_eq!(x.faults, y.faults, "cell {}", x.input);
        match (&x.clustering, &y.clustering) {
            (None, None) => {}
            (Some(cx), Some(cy)) => {
                assert_eq!(cx.cell, cy.cell);
                let flat = |c: &pmkm_stream::CellClustering| -> Vec<u64> {
                    c.output.centroids.iter().flat_map(|p| p.iter().map(|v| v.to_bits())).collect()
                };
                assert_eq!(flat(cx), flat(cy), "cell {} centroids", x.input);
                assert_eq!(
                    f64_bits(&cx.output.cluster_weights),
                    f64_bits(&cy.output.cluster_weights),
                    "cell {} weights",
                    x.input
                );
                assert_eq!(cx.output.epm.to_bits(), cy.output.epm.to_bits(), "cell {}", x.input);
                assert_eq!(cx.output.mse.to_bits(), cy.output.mse.to_bits());
                assert_eq!(cx.output.iterations, cy.output.iterations);
                assert_eq!(cx.output.converged, cy.output.converged);
                assert_eq!(cx.output.input_centroids, cy.output.input_centroids);
                assert_eq!(cx.expected_points.to_bits(), cy.expected_points.to_bits());
                assert_eq!(cx.lost_points.to_bits(), cy.lost_points.to_bits());
                assert_eq!(cx.lost_chunks, cy.lost_chunks);
                assert_eq!(cx.degraded, cy.degraded);
                assert_eq!(cx.chunks.len(), cy.chunks.len());
                for (sx, sy) in cx.chunks.iter().zip(&cy.chunks) {
                    assert_eq!(sx.chunk, sy.chunk);
                    assert_eq!(sx.points, sy.points);
                    assert_eq!(sx.best_mse.to_bits(), sy.best_mse.to_bits());
                    assert_eq!(sx.total_iterations, sy.total_iterations);
                }
                for (tx, ty) in cx.trajectories.iter().zip(&cy.trajectories) {
                    assert_eq!(f64_bits(tx), f64_bits(ty));
                }
            }
            _ => panic!("cell {}: clustering present on one side only", x.input),
        }
    }
    assert_eq!(a.faults, b.faults, "planet fault counters");
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.expected_points().to_bits(), b.expected_points().to_bits());
    assert_eq!(a.lost_points().to_bits(), b.lost_points().to_bits());
    assert_eq!(a.received_points().to_bits(), b.received_points().to_bits());
}

fn ckpt_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("ckpt")
}

/// The journal's records (header line + payload line each), in file order.
fn journal_records(cdir: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(journal_path(cdir)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() % 2, 0, "whole records only");
    lines.chunks(2).map(|pair| format!("{}\n{}\n", pair[0], pair[1])).collect()
}

fn write_journal(cdir: &Path, records: &[String]) {
    std::fs::write(journal_path(cdir), records.concat()).unwrap();
}

/// The acceptance bar: a 9-cell planet killed after k ∈ {1, 4, 8}
/// checkpoints resumes to bit-identical results.
#[test]
fn kill_and_resume_matches_uninterrupted_across_kill_matrix() {
    let (dir, plan) = planet("kill_matrix", 9, 31, 17);
    let baseline = orchestrate(&plan, &OrchestratorOptions::new(3), None, None).unwrap();
    assert_eq!(baseline.cells.len(), 9);
    for kill_k in [1usize, 4, 8] {
        let cdir = dir.join(format!("ckpt_{kill_k}"));
        let killed = orchestrate(
            &plan,
            &OrchestratorOptions::new(2).with_checkpoints(&cdir).kill_after(kill_k),
            None,
            None,
        )
        .unwrap();
        assert!(killed.interrupted, "kill_k={kill_k}");
        assert_eq!(killed.checkpoints_written, kill_k, "kill_k={kill_k}");
        // Only checkpointed cells survive the simulated death.
        assert_eq!(killed.cells.len(), kill_k, "kill_k={kill_k}");

        let resumed = orchestrate(
            &plan,
            &OrchestratorOptions::new(3).with_checkpoints(&cdir).resuming(),
            None,
            None,
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.cells_resumed, kill_k, "kill_k={kill_k}");
        assert_eq!(resumed.cells_executed, 9 - kill_k, "kill_k={kill_k}");
        assert_eq!(resumed.checkpoints_invalid, 0);
        assert_eq!(resumed.cells.iter().filter(|c| c.resumed).count(), kill_k);
        assert_bit_identical(&baseline, &resumed);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Chaos + resume: fault counters and lost-mass accounting survive the
/// round trip through the checkpoint journal, and mass is conserved
/// planet-wide (Σ received + Σ lost == Σ expected).
#[test]
fn chaos_run_resumes_with_identical_fault_accounting() {
    quiet_injected_panics();
    let (dir, plan) = planet("chaos_resume", 8, 77, 5);
    let mut plan = plan;
    plan.fault_policy = FaultPolicy::tolerant();
    let faults = Some(FaultPlan::light(23));
    let baseline = orchestrate(&plan, &OrchestratorOptions::new(2), None, faults.clone()).unwrap();
    let cdir = ckpt_dir(&dir);
    let killed = orchestrate(
        &plan,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).kill_after(3),
        None,
        faults.clone(),
    )
    .unwrap();
    assert!(killed.interrupted);
    let resumed = orchestrate(
        &plan,
        &OrchestratorOptions::new(4).with_checkpoints(&cdir).resuming(),
        None,
        faults,
    )
    .unwrap();
    assert_bit_identical(&baseline, &resumed);
    // Planet-wide mass conservation over surviving chunks.
    let received = resumed.received_points();
    let lost = resumed.lost_points();
    let expected = resumed.expected_points();
    assert!(
        (received + lost - expected).abs() < 1e-6,
        "received {received} + lost {lost} != expected {expected}"
    );
    assert!(expected > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed orchestrated run's `/metrics` mass gauges cover the *whole*
/// planet: restored cells roll their mass into `mass_weight_expected` /
/// `mass_weight_received` exactly as live merges do, so
/// `mass_conservation_ratio` reports `Σw_received / Σw_expected` over
/// executed and resumed cells alike.
#[test]
fn resumed_cells_roll_into_mass_conservation_gauges() {
    let (dir, plan) = planet("mass_gauges", 6, 41, 9);
    let cdir = ckpt_dir(&dir);
    let killed = orchestrate(
        &plan,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).kill_after(3),
        None,
        None,
    )
    .unwrap();
    assert!(killed.interrupted);
    let rec = std::sync::Arc::new(pmkm_obs::Recorder::new());
    let resumed = orchestrate(
        &plan,
        &OrchestratorOptions::new(3).with_checkpoints(&cdir).resuming(),
        Some(std::sync::Arc::clone(&rec)),
        None,
    )
    .unwrap();
    assert_eq!(resumed.cells_resumed, 3);
    let expected = rec.registry().gauge("mass_weight_expected").get();
    let received = rec.registry().gauge("mass_weight_received").get();
    let ratio = rec.registry().gauge("mass_conservation_ratio").get();
    assert_eq!(
        expected,
        resumed.expected_points(),
        "gauges must include the {} resumed cells",
        resumed.cells_resumed
    );
    assert_eq!(received, resumed.received_points());
    assert!((ratio - 1.0).abs() < 1e-12, "clean run must conserve all mass, got {ratio}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted, truncated and garbage journal records are caught by the
/// checksum and answered with a re-scan — never a panic, and the final
/// results are still bit-identical.
#[test]
fn corrupted_checkpoints_fall_back_to_rescan() {
    let (dir, plan) = planet("corrupt", 8, 13, 3);
    let baseline = orchestrate(&plan, &OrchestratorOptions::new(2), None, None).unwrap();
    let cdir = ckpt_dir(&dir);
    let full = orchestrate(&plan, &OrchestratorOptions::new(2).with_checkpoints(&cdir), None, None)
        .unwrap();
    assert_eq!(full.checkpoints_written, 8);
    // One journal, no per-cell files.
    assert_eq!(std::fs::read_dir(&cdir).unwrap().count(), 1);
    let mut records = journal_records(&cdir);
    assert_eq!(records.len(), 8);
    // Flip a payload byte in a middle record…
    let mut bytes = records[3].clone().into_bytes();
    let last = bytes.len() - 3;
    bytes[last] ^= 0x01;
    records[3] = String::from_utf8(bytes).unwrap();
    // …truncate another mid-payload…
    let (header, payload) = records[1].split_once('\n').unwrap();
    records[1] = format!("{header}\n{}\n", &payload[..payload.len() / 2]);
    // …and replace a third with garbage.
    records[5] = "not json at all\n".to_string();
    write_journal(&cdir, &records);

    let resumed = orchestrate(
        &plan,
        &OrchestratorOptions::new(3).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(resumed.checkpoints_invalid, 3);
    assert_eq!(resumed.cells_resumed, 5);
    assert_eq!(resumed.cells_executed, 3);
    assert_bit_identical(&baseline, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-append leaves the journal's last record torn: the intact
/// records resume, only the torn cell re-runs, and the next clean run's
/// garbage collection drops the torn bytes.
#[test]
fn torn_final_record_reruns_only_its_cell() {
    let (dir, plan) = planet("torn", 8, 19, 7);
    let baseline = orchestrate(&plan, &OrchestratorOptions::new(2), None, None).unwrap();
    let cdir = ckpt_dir(&dir);
    let full = orchestrate(&plan, &OrchestratorOptions::new(2).with_checkpoints(&cdir), None, None)
        .unwrap();
    assert_eq!(full.checkpoints_written, 8);
    let mut bytes = std::fs::read(journal_path(&cdir)).unwrap();
    bytes.truncate(bytes.len() - 5);
    std::fs::write(journal_path(&cdir), &bytes).unwrap();

    let resumed = orchestrate(
        &plan,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(resumed.checkpoints_invalid, 1);
    assert_eq!(resumed.cells_resumed, 7);
    assert_eq!(resumed.cells_executed, 1);
    assert_eq!(resumed.checkpoints_written, 1);
    assert_eq!(resumed.checkpoints_pruned, 1, "the torn record");
    assert_bit_identical(&baseline, &resumed);
    assert_eq!(journal_records(&cdir).len(), 8);
    let again = orchestrate(
        &plan,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(again.cells_resumed, 8);
    assert_eq!(again.checkpoints_invalid, 0);
    assert_bit_identical(&baseline, &again);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint from a *different plan* (fingerprint mismatch) or a
/// *newer format version* is stale, not trusted.
#[test]
fn stale_fingerprint_or_newer_version_forces_rescan() {
    let (dir, plan) = planet("stale", 4, 9, 21);
    let cdir = ckpt_dir(&dir);
    let full = orchestrate(&plan, &OrchestratorOptions::new(2).with_checkpoints(&cdir), None, None)
        .unwrap();
    assert_eq!(full.checkpoints_written, 4);

    // Same buckets, different k-means seed → different fingerprint.
    let mut other = plan.clone();
    other.logical.kmeans.seed = 9999;
    let other_baseline = orchestrate(&other, &OrchestratorOptions::new(2), None, None).unwrap();
    let resumed = orchestrate(
        &other,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(resumed.cells_resumed, 0);
    assert_eq!(resumed.checkpoints_invalid, 4);
    assert_eq!(resumed.checkpoints_pruned, 4, "the foreign records");
    assert_bit_identical(&other_baseline, &resumed);

    // A record claiming a future format version is rejected too. (The
    // resume above compacted the journal down to `other`'s records; doctor
    // one to version 99.)
    let mut records = journal_records(&cdir);
    assert_eq!(records.len(), 4);
    let current = format!("\"checkpoint\":{CHECKPOINT_VERSION}");
    let doctored = records[0].replacen(&current, "\"checkpoint\":99", 1);
    assert_ne!(records[0], doctored);
    records[0] = doctored;
    write_journal(&cdir, &records);
    let resumed2 = orchestrate(
        &other,
        &OrchestratorOptions::new(2).with_checkpoints(&cdir).resuming(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(resumed2.checkpoints_invalid, 1);
    assert_eq!(resumed2.cells_resumed, 3);
    assert_bit_identical(&other_baseline, &resumed2);
    std::fs::remove_dir_all(&dir).ok();
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Random (seed, cells, kill_k, jobs) triples: kill-then-resume is
        // always bit-identical to uninterrupted, faulty or not.
        #[test]
        fn kill_resume_equivalence(
            data_seed in 0..1000u64,
            plan_seed in 0..1000u64,
            cells in 3..=5usize,
            kill_k in 0..=5usize,
            jobs in 1..=4usize,
        ) {
            quiet_injected_panics();
            let kill_k = kill_k.min(cells);
            let faulty = (data_seed ^ plan_seed) % 2 == 1;
            let tag = format!("prop_{data_seed}_{plan_seed}_{cells}_{kill_k}_{jobs}");
            let (dir, plan) = planet(&tag, cells, data_seed, plan_seed);
            let mut plan = plan;
            let faults = if faulty {
                plan.fault_policy = FaultPolicy::tolerant();
                Some(FaultPlan::light(data_seed ^ plan_seed))
            } else {
                None
            };
            let baseline =
                orchestrate(&plan, &OrchestratorOptions::new(jobs), None, faults.clone()).unwrap();
            let cdir = ckpt_dir(&dir);
            let killed = orchestrate(
                &plan,
                &OrchestratorOptions::new(jobs).with_checkpoints(&cdir).kill_after(kill_k),
                None,
                faults.clone(),
            )
            .unwrap();
            // kill_after(0) never fires: the run completes and checkpoints
            // every cell; resume then re-executes nothing.
            if kill_k > 0 && kill_k < cells {
                prop_assert!(killed.interrupted);
                prop_assert_eq!(killed.checkpoints_written, kill_k);
            }
            let resumed = orchestrate(
                &plan,
                &OrchestratorOptions::new(jobs).with_checkpoints(&cdir).resuming(),
                None,
                faults,
            )
            .unwrap();
            prop_assert_eq!(resumed.checkpoints_invalid, 0);
            prop_assert_eq!(resumed.cells_resumed, killed.checkpoints_written);
            assert_bit_identical(&baseline, &resumed);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
