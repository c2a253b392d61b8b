//! Golden-snapshot tests pinning five quick-scale outputs — fig01, fig12 and
//! the churn, multistream and workload family sweeps — bit-for-bit across
//! refactors.
//!
//! The digests hash the raw IEEE-754 bit patterns of every reported number,
//! so *any* numeric drift — a reordered RNG draw, a changed float-summation
//! order, a different partner pick — fails the test. When a change is
//! *supposed* to alter results (a new protocol feature, a scenario tweak),
//! re-run with `LIFTING_PRINT_GOLDEN=1` and update the constants; silent
//! drift is the thing this file exists to catch.

use lifting_bench::experiments::{family_sweep, fig12_detection_vs_delta, DetectionSweep, Scale};

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

fn maybe_print(name: &str, digest: u64) {
    if std::env::var_os("LIFTING_PRINT_GOLDEN").is_some() {
        eprintln!("golden digest {name} = 0x{digest:016x}");
    }
}

const FIG01_DIGEST: u64 = 0x784bcd7f34320fdf;
const FIG12_DIGEST: u64 = 0x0aef8a93dd7e5a93;
const CHURN_DIGEST: u64 = 0xa50071d0866d834b;
const MULTISTREAM_DIGEST: u64 = 0xf97016a068001857;
const WORKLOAD_DIGEST: u64 = 0x78c5d274fdcc256e;

#[test]
fn fig01_quick_scale_run_outcome_is_pinned() {
    let rows = family_sweep("fig01", Scale::Quick, 1);
    let names: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
    assert_eq!(
        names,
        [
            "fig01/no-freeriders",
            "fig01/freeriders-no-lifting",
            "fig01/freeriders-lifting"
        ]
    );
    let words = rows.iter().flat_map(|r| {
        std::iter::once(r.expelled as u64)
            .chain(r.stream_health.lag_secs.iter().map(|x| x.to_bits()))
            .chain(r.stream_health.fraction_clear.iter().map(|x| x.to_bits()))
    });
    let digest = fnv1a(words);
    maybe_print("FIG01_DIGEST", digest);
    assert_eq!(
        digest, FIG01_DIGEST,
        "fig01 quick-scale output drifted; if intentional, update FIG01_DIGEST \
         (run with LIFTING_PRINT_GOLDEN=1 to print the new digest)"
    );
}

#[test]
fn churn_sweep_quick_scale_is_pinned() {
    // Determinism must hold with dynamic populations too: the digest covers
    // every churn scenario's detection numbers and membership counters, so a
    // reordered RNG draw anywhere in the churn engine (plan expansion,
    // duration draws, stack rebuilds) fails this test.
    let results = family_sweep("churn", Scale::Quick, 33);
    assert_eq!(results.len(), 5);
    let words = results.iter().flat_map(|r| {
        [
            r.detection.to_bits(),
            r.false_positives.to_bits(),
            r.expelled as u64,
            r.churn.sessions,
            r.churn.departures,
            r.churn.rejoins,
            r.churn.audits_aborted_by_departure,
            r.churn.offline_at_end as u64,
            r.final_clear_fraction.to_bits(),
        ]
    });
    let digest = fnv1a(words);
    maybe_print("CHURN_DIGEST", digest);
    assert_eq!(
        digest, CHURN_DIGEST,
        "churn quick-scale output drifted; if intentional, update CHURN_DIGEST \
         (run with LIFTING_PRINT_GOLDEN=1 to print the new digest)"
    );
}

#[test]
fn multistream_sweep_quick_scale_is_pinned() {
    // Multi-channel determinism: the digest covers every multistream
    // scenario's aggregate detection numbers and each channel's subscriber
    // count, emission volume, blame provenance and final clear fraction, so
    // a reordered RNG draw anywhere in the per-stream planes (partner
    // selection under subscriptions, the audit plane's stream picks, offset
    // source schedules) fails this test.
    let results = family_sweep("multistream", Scale::Quick, 7);
    assert_eq!(results.len(), 4);
    let words = results.iter().flat_map(|r| {
        [
            r.streams as u64,
            r.detection.to_bits(),
            r.false_positives.to_bits(),
            r.expelled as u64,
            r.honest_mean.to_bits(),
            r.freerider_mean.to_bits(),
        ]
        .into_iter()
        .chain(r.per_stream.iter().flat_map(|s| {
            [
                s.subscribers as u64,
                s.emitted_chunks as u64,
                s.final_clear_fraction.to_bits(),
                s.blames,
                s.freerider_blame_value.to_bits(),
            ]
        }))
        .collect::<Vec<u64>>()
    });
    let digest = fnv1a(words);
    maybe_print("MULTISTREAM_DIGEST", digest);
    assert_eq!(
        digest, MULTISTREAM_DIGEST,
        "multistream quick-scale output drifted; if intentional, update \
         MULTISTREAM_DIGEST (run with LIFTING_PRINT_GOLDEN=1 to print the new digest)"
    );
}

#[test]
fn workload_sweep_quick_scale_is_pinned() {
    // Trace-driven membership determinism: the digest covers every workload
    // scenario's detection numbers, the membership transitions its generator
    // plan executed, and each channel's final clear fraction, so a reordered
    // draw anywhere in the workload plane (plan expansion from the dedicated
    // RNG stream, tiered capability assignment, resubscribe handling) fails
    // this test.
    let results = family_sweep("workload", Scale::Quick, 21);
    assert_eq!(results.len(), 3);
    let words = results.iter().flat_map(|r| {
        [
            r.detection.to_bits(),
            r.false_positives.to_bits(),
            r.expelled as u64,
            r.churn.sessions,
            r.churn.departures,
            r.churn.rejoins,
            r.churn.offline_at_end as u64,
            r.streams as u64,
            r.final_clear_fraction.to_bits(),
        ]
        .into_iter()
        .chain(
            r.per_stream
                .iter()
                .map(|s| s.final_clear_fraction.to_bits()),
        )
        .collect::<Vec<u64>>()
    });
    let digest = fnv1a(words);
    maybe_print("WORKLOAD_DIGEST", digest);
    assert_eq!(
        digest, WORKLOAD_DIGEST,
        "workload quick-scale output drifted; if intentional, update \
         WORKLOAD_DIGEST (run with LIFTING_PRINT_GOLDEN=1 to print the new digest)"
    );
}

#[test]
fn fig12_quick_scale_sweep_is_pinned() {
    let DetectionSweep { eta, points } = fig12_detection_vs_delta(Scale::Quick, 12);
    assert_eq!(points.len(), 21);
    let words = std::iter::once(eta.to_bits()).chain(points.iter().flat_map(|p| {
        [
            p.delta.to_bits(),
            p.gain.to_bits(),
            p.detection.to_bits(),
            p.false_positives.to_bits(),
        ]
    }));
    let digest = fnv1a(words);
    maybe_print("FIG12_DIGEST", digest);
    assert_eq!(
        digest, FIG12_DIGEST,
        "fig12 quick-scale output drifted; if intentional, update FIG12_DIGEST \
         (run with LIFTING_PRINT_GOLDEN=1 to print the new digest)"
    );
}
