//! Property tests for the checkpoint serialization laws the soak
//! harness leans on:
//!
//! 1. **Fixed point** — `snapshot → restore → snapshot` reproduces the
//!    snapshot exactly, and the restored object behaves identically to
//!    the original from that point on.
//! 2. **Lossless text round-trip** — every checkpointed stat survives
//!    `to_string_pretty → from_str → from_value` bit-for-bit (floats
//!    print in shortest round-trip form, so this holds for `f64` too).
//! 3. **Restored-stats merge equals uninterrupted** — a value stream
//!    chopped into epoch-sized pieces, each flushed through a
//!    serialized checkpoint and merged back, is indistinguishable from
//!    one accumulator that never stopped.

use gvc_engine::{Cycle, Duration, Histogram, IntervalSampler, RateAccum, SimRng};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// JSON text round-trip through the same path the soak checkpoint
/// files take (`to_string_pretty → from_str → from_value`).
fn json_round_trip<T: Serialize + Deserialize>(x: &T) -> T {
    let text = serde_json::to_string_pretty(x).expect("serialize");
    let value: serde::Value = serde_json::from_str(&text).expect("parse");
    T::from_value(&value).expect("deserialize")
}

proptest! {
    #[test]
    fn rng_snapshot_restore_is_a_fixed_point(
        seed in any::<u64>(),
        warmup in 0usize..64,
        draws in 1usize..32,
    ) {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..warmup {
            rng.below(1000);
        }
        let snap = rng.snapshot();
        let mut restored = SimRng::from_snapshot(snap);
        prop_assert_eq!(restored.snapshot(), snap, "snapshot/restore fixed point");
        for _ in 0..draws {
            prop_assert_eq!(restored.below(u64::MAX), rng.below(u64::MAX));
        }
        // Forked child streams derive from the snapshotted base seed,
        // so restoring preserves the whole fork tree.
        prop_assert_eq!(
            SimRng::from_snapshot(snap).fork(7).snapshot(),
            rng.fork(7).snapshot()
        );
    }

    #[test]
    fn rng_snapshot_survives_json_text(seed in any::<u64>(), warmup in 0usize..64) {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..warmup {
            rng.below(1000);
        }
        let snap = rng.snapshot();
        prop_assert_eq!(json_round_trip(&snap), snap);
    }

    #[test]
    fn histogram_survives_json_text_exactly(
        xs in prop::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let back = json_round_trip(&h);
        prop_assert_eq!(&back, &h);
        prop_assert_eq!(back.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn histogram_checkpointed_epochs_merge_to_uninterrupted(
        xs in prop::collection::vec(0u64..1_000_000, 0..96),
        epoch_len in 1usize..16,
    ) {
        let mut uninterrupted = Histogram::new();
        for &x in &xs {
            uninterrupted.record(x);
        }
        // Record each epoch into a fresh histogram, push it through a
        // serialized checkpoint, and merge the restored pieces.
        let mut merged = Histogram::new();
        for chunk in xs.chunks(epoch_len) {
            let mut epoch = Histogram::new();
            for &x in chunk {
                epoch.record(x);
            }
            merged.merge(&json_round_trip(&epoch));
        }
        prop_assert_eq!(&merged, &uninterrupted);
        prop_assert_eq!(merged.quantile(0.5), uninterrupted.quantile(0.5));
        prop_assert_eq!(merged.quantile(0.99), uninterrupted.quantile(0.99));
    }

    #[test]
    fn rate_accum_merge_survives_checkpoints(
        counts in prop::collection::vec(0u64..1_000, 0..64),
        split in 0usize..64,
        interval in 1u64..2_000,
    ) {
        let split = split.min(counts.len());
        let mut uninterrupted = RateAccum::new(Duration::new(interval));
        for &c in &counts {
            uninterrupted.absorb(c);
        }
        let mut left = RateAccum::new(Duration::new(interval));
        for &c in &counts[..split] {
            left.absorb(c);
        }
        let mut right = RateAccum::new(Duration::new(interval));
        for &c in &counts[split..] {
            right.absorb(c);
        }
        // Checkpoint both halves through JSON before merging.
        let mut merged = json_round_trip(&left);
        merged.merge(&json_round_trip(&right));
        prop_assert_eq!(&merged, &uninterrupted);
        prop_assert_eq!(merged.summary(), uninterrupted.summary());
    }

    #[test]
    fn spilled_sampler_checkpoint_resume_equals_uninterrupted(
        events in prop::collection::vec(0u64..40_000, 0..128),
        interval in 1u64..700,
        epoch_cycles in 100u64..10_000,
        cut_epoch in 0u64..8,
    ) {
        let mut events = events;
        events.sort_unstable();
        let end = Cycle::new(events.last().copied().unwrap_or(0) + 1);
        let interval = Duration::new(interval);

        // The uninterrupted run: record everything, spilling at every
        // epoch boundary as the soak loop does.
        let (ref_sampler, ref_acc) = drive(&events, interval, epoch_cycles, None);
        let reference = ref_sampler.finish_into(end, &ref_acc);

        // The interrupted run: at epoch boundary `cut_epoch`, push the
        // sampler and accumulator through a serialized checkpoint,
        // then keep going on the restored copies.
        let (cut_sampler, cut_acc) = drive(&events, interval, epoch_cycles, Some(cut_epoch));
        let resumed = cut_sampler.finish_into(end, &cut_acc);

        prop_assert_eq!(resumed, reference, "checkpoint cut must be invisible");
        // Bounded-memory contract: the resident window never exceeds
        // one epoch of intervals (+1 for the partial tail interval).
        let bound = (epoch_cycles / interval.raw() + 2) as usize;
        prop_assert!(ref_sampler.counts().len() <= bound.max(1));
    }
}

/// Replays `events` into a sampler, spilling complete intervals into a
/// [`RateAccum`] at every `epoch_cycles` boundary. When `cut` names an
/// epoch, the sampler + accumulator are round-tripped through JSON at
/// that boundary (the checkpoint) before the replay continues.
fn drive(
    events: &[u64],
    interval: Duration,
    epoch_cycles: u64,
    cut: Option<u64>,
) -> (IntervalSampler, RateAccum) {
    let mut sampler = IntervalSampler::new(interval);
    let mut acc = RateAccum::new(interval);
    let mut epoch = 0u64;
    for &at in events {
        while at >= (epoch + 1) * epoch_cycles {
            epoch += 1;
            sampler.spill_into(Cycle::new(epoch * epoch_cycles), &mut acc);
            if cut == Some(epoch) {
                sampler = json_round_trip(&sampler);
                acc = json_round_trip(&acc);
            }
        }
        sampler.record(Cycle::new(at));
    }
    (sampler, acc)
}
