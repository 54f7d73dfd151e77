//! WAL recovery benchmark: how fast does a crashed pipeline come back,
//! and what do checkpoints buy?
//!
//! Three phases over one data directory:
//!
//! * **A — build a WAL suffix.** A durable pipeline (checkpoints off)
//!   ingests a deterministic workload across several epochs and drains,
//!   leaving the whole history as a replayable log suffix.
//! * **B — cold replay.** `IngestPipeline::recover` rebuilds the state
//!   by replaying every tuple through the shard binners; the replay is
//!   timed and its sum checked against phase A. The recovered pipeline
//!   then drains with checkpoints on, writing a drain checkpoint.
//! * **C — checkpointed recovery.** A second recovery now starts from
//!   that checkpoint and replays (almost) nothing; timing it shows the
//!   checkpoint's effect, and the checkpoint file size is measured.
//!
//! The run prints one row and doubles as a correctness gate: a
//! recovered sum mismatch exits non-zero. The measured series lives in
//! `benchmarks/results/BENCH_<n>.json`.

#![forbid(unsafe_code)]

use cobra_bench::{report, Scale, Table};
use cobra_graph::rng::SplitMix64;
use cobra_serve::SumU64;
use cobra_stream::{DurableConfig, IngestPipeline, StreamConfig, SyncPolicy};
use std::time::Instant;

struct Load {
    num_keys: u32,
    epochs: u64,
    tuples_per_epoch: u64,
}

impl Load {
    fn for_scale(scale: Scale) -> Load {
        match scale {
            Scale::Quick => Load {
                num_keys: 1 << 14,
                epochs: 8,
                tuples_per_epoch: 20_000,
            },
            Scale::Standard => Load {
                num_keys: 1 << 18,
                epochs: 16,
                tuples_per_epoch: 250_000,
            },
            Scale::Full => Load {
                num_keys: 1 << 20,
                epochs: 32,
                tuples_per_epoch: 1_000_000,
            },
        }
    }
}

fn stream_cfg() -> StreamConfig {
    StreamConfig::new().shards(4).channel_capacity(64)
}

/// Total size of the checkpoint files in the data dir.
fn checkpoint_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn main() {
    let scale = Scale::from_args();
    let load = Load::for_scale(scale);
    let dir = std::env::temp_dir().join(format!("cobra-wal-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "wal recovery ({scale:?}): {} epochs x {} tuples over {} keys, data dir {}",
        load.epochs,
        load.tuples_per_epoch,
        load.num_keys,
        dir.display()
    );

    // Phase A: build the WAL suffix (checkpoints off → everything replays).
    let durable_a = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(0);
    let (pipeline, _) = IngestPipeline::recover(load.num_keys, SumU64, stream_cfg(), durable_a)
        .expect("create durable pipeline");
    let mut rng = SplitMix64::seed_from_u64(0xC0BA);
    let mut sent_sum = 0u64;
    let mut handle = pipeline.handle();
    let t_ingest = Instant::now();
    for _ in 0..load.epochs {
        for _ in 0..load.tuples_per_epoch {
            let key = rng.u32_below(load.num_keys);
            let value = rng.next_u64() >> 40;
            sent_sum += value;
            handle.send(key, value).expect("ingest");
        }
        handle.seal_epoch().expect("seal");
    }
    drop(handle);
    let (snapshot, stats_a) = pipeline.shutdown();
    let ingest_s = t_ingest.elapsed().as_secs_f64();
    let suffix_tuples = load.epochs * load.tuples_per_epoch;
    let wal_bytes = stats_a.wal_bytes_appended;
    assert_eq!(
        snapshot.iter().sum::<u64>(),
        sent_sum,
        "phase A lost updates"
    );
    println!(
        "  phase A: logged {suffix_tuples} tuples, {:.1} MiB WAL, {:.2} Mtuples/s ingest",
        wal_bytes as f64 / (1 << 20) as f64,
        suffix_tuples as f64 / ingest_s / 1e6
    );

    // Phase B: cold replay of the full suffix, then drain a checkpoint.
    let durable_b = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(8);
    let t_replay = Instant::now();
    let (recovered, rep) = IngestPipeline::recover(load.num_keys, SumU64, stream_cfg(), durable_b)
        .expect("cold recovery");
    let replay_ms = t_replay.elapsed().as_secs_f64() * 1e3;
    let replay_mtps = rep.replayed_tuples as f64 / (replay_ms / 1e3) / 1e6;
    let recovered_sum: u64 = recovered.snapshot().iter().sum();
    println!(
        "  phase B: replayed {} records ({} tuples) in {:.1} ms — {:.2} Mtuples/s",
        rep.replayed_records, rep.replayed_tuples, replay_ms, replay_mtps
    );
    recovered.shutdown();
    let ckpt_bytes = checkpoint_bytes(&dir);

    // Phase C: recovery again, now seeded by the drain checkpoint.
    let durable_c = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(8);
    let t_ckpt = Instant::now();
    let (from_ckpt, rep_c) =
        IngestPipeline::recover(load.num_keys, SumU64, stream_cfg(), durable_c)
            .expect("checkpointed recovery");
    let ckpt_recovery_ms = t_ckpt.elapsed().as_secs_f64() * 1e3;
    let ckpt_sum: u64 = from_ckpt.snapshot().iter().sum();
    from_ckpt.shutdown();
    println!(
        "  phase C: checkpoint {:.1} MiB, recovery {:.1} ms ({} tuples replayed)",
        ckpt_bytes as f64 / (1 << 20) as f64,
        ckpt_recovery_ms,
        rep_c.replayed_tuples
    );

    let mut t = Table::new(
        "wal recovery",
        &[
            "scale",
            "suffix_tuples",
            "wal_bytes",
            "replayed_records",
            "replay_ms",
            "replay_Mtuples_s",
            "ckpt_bytes",
            "ckpt_recovery_ms",
        ],
    );
    t.row(vec![
        format!("{scale:?}").to_lowercase(),
        suffix_tuples.to_string(),
        wal_bytes.to_string(),
        rep.replayed_records.to_string(),
        format!("{replay_ms:.1}"),
        report::f2(replay_mtps),
        ckpt_bytes.to_string(),
        format!("{ckpt_recovery_ms:.1}"),
    ]);
    t.print();
    let _ = std::fs::remove_dir_all(&dir);

    // Correctness gates: both recoveries must reproduce the exact sums.
    let mut ok = true;
    if rep.replayed_tuples != suffix_tuples {
        println!(
            "REPLAY COUNT MISMATCH: logged {suffix_tuples}, replayed {}",
            rep.replayed_tuples
        );
        ok = false;
    }
    if recovered_sum != sent_sum {
        println!("COLD RECOVERY LOST UPDATES: sent sum {sent_sum}, recovered {recovered_sum}");
        ok = false;
    }
    if ckpt_sum != sent_sum {
        println!("CHECKPOINT RECOVERY LOST UPDATES: sent sum {sent_sum}, recovered {ckpt_sum}");
        ok = false;
    }
    if ckpt_bytes == 0 {
        println!("NO CHECKPOINT: phase B drain wrote no checkpoint file");
        ok = false;
    }
    if ok {
        println!("recovery checks: cold and checkpointed sums match the ingested workload");
    } else {
        std::process::exit(1);
    }
}
