//! Machine and layer probes: each times calls into one crate's public
//! functions from outside and reads its public stats structs. Sizes are
//! fixed (per scale), so a probe reads the same in every traced run
//! whatever workload follows it.

use crate::drive::{self, secs};
use crate::env::Scratch;
use crate::gen;
use crate::harness::{Checks, Params};
use crate::ladder::Stream;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::{median, p50};
use crate::workloads::spgemm_zipf::{same_matrix, spgemm_counts, ALPHA, NNZ_PER_ROW};
use cobra_bins::{cbuf_capacity, BinStore, CBufFrame};
use cobra_cluster::ReplicaSync;
use cobra_graph::SplitMix64;
use cobra_mvcc::{diff_range, DeltaHub, EpochStore, RetentionConfig, SubMsg};
use cobra_poll::{Interest, Poller};
use cobra_serve::protocol::{self, Frame};
use cobra_serve::{S3FifoCache, ServeClient, ServeConfig, Server, SumU64};
use cobra_spgemm::{
    dyadic_matrix, dyadic_skewed_matrix, expand, spgemm, spgemm_stream, SpGemmConfig, TUPLE_BYTES,
};
use cobra_stream::{DurableConfig, EpochSnapshot, IngestPipeline, SyncPolicy};
use cobra_wal::{
    latest_checkpoint, scan, write_checkpoint, CheckpointMeta, LogPosition, Record, WalConfig,
    WalStats, WalWriter,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times `f` `n` times and returns each duration in seconds.
fn time_each(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect()
}

fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let a =
        TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect loopback");
    let (b, _) = listener.accept().expect("accept loopback");
    a.set_nodelay(true).expect("nodelay");
    b.set_nodelay(true).expect("nodelay");
    (a, b)
}

/// The bounds the layers are read against. Returns `machine.copy_gbps`.
pub fn machine(p: &Params, scratch: &Scratch, tr: &mut Tracer, m: &mut Metrics) -> f64 {
    tr.enter("probe.machine");
    let bytes = p.scale.size(256 << 20);

    // First touch: page-faulting a fresh buffer (mmap'd at this size).
    let t = Instant::now();
    let mut src = vec![0u8; bytes];
    for page in src.chunks_mut(4096) {
        page[0] = 1;
    }
    m.val("machine.first_touch_gbps", bytes as f64 / secs(t) / 1e9);

    let mut dst = vec![1u8; bytes];
    let copies = time_each(3, || dst.copy_from_slice(std::hint::black_box(&src)));
    std::hint::black_box(&dst);
    // Read plus write traffic.
    let gbps: Vec<f64> = copies
        .iter()
        .map(|s| 2.0 * bytes as f64 / s / 1e9)
        .collect();
    m.samples("machine.copy_gbps", &gbps);
    drop((src, dst));

    // 1-byte echo between two threads over loopback TCP.
    let (mut a, mut b) = pair();
    let echo = std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        while b.read_exact(&mut byte).is_ok() && b.write_all(&byte).is_ok() {}
    });
    let mut byte = [7u8; 1];
    let rtts = time_each(p.scale.size(4000).max(200), || {
        a.write_all(&byte).expect("echo write");
        a.read_exact(&mut byte).expect("echo read");
    });
    drop(a);
    echo.join().expect("echo thread");
    let rtt_us: Vec<f64> = rtts[rtts.len() / 10..].iter().map(|s| s * 1e6).collect();
    m.put("machine.loopback_rtt_us", p50(&rtt_us));

    // 4 KiB append + sync_data.
    let path = scratch.path().join("fsync-probe");
    let mut file = std::fs::File::create(&path).expect("create fsync probe file");
    let block = [0x5Au8; 4096];
    let syncs = time_each(p.scale.size(64).max(8), || {
        file.write_all(&block).expect("append");
        file.sync_data().expect("sync_data");
    });
    let _ = std::fs::remove_file(&path);
    m.put(
        "machine.fsync_p50_us",
        p50(&syncs.iter().map(|s| s * 1e6).collect::<Vec<_>>()),
    );
    m.val("machine.nproc", crate::env::nproc() as f64);
    tr.exit();
    median(&gbps)
}

pub fn bins(s: &Stream, tr: &mut Tracer, m: &mut Metrics) {
    tr.enter("probe.bins");
    let bins = drive::batch_bins(s.num_keys);
    let n = s.tuples.len() as f64;

    let mut store = BinStore::<u64>::new(s.num_keys, bins);
    let t = Instant::now();
    for &(k, v) in &s.tuples {
        store.insert(k, v);
    }
    m.val("bins.push_updates_per_s", n / secs(t));
    let t = Instant::now();
    let frozen = store.freeze();
    m.val("bins.freeze_us", secs(t) * 1e6);
    drop(frozen);

    // Cacheline-sized bulk appends, round-robin over the bins.
    let cap = cbuf_capacity(4 + 8);
    let (keys, values) = (vec![1u32; cap], vec![1u64; cap]);
    let mut store = BinStore::<u64>::new(s.num_keys, bins);
    let num_bins = store.num_bins();
    let frames = s.tuples.len() / cap;
    let t = Instant::now();
    for i in 0..frames {
        store.extend_bin(i % num_bins, &keys, &values);
    }
    m.val(
        "bins.extend_bin_gbps",
        (frames * cap * 12) as f64 / secs(t) / 1e9,
    );

    let mut store = BinStore::<u64>::new(s.num_keys, bins);
    let mut frame = CBufFrame::<u64>::with_capacity(cap);
    let t = Instant::now();
    for i in 0..frames {
        for j in 0..cap {
            frame.push(j as u32, i as u64);
        }
        frame.flush_into(&mut store, i % num_bins);
    }
    m.val("bins.frame_flush_ns", secs(t) * 1e9 / frames as f64);
    tr.exit();
}

pub fn stream(s: &Stream, tr: &mut Tracer, m: &mut Metrics) {
    tr.enter("probe.stream");
    let pipeline = IngestPipeline::new(s.num_keys, SumU64, drive::stream_cfg());
    let mut handle = pipeline.handle();
    let seg_keys = pipeline.snapshot().segment_keys();
    let segments = s.num_keys / seg_keys;
    let mut publish = |keys: &mut dyn Iterator<Item = u32>| {
        let t = Instant::now();
        for k in keys {
            handle.send(k, 1).expect("pipeline alive");
        }
        let e = handle.seal_epoch().expect("pipeline alive");
        while pipeline.published_epoch() < e {
            std::thread::yield_now();
        }
        secs(t) * 1e3
    };
    // The same number of tuples either way: all in one snapshot segment,
    // or one in every segment (each COW-copied on publish).
    let sparse: Vec<f64> = (0..7)
        .map(|_| publish(&mut (0..segments).map(|i| i % seg_keys)))
        .collect();
    let dense: Vec<f64> = (0..7)
        .map(|_| publish(&mut (0..segments).map(|i| i * seg_keys)))
        .collect();
    m.samples("stream.sparse_publish_ms", &sparse);
    m.samples("stream.dense_publish_ms", &dense);

    let mut rng = SplitMix64::seed_from_u64(1);
    let gets = 200_000;
    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..gets {
        sum = sum.wrapping_add(pipeline.get(rng.u32_below(s.num_keys)));
    }
    std::hint::black_box(sum);
    m.val("stream.snapshot_get_ns", secs(t) * 1e9 / gets as f64);
    drop(handle);
    pipeline.shutdown();
    tr.exit();
}

pub fn wal(
    s: &Stream,
    p: &Params,
    scratch: &Scratch,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    tr.enter("probe.wal");
    let dir = scratch.fresh("wal-probe").expect("scratch dir");
    let records = p.scale.size(1 << 20);
    let stats = Arc::new(WalStats::default());
    let cfg = WalConfig::new(dir.join("log")).sync(SyncPolicy::Never);
    let mut writer =
        WalWriter::open(cfg, Arc::clone(&stats), LogPosition::start()).expect("open wal");
    tr.enter("wal.append");
    let t = Instant::now();
    for &(key, value) in &s.tuples[..records.min(s.tuples.len())] {
        writer
            .append(&Record::Update { key, value })
            .expect("wal append");
    }
    writer.seal_flush().expect("wal flush");
    m.val(
        "wal.append_mbps",
        stats.bytes_appended() as f64 / secs(t) / 1e6,
    );
    drop(writer);
    tr.exit();

    tr.enter("wal.scan");
    let t = Instant::now();
    let mut seen = 0u64;
    let outcome = scan(&dir.join("log"), 0, |_, _| {
        seen += 1;
        true
    })
    .expect("scan wal");
    m.val("wal.scan_tuples_per_s", seen as f64 / secs(t));
    tr.exit();
    checks.gate(
        "wal.scan_sees_every_record",
        outcome.clean && seen == stats.records_appended(),
        || {
            format!(
                "scanned {seen} of {} records, clean={}",
                stats.records_appended(),
                outcome.clean
            )
        },
    );

    // The group-commit point under the default policy: one frame's worth
    // of records, then write + fsync.
    tr.enter("wal.seal_flush");
    let cfg = WalConfig::new(dir.join("sync")).sync(SyncPolicy::OnSeal);
    let mut writer = WalWriter::open(cfg, Arc::new(WalStats::default()), LogPosition::start())
        .expect("open wal");
    let flushes: Vec<f64> = s
        .tuples
        .chunks(drive::FRAME_TUPLES)
        .take(p.scale.size(48).max(8))
        .map(|frame| {
            for &(key, value) in frame {
                writer
                    .append(&Record::Update { key, value })
                    .expect("wal append");
            }
            let t = Instant::now();
            writer.seal_flush().expect("wal flush");
            secs(t) * 1e6
        })
        .collect();
    m.put("wal.seal_flush_p50_us", p50(&flushes));
    drop(writer);
    tr.exit();

    // A checkpoint of a quarter of the ladder's state (8 MiB at full scale).
    let seg_keys = 1024u32;
    let ckpt_keys = s.num_keys / 4;
    let segments: Vec<Arc<Vec<u64>>> = (0..ckpt_keys / seg_keys)
        .map(|i| Arc::new(vec![u64::from(i); seg_keys as usize]))
        .collect();
    let meta = CheckpointMeta {
        epoch: 1,
        num_keys: ckpt_keys,
        segment_keys: seg_keys,
        shard_offsets: vec![0, 0],
    };
    tr.enter("wal.write_checkpoint");
    let t = Instant::now();
    let bytes = write_checkpoint(&dir.join("ckpt"), &meta, &segments).expect("write checkpoint");
    m.val("wal.checkpoint_write_ms", secs(t) * 1e3);
    m.val("wal.checkpoint_bytes", bytes as f64);
    tr.exit();
    tr.enter("wal.read_checkpoint");
    let t = Instant::now();
    let back = latest_checkpoint::<u64>(&dir.join("ckpt"), u64::MAX).expect("read checkpoint");
    m.val("wal.checkpoint_read_ms", secs(t) * 1e3);
    tr.exit();
    checks.gate(
        "wal.checkpoint_round_trips",
        back.is_some_and(|c| c.meta == meta && c.segments == segments),
        || format!("{bytes} bytes written and read back, manifest and segments compared"),
    );

    // The durability tax: one stream through the same loopback server
    // with and without a data dir. A small state (1/16 of the ladder's),
    // so the shutdown checkpoint does not dominate the probe.
    let keys = s.num_keys / 16;
    let taxed = gen::uniform_tuples(s.tuples.len() / 4, keys, p.seed ^ 0x7A);
    let plain = drive::serve_run(&taxed, keys, p.threads, None, tr);
    let durable = DurableConfig::new(dir.join("data")).sync(SyncPolicy::OnSeal);
    let logged = drive::serve_run(&taxed, keys, p.threads, Some(durable), tr);
    checks.ops(plain.ops + logged.ops, plain.errors + logged.errors);
    checks.gate(
        "wal.durable_equals_plain",
        gen::digest(plain.snapshot.iter()) == gen::digest(logged.snapshot.iter()),
        || "durable and non-durable snapshots of the same input compared".into(),
    );
    m.val("wal.tax_frac", 1.0 - plain.seconds / logged.seconds);
    let w = &logged.stats;
    m.val(
        "wal.bytes_per_tuple",
        w.wal_bytes_appended as f64 / w.tuples_ingested.max(1) as f64,
    );
    m.val("wal.fsyncs", w.wal_fsyncs as f64);
    m.val("wal.segments", w.wal_segments as f64);
    m.val("wal.replayed_records", w.wal_replayed_records as f64);
    tr.exit();
}

pub fn mvcc(s: &Stream, p: &Params, tr: &mut Tracer, m: &mut Metrics, checks: &mut Checks) {
    tr.enter("probe.mvcc");
    let rounds = p.scale.size(400).max(40);
    let entries: Vec<(u32, u64)> = (0..1024).map(|k| (k, u64::from(k))).collect();

    // Fan-out cost with one subscriber that drains after every publish.
    let hub: DeltaHub<u64> = DeltaHub::new();
    let sub = hub.subscribe(0, 1 << 16, 16);
    let mut fanout_us = Vec::with_capacity(rounds);
    for epoch in 1..=rounds as u64 {
        let changed = entries.clone();
        let t = Instant::now();
        hub.fan_out(epoch, changed);
        fanout_us.push(secs(t) * 1e6);
        let got =
            matches!(sub.next_msg(Duration::from_secs(1)), SubMsg::Delta(d) if d.epoch() == epoch);
        checks.ops(1, u64::from(!got));
    }
    m.put("mvcc.hub_fanout_us", p50(&fanout_us));

    // Publish → a consumer blocked in `next_msg` wakes (no socket).
    // The queue holds every round, so a descheduled consumer cannot lag.
    let hub: Arc<DeltaHub<u64>> = Arc::new(DeltaHub::new());
    let sub = hub.subscribe(0, 1 << 16, rounds);
    let consumer = std::thread::spawn(move || {
        let mut arrivals = Vec::new();
        loop {
            match sub.next_msg(Duration::from_secs(5)) {
                SubMsg::Delta(_) => arrivals.push(Instant::now()),
                SubMsg::Closed => return arrivals,
                SubMsg::Idle | SubMsg::Lagged { .. } => continue,
            }
        }
    });
    let mut published = Vec::with_capacity(rounds);
    for epoch in 1..=rounds as u64 {
        // Let the consumer go back to sleep first: this is the wake-up cost.
        std::thread::sleep(Duration::from_micros(200));
        published.push(Instant::now());
        hub.fan_out(epoch, entries.clone());
    }
    hub.close_all();
    let arrivals = consumer.join().expect("consumer thread");
    checks.gate(
        "mvcc.hub_delivers_every_epoch",
        arrivals.len() == rounds,
        || format!("{} of {rounds} epochs delivered", arrivals.len()),
    );
    let wait_us: Vec<f64> = arrivals
        .iter()
        .zip(&published)
        .map(|(a, p)| a.saturating_duration_since(*p).as_secs_f64() * 1e6)
        .collect();
    m.put("mvcc.hub_recv_wait_us", p50(&wait_us));
    m.val("mvcc.lag_events", hub.lag_events() as f64);
    m.val("mvcc.delta_entries_per_epoch", entries.len() as f64);

    // Diff by segment identity: a tenth of the segments rewritten.
    let seg_keys = 1024u32;
    let old: Vec<Arc<Vec<u64>>> = (0..s.num_keys / seg_keys)
        .map(|_| Arc::new(vec![0u64; seg_keys as usize]))
        .collect();
    let mut new = old.clone();
    for seg in new.iter_mut().step_by(10) {
        *seg = Arc::new(vec![1u64; seg_keys as usize]);
    }
    let changed_keys = new.iter().step_by(10).count() * seg_keys as usize;
    let e1 = EpochSnapshot::from_segments(1, seg_keys, old.clone());
    let e2 = EpochSnapshot::from_segments(2, seg_keys, new);
    let mut found = 0;
    let diffs = time_each(5, || found = diff_range(&e1, &e2, 0, s.num_keys).len());
    m.samples(
        "mvcc.diff_range_ms",
        &diffs.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    checks.gate(
        "mvcc.diff_finds_every_change",
        found == changed_keys,
        || format!("{found} of {changed_keys} changed keys"),
    );

    let store = EpochStore::new(RetentionConfig::new().max_epochs(4));
    let snaps: Vec<Arc<EpochSnapshot<u64>>> = (1..=rounds as u64)
        .map(|e| Arc::new(EpochSnapshot::from_segments(e, seg_keys, old.clone())))
        .collect();
    let admits: Vec<f64> = snaps
        .into_iter()
        .map(|snap| {
            let t = Instant::now();
            store.admit(snap);
            secs(t) * 1e6
        })
        .collect();
    m.put("mvcc.admit_us", p50(&admits));
    m.val("mvcc.retained_epochs", store.retained_epochs() as f64);
    m.val("mvcc.retained_bytes", store.retained_bytes() as f64);
    tr.exit();
}

pub fn poll(p: &Params, tr: &mut Tracer, m: &mut Metrics, checks: &mut Checks) {
    tr.enter("probe.poll");
    let poller = Poller::new().expect("poller");
    let (mut a, b) = pair();
    a.write_all(&[1]).expect("make peer readable");
    poller.register(&b, 7, Interest::READ).expect("register");
    let mut events = Vec::new();
    // Level-triggered and never drained: ready on every call.
    std::thread::sleep(Duration::from_millis(1));
    let calls = p.scale.size(200_000);
    let mut ready = 0usize;
    let t = Instant::now();
    for _ in 0..calls {
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("poll wait");
        ready += events.len();
    }
    m.val("poll.wait_ready_ns", secs(t) * 1e9 / calls as f64);
    checks.gate("poll.readable_every_round", ready == calls, || {
        format!("{ready} events in {calls} waits")
    });
    poller.deregister(&b).expect("deregister");

    let calls = p.scale.size(50_000);
    let t = Instant::now();
    for _ in 0..calls {
        poller.register(&b, 7, Interest::READ).expect("register");
        poller.deregister(&b).expect("deregister");
    }
    m.val("poll.register_ns", secs(t) * 1e9 / calls as f64);
    tr.exit();
}

pub fn serve(s: &Stream, p: &Params, tr: &mut Tracer, m: &mut Metrics, checks: &mut Checks) {
    tr.enter("probe.serve");
    // Codec on one full-size UPDATE frame.
    let frame = Frame::Update(s.tuples[..drive::FRAME_TUPLES].to_vec());
    let mut wire = Vec::new();
    let rounds = p.scale.size(2000).max(100);
    let t = Instant::now();
    for _ in 0..rounds {
        protocol::encode(std::hint::black_box(&frame), &mut wire);
    }
    let per_tuple = 1e9 / (rounds * drive::FRAME_TUPLES) as f64;
    m.val("serve.encode_ns_per_tuple", secs(t) * per_tuple);
    let t = Instant::now();
    let mut decoded = 0usize;
    for _ in 0..rounds {
        if let Ok(Frame::Update(tuples)) = protocol::decode(std::hint::black_box(&wire[4..])) {
            decoded += tuples.len();
        }
    }
    m.val("serve.decode_ns_per_tuple", secs(t) * per_tuple);
    checks.gate(
        "serve.codec_round_trips",
        decoded == rounds * drive::FRAME_TUPLES,
        || {
            format!(
                "decoded {decoded} tuples of {}",
                rounds * drive::FRAME_TUPLES
            )
        },
    );

    // An otherwise idle server holding three epochs of a small state.
    let keys = (1u32 << 18).min(s.num_keys);
    let chunk = 65_536u32.min(keys);
    let server = Server::start(
        keys,
        drive::stream_cfg(),
        ServeConfig::new().retain_epochs(4),
    )
    .expect("start probe server");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect probe client");
    let mut errors = 0u64;
    let mut ops = 0u64;
    let mut epoch = 0;
    for round in 0..3u64 {
        let batch: Vec<(u32, u64)> = (0..chunk).step_by(3).map(|k| (k, round + 1)).collect();
        ops += 3;
        errors += u64::from(client.update_all(&batch).is_err());
        match client.seal() {
            Ok(e) => epoch = e,
            Err(_) => errors += 1,
        }
        errors += u64::from(client.wait_epoch(epoch).is_err());
    }
    // Commit can precede publish; wait until the epoch is readable.
    while client.query(0).is_ok_and(|(e, _)| e < epoch) {
        std::thread::yield_now();
    }
    let mut rng = SplitMix64::seed_from_u64(2);
    let n = p.scale.size(4000).max(200);
    let mut timed = |f: &mut dyn FnMut(&mut ServeClient, u32) -> bool| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let key = rng.u32_below(keys);
                let t = Instant::now();
                let ok = f(&mut client, key);
                let us = secs(t) * 1e6;
                ops += 1;
                errors += u64::from(!ok);
                us
            })
            .collect()
    };
    let idle = timed(&mut |c, k| c.query(k).is_ok());
    let at = timed(&mut |c, k| c.query_at(epoch - 1, k).is_ok());
    m.put("serve.query_rtt_idle_p50_us", p50(&idle));
    m.put("serve.query_at_p50_us", p50(&at));

    let slices = time_each(16, || {
        ops += 1;
        errors += u64::from(client.snapshot(0, 0, chunk).is_err());
    });
    m.val(
        "serve.snapshot_mbps",
        f64::from(chunk) * 8.0 / median(&slices) / 1e6,
    );
    let mut changed = 0;
    let diffs = time_each(16, || {
        ops += 1;
        match client.diff(epoch - 1, epoch, 0, chunk) {
            Ok((_, _, entries)) => changed = entries.len(),
            Err(_) => errors += 1,
        }
    });
    m.samples(
        "serve.diff_ms",
        &diffs.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    let want = (0..chunk).step_by(3).count();
    checks.gate("serve.diff_finds_every_change", changed == want, || {
        format!("{changed} of {want} changed keys")
    });
    checks.ops(ops, errors);
    drop(client);
    server.shutdown();

    // The read-path cache alone, all hits: a hot set small enough to
    // sit in the S3-FIFO small queue of the default 128-block cache.
    let cache: S3FifoCache<(u64, u32), Arc<Vec<u64>>> = S3FifoCache::new(128);
    let block = Arc::new(vec![0u64; 1024]);
    const HOT: u32 = 8;
    for b in 0..HOT {
        cache.insert((1, b), Arc::clone(&block));
    }
    let gets = p.scale.size(1_000_000);
    let t = Instant::now();
    let mut hits = 0usize;
    for i in 0..gets {
        hits += usize::from(cache.get(&(1, i as u32 % HOT)).is_some());
    }
    m.val("serve.cache_get_ns", secs(t) * 1e9 / gets as f64);
    checks.gate("serve.cache_hits_resident_blocks", hits == gets, || {
        format!("{hits} hits in {gets} gets")
    });
    tr.exit();
}

/// WAL shipping from one durable node to a follower directory.
pub fn cluster_repl(
    s: &Stream,
    p: &Params,
    scratch: &Scratch,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    tr.enter("probe.cluster_repl");
    let keys = s.num_keys / 16;
    let shipped = gen::uniform_tuples(drive::EPOCH_TUPLES.min(s.tuples.len()), keys, p.seed ^ 0x5E);
    let primary_dir = scratch.fresh("repl-primary").expect("scratch dir");
    let follower_dir = scratch.fresh("repl-follower").expect("scratch dir");
    let cfg = ServeConfig::new().durable(DurableConfig::new(&primary_dir).sync(SyncPolicy::OnSeal));
    let server = Server::start(keys, drive::stream_cfg(), cfg).expect("start durable node");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(addr.as_str()).expect("connect");
    let mut errors = u64::from(client.update_all(&shipped).is_err());
    let epoch = client.seal().unwrap_or(0);
    errors += u64::from(client.wait_epoch(epoch).is_err());
    let mut sync = ReplicaSync::connect(&addr, &follower_dir).expect("connect follower");
    let t = Instant::now();
    tr.enter("cluster.sync_round");
    let round = sync.sync_round();
    tr.exit();
    m.val("cluster.repl_round_ms", secs(t) * 1e3);
    let (bytes, lag) = match &round {
        Ok(r) => (r.bytes, r.primary_epoch.saturating_sub(r.epoch)),
        Err(_) => (0, u64::MAX),
    };
    m.val("cluster.repl_bytes", bytes as f64);
    m.val("cluster.repl_lag_max", lag as f64);
    checks.ops(4, errors + u64::from(round.is_err()));
    checks.gate(
        "cluster.follower_caught_up",
        round.is_ok_and(|r| r.epoch >= epoch && r.bytes > 0),
        || format!("primary at epoch {epoch}, follower after one round: {bytes} bytes, lag {lag}"),
    );
    drop((client, sync));
    server.shutdown();
    tr.exit();
}

pub fn spgemm_probe(
    p: &Params,
    copy_gbps: f64,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    tr.enter("probe.spgemm");
    let n = p.scale.size(1 << 15) as u32;
    let a = dyadic_matrix(n, n, NNZ_PER_ROW, p.seed);
    let b = dyadic_skewed_matrix(n, n, NNZ_PER_ROW, ALPHA, p.seed ^ 0xB);
    let b_uniform = dyadic_matrix(n, n, NNZ_PER_ROW, p.seed ^ 0xC);

    let t = Instant::now();
    let mut products = 0u64;
    expand(&a, &b, |row, product| {
        products += 1;
        std::hint::black_box((row, product));
    });
    m.val("spgemm.expand_s", secs(t));
    let flops = 2.0 * products as f64;

    let on = SpGemmConfig::default();
    let t = Instant::now();
    let (fused, report) = spgemm(&a, &b, &on);
    let fused_rate = flops / secs(t);
    m.val("spgemm.fused_flops_per_s", fused_rate);
    let t = Instant::now();
    let (unfused, _) = spgemm(
        &a,
        &b,
        &SpGemmConfig {
            fusion: false,
            ..on
        },
    );
    m.val("spgemm.unfused_flops_per_s", flops / secs(t));
    let t = Instant::now();
    let (_, uniform) = spgemm(&a, &b_uniform, &on);
    m.val("spgemm.uniform_flops_per_s", uniform.flops as f64 / secs(t));
    let t = Instant::now();
    let (streamed, _) = spgemm_stream(&a, &b, 8, drive::stream_cfg());
    m.val("spgemm.stream_flops_per_s", flops / secs(t));
    checks.gate(
        "spgemm.variants_agree_bitwise",
        same_matrix(&fused, &unfused) && same_matrix(&fused, &streamed),
        || {
            format!(
                "fused, unfused and streamed products compared ({} nonzeros)",
                fused.nnz()
            )
        },
    );

    // Computed traffic: each product reads one B entry (12 B); each
    // binned tuple is written and read back (2 x 16 B) and folded into
    // an accumulator slot (16 B read + write).
    let bytes =
        12.0 * products as f64 + (2 * TUPLE_BYTES + 16) as f64 * report.binned_tuples as f64;
    m.val("spgemm.bytes_per_flop", bytes / flops);
    m.val(
        "spgemm.roofline_frac",
        fused_rate * bytes / flops / (copy_gbps * 1e9),
    );
    spgemm_counts(&report, m);
    tr.exit();
}
