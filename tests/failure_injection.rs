//! Failure injection across the storage/pipeline boundary: corrupt stores,
//! missing versions, truncated files, and shrinking memory must all surface
//! as typed errors (never hangs, panics, or silent wrong results).
//!
//! **Where a read error surfaces.** A shard the shard cache cannot keep (its
//! payload exceeds the whole budget) is dispatched, priced and logged, but
//! read only when the engagement computes its layer. A damaged record of
//! such a shard therefore fails `infer_complete` (or the compute half of
//! `PipelineExecutor::execute`), with the same typed `StorageError` a read at
//! dispatch raised, and its dispatch was charged and logged; a failed load
//! at dispatch used to charge nothing. Shards the cache keeps are still read
//! at dispatch. The cases this moved from the dispatch to the compute half:
//! `corrupt_disk_record_surfaces_as_corrupt_error` (the executor's private
//! zero-byte cache defers every shard),
//! `a_layer_file_truncated_mid_record_fails_infer_with_a_typed_io_error` and
//! `a_flipped_byte_in_every_record_fails_infer_with_a_typed_corrupt_error`
//! (their plans stream every shard at full fidelity, above 1 KiB). And
//! `a_record_damaged_after_the_drive_fails_the_completion_typed` damages a
//! record between the two halves. Missing shards still fail at
//! dispatch, where their size is looked up.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sti::prelude::*;
use sti::TaskContext;
use sti_pipeline::{PipelineExecutor, PreloadBuffer};
use sti_planner::{plan_two_stage, ImportanceProfile};
use sti_storage::manifest::{Manifest, RecordLoc};
use sti_storage::StorageError;

fn setup() -> (Task, HwProfile, ImportanceProfile) {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Qnli, cfg.clone(), 4, 4);
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 4) as f64 * 0.02).collect(),
        0.42,
    );
    (task, hw, importance)
}

fn plan_for(hw: &HwProfile, importance: &ImportanceProfile) -> ExecutionPlan {
    plan_two_stage(hw, importance, SimTime::from_ms(400), 0, &[2, 4], &Bitwidth::ALL)
}

#[test]
fn missing_version_fails_with_missing_shard() {
    let (task, hw, importance) = setup();
    let store = Arc::new(
        ShardStore::create_temp(
            task.model(),
            &[Bitwidth::B2, Bitwidth::Full],
            &QuantConfig::default(),
        )
        .unwrap(),
    );
    // Planner believes all versions exist; B6 etc. are absent from the store.
    let plan = plan_for(&hw, &importance);
    let needs_missing = plan
        .layers
        .iter()
        .flat_map(|l| l.bitwidths.iter())
        .any(|bw| *bw != Bitwidth::B2 && *bw != Bitwidth::Full);
    let exec = PipelineExecutor::new(task.model(), store, &hw);
    let result = exec.execute(&plan, &PreloadBuffer::default(), &[1, 2]);
    if needs_missing {
        let err = result.unwrap_err();
        assert!(
            matches!(err, PipelineError::Storage(StorageError::MissingShard { .. })),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn corrupt_disk_record_surfaces_as_corrupt_error() {
    let (task, hw, importance) = setup();
    let store =
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap();

    let plan = plan_for(&hw, &importance);
    // Corrupt every layer-0 file so whichever version the plan chose is hit.
    for bw in Bitwidth::ALL {
        let path = store.dir().join(Manifest::layer_file_name(0, bw));
        let mut bytes = std::fs::read(&path).unwrap();
        for b in bytes.iter_mut() {
            *b ^= 0xA5;
        }
        std::fs::write(&path, bytes).unwrap();
    }
    let exec = PipelineExecutor::new(task.model(), Arc::new(store), &hw);
    let err = exec.execute(&plan, &PreloadBuffer::default(), &[3]).unwrap_err();
    assert!(matches!(err, PipelineError::Storage(_)), "unexpected error: {err}");
}

#[test]
fn truncated_manifest_fails_to_open() {
    let (task, _, _) = setup();
    let dir = std::env::temp_dir().join(format!("sti-failinj-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        ShardStore::create(&dir, task.model(), &[Bitwidth::B2], &QuantConfig::default()).unwrap();
    drop(store);
    let manifest_path = dir.join(ShardStore::MANIFEST_FILE);
    let bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(ShardStore::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deleted_layer_file_fails_reads_not_open() {
    let (task, _, _) = setup();
    let dir = std::env::temp_dir().join(format!("sti-failinj-delete-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        ShardStore::create(&dir, task.model(), &[Bitwidth::B2], &QuantConfig::default()).unwrap();
    drop(store);
    std::fs::remove_file(dir.join(Manifest::layer_file_name(1, Bitwidth::B2))).unwrap();
    let store = ShardStore::open(&dir).unwrap();
    assert!(store.read_layer(0, &[(0, Bitwidth::B2)]).is_ok());
    assert!(store.read_layer(1, &[(0, Bitwidth::B2)]).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A load is served from a payload some holder still has, the way a cache
/// hit is, so damage to its record goes unseen until every handle drops;
/// the next load reads the record and fails with the typed error.
#[test]
fn a_record_damaged_under_a_live_payload_fails_only_once_the_payload_drops() {
    let (task, _, _) = setup();
    let store =
        ShardStore::create_temp(task.model(), &[Bitwidth::B4], &QuantConfig::default()).unwrap();
    let id = ShardId::new(1, 2);
    let key = ShardKey::new(id, Bitwidth::B4);
    let held = store.load(key).unwrap();
    let path = store.dir().join(Manifest::layer_file_name(1, Bitwidth::B4));
    let loc = store.manifest().locate(id, Bitwidth::B4).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[loc.offset as usize + loc.len as usize / 2] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();

    let live = store.load(key).unwrap();
    assert_eq!(live.packed().as_ptr(), held.packed().as_ptr(), "the live payload, not a read");
    drop((held, live));
    let err = store.load(key).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt { .. }), "unexpected error: {err}");
}

/// On a context-built server that streams every shard of every engagement
/// from the context's on-disk store (no preload, a cache smaller than one
/// shard): damages every version of one layer (whichever the plan streams is
/// hit), expects `Session::infer` to fail with a typed storage error and no
/// panic, then restores the files and expects the healthy answer bit for
/// bit: a failed read leaves nothing partial behind in the server.
fn infer_over_damaged_layer(
    layer: u16,
    damage: impl Fn(&mut Vec<u8>, &[RecordLoc]),
) -> StorageError {
    let ctx = TaskContext::with_config(TaskKind::Qnli, ModelConfig::tiny());
    let cfg = ServeConfig { preload_bytes: 0, shard_cache_bytes: 1 << 10, ..Default::default() };
    let server = build_server(&ctx, &cfg);
    let session = server.session().unwrap();
    let healthy = session.infer(&[1, 2, 3]).unwrap();
    assert!(healthy.outcome.loaded_bytes > 0, "the engagement streams from flash");
    let manifest = ShardStore::open(ctx.shard_store_dir()).unwrap().manifest().clone();
    let mut originals = Vec::new();
    for bw in Bitwidth::ALL {
        let path = ctx.shard_store_dir().join(Manifest::layer_file_name(layer, bw));
        let original = std::fs::read(&path).unwrap();
        let locs: Vec<RecordLoc> = (0..manifest.config.heads as u16)
            .map(|slice| manifest.locate(ShardId::new(layer, slice), bw).unwrap())
            .collect();
        let mut damaged = original.clone();
        damage(&mut damaged, &locs);
        std::fs::write(&path, damaged).unwrap();
        originals.push((path, original));
    }
    let err = match session.infer(&[1, 2, 3]) {
        Err(PipelineError::Storage(e)) => e,
        other => panic!("expected a typed storage error, got {other:?}"),
    };
    for (path, original) in originals {
        std::fs::write(path, original).unwrap();
    }
    let repaired = session.infer(&[1, 2, 3]).unwrap();
    assert_eq!(repaired.outcome.logits, healthy.outcome.logits);
    assert_eq!(repaired.outcome.timeline, healthy.outcome.timeline);
    assert_eq!(repaired.outcome.loaded_bytes, healthy.outcome.loaded_bytes);
    err
}

#[test]
fn a_layer_file_truncated_mid_record_fails_infer_with_a_typed_io_error() {
    // Cut inside the first record: it is short and every later one is gone.
    let err = infer_over_damaged_layer(1, |bytes, locs| bytes.truncate(locs[0].len as usize / 2));
    assert!(
        matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "unexpected error: {err}"
    );
}

#[test]
fn a_flipped_byte_in_every_record_fails_infer_with_a_typed_corrupt_error() {
    let err = infer_over_damaged_layer(0, |bytes, locs| {
        for loc in locs {
            bytes[loc.offset as usize + loc.len as usize / 2] ^= 0x10;
        }
    });
    assert!(matches!(err, StorageError::Corrupt { .. }), "unexpected error: {err}");
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
}

/// A record damaged after its dispatch and before the engagement computes
/// its layer: the completion fails with the typed error, the dispatch stays
/// charged, and once the file is restored the next engagement is
/// bit-identical to the healthy one.
#[test]
fn a_record_damaged_after_the_drive_fails_the_completion_typed() {
    let ctx = TaskContext::with_config(TaskKind::Qnli, ModelConfig::tiny());
    let cfg = ServeConfig {
        target: SimTime::from_ms(60_000),
        preload_bytes: 0,
        shard_cache_bytes: 1 << 10,
        ..Default::default()
    };
    let server = build_server(&ctx, &cfg);
    let session = server.session().unwrap();
    let healthy = session.infer(&[1, 2, 3]).unwrap();
    let store = ShardStore::open(ctx.shard_store_dir()).unwrap();
    let plan = session.plan();
    let layer = &plan.layers[0];
    let deferred: Vec<(u16, Bitwidth)> = layer
        .items()
        .filter(|&(slice, bw)| {
            let key = ShardKey::new(ShardId::new(layer.layer, slice), bw);
            store.size_bytes(key).unwrap() > 1 << 10
        })
        .collect();
    assert!(!deferred.is_empty(), "layer {} streams shards the cache cannot keep", layer.layer);

    let pending = session.infer_issue(&[1, 2, 3]).unwrap();
    let before = server.io_stats().requests;
    server.drive_io();
    let dispatched = server.io_stats().requests - before;
    assert_eq!(dispatched as usize, plan.layers.len(), "every layer was dispatched and charged");
    // One layer file per bitwidth holds several of the records.
    let mut originals: Vec<(std::path::PathBuf, Vec<u8>)> = Vec::new();
    for &(slice, bw) in &deferred {
        let path = ctx.shard_store_dir().join(Manifest::layer_file_name(layer.layer, bw));
        if !originals.iter().any(|(p, _)| *p == path) {
            originals.push((path.clone(), std::fs::read(&path).unwrap()));
        }
        let loc = store.manifest().locate(ShardId::new(layer.layer, slice), bw).unwrap();
        let mut damaged = std::fs::read(&path).unwrap();
        damaged[loc.offset as usize + loc.len as usize / 2] ^= 0x10;
        std::fs::write(&path, damaged).unwrap();
    }
    let err = match session.infer_complete(pending) {
        Err(PipelineError::Storage(e)) => e,
        other => panic!("expected a typed storage error, got {other:?}"),
    };
    assert!(matches!(err, StorageError::Corrupt { .. }), "unexpected error: {err}");
    for (path, original) in originals {
        std::fs::write(path, original).unwrap();
    }
    let repaired = session.infer(&[1, 2, 3]).unwrap();
    assert_eq!(repaired.outcome.logits, healthy.outcome.logits);
    assert_eq!(repaired.outcome.timeline, healthy.outcome.timeline);
    assert_eq!(repaired.outcome.loaded_bytes, healthy.outcome.loaded_bytes);
}

#[test]
fn oversized_preload_request_is_rejected_not_truncated() {
    let (task, _, _) = setup();
    let store =
        ShardStore::create_temp(task.model(), &[Bitwidth::Full], &QuantConfig::default()).unwrap();
    let shard = (ShardId::new(0, 0), Bitwidth::Full);
    let blob = sti_storage::ShardSource::load(&store, ShardKey::new(shard.0, shard.1)).unwrap();
    let err = PreloadBuffer::fill(blob.byte_size() as u64 - 1, &[shard], &store).unwrap_err();
    assert!(matches!(err, PipelineError::PreloadOverflow { .. }));
}

#[test]
fn scheduler_shutdown_mid_burst_halts_the_event_loop_cleanly() {
    use sti_storage::{IoChannel, IoScheduler, LayerRequest};

    let (task, _, _) = setup();
    let store = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    // Event-host mode: the loop is the only dispatcher.
    let flash = FlashModel::new(1_000_000, SimTime::from_ms(1));
    let (cache, topology) = (Arc::new(ShardCache::new(0)), DeviceTopology::single());
    let sched = IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, topology);
    let channel = sched.channel_striped_at(SimTime::ZERO, 0);

    struct Ctx {
        sched: Option<IoScheduler>,
        channel: IoChannel,
        shutdown_error: Option<StorageError>,
        log: Vec<(ComponentId, SimTime)>,
    }
    fn request(layer: u16) -> LayerRequest {
        LayerRequest { layer, items: vec![(0, Bitwidth::B2)] }
    }

    /// Drives one request through at 1 µs, then returns mid-burst at 3 µs
    /// to find the scheduler shut down under it.
    struct Worker;
    impl Component<Ctx> for Worker {
        fn id(&self) -> ComponentId {
            0
        }
        fn next_tick(&self) -> Option<SimTime> {
            Some(SimTime::from_us(1))
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx>) -> Option<SimTime> {
            sys.ctx.log.push((0, now));
            if let Some(sched) = sys.ctx.sched.as_ref() {
                sys.ctx.channel.request(request(0)).unwrap();
                assert_eq!(sched.drive_queued(), 1, "the loop dispatches its own burst");
                sys.ctx.channel.recv().unwrap();
                Some(SimTime::from_us(3))
            } else {
                // The saboteur shut the scheduler down between ticks: the
                // abandoned queued request surfaces the typed error —
                // never a hang — and the component stops the loop.
                sys.ctx.shutdown_error = sys.ctx.channel.recv().err();
                sys.halt();
                None
            }
        }
    }

    /// Queues a second burst at 2 µs, then shuts the scheduler down.
    struct Saboteur;
    impl Component<Ctx> for Saboteur {
        fn id(&self) -> ComponentId {
            1
        }
        fn next_tick(&self) -> Option<SimTime> {
            Some(SimTime::from_us(2))
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx>) -> Option<SimTime> {
            sys.ctx.log.push((1, now));
            sys.ctx.channel.request(request(1)).unwrap();
            drop(sys.ctx.sched.take().expect("first shutdown"));
            None
        }
    }

    /// Scheduled after the halt; must never tick.
    struct Lagger;
    impl Component<Ctx> for Lagger {
        fn id(&self) -> ComponentId {
            2
        }
        fn next_tick(&self) -> Option<SimTime> {
            Some(SimTime::from_us(10))
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx>) -> Option<SimTime> {
            sys.ctx.log.push((2, now));
            None
        }
    }

    let mut engine: Engine<Ctx> = Engine::new();
    engine.register(Box::new(Worker));
    engine.register(Box::new(Saboteur));
    engine.register(Box::new(Lagger));
    let mut ctx = Ctx { sched: Some(sched), channel, shutdown_error: None, log: Vec::new() };
    let report = engine.run(&mut ctx);
    assert!(report.halted, "the worker stopped the loop on the shutdown error");
    assert_eq!(report.end, SimTime::from_us(3));
    assert_eq!(
        ctx.log,
        vec![(0, SimTime::from_us(1)), (1, SimTime::from_us(2)), (0, SimTime::from_us(3))],
        "no component ticks after the halt"
    );
    assert!(
        matches!(ctx.shutdown_error, Some(StorageError::SchedulerShutdown)),
        "unexpected error: {:?}",
        ctx.shutdown_error
    );
}

#[test]
fn engine_survives_budget_shrink_to_zero() {
    let (task, hw, importance) = setup();
    let store = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let mut engine = StiEngine::builder(task.model().clone(), store, hw, importance)
        .target(SimTime::from_ms(400))
        .preload_budget(16 << 10)
        .widths(&[2, 4])
        .build()
        .unwrap();
    assert!(engine.preload_used() > 0);
    engine.set_preload_budget(0).unwrap();
    assert_eq!(engine.preload_used(), 0);
    // Cold-start inference still works.
    let inf = engine.infer(&[9, 1]).unwrap();
    assert!(inf.class < 2);
}

/// What a blob holds, copied out so a later comparison cannot alias it.
fn contents(blob: &QuantizedBlob) -> (Vec<u8>, Vec<u32>, Vec<(u32, u32)>) {
    (
        blob.packed().to_vec(),
        blob.centroids().iter().map(|c| c.to_bits()).collect(),
        blob.outliers().iter().map(|&(at, v)| (at, v.to_bits())).collect(),
    )
}

/// A store whose keys a test re-points: [`plant`](Self::plant) makes a key
/// name another blob, [`withdraw`](Self::withdraw) makes it missing. Its
/// records are untouched, so a blob already handed out is what it was.
struct Planted {
    store: ShardStore,
    planted: Mutex<HashMap<ShardKey, Option<QuantizedBlob>>>,
}

impl Planted {
    fn over(model: &Model) -> Arc<Self> {
        let store = ShardStore::create_temp(model, &Bitwidth::ALL, &QuantConfig::default());
        Arc::new(Self { store: store.unwrap(), planted: Mutex::default() })
    }

    fn plant(&self, key: ShardKey, blob: QuantizedBlob) {
        self.planted.lock().unwrap().insert(key, Some(blob));
    }

    /// Makes `key` missing, and returns the blob it named.
    fn withdraw(&self, key: ShardKey) -> Option<QuantizedBlob> {
        let named = self.load(key).ok();
        self.planted.lock().unwrap().insert(key, None);
        named
    }
}

impl ShardSource for Planted {
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
        match self.planted.lock().unwrap().get(&key) {
            Some(Some(blob)) => Ok(blob.clone()),
            Some(None) => Err(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() }),
            None => self.store.load(key),
        }
    }

    fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
        match self.planted.lock().unwrap().get(&key) {
            Some(Some(blob)) => Ok(blob.byte_size() as u64),
            Some(None) => Err(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() }),
            None => self.store.size_bytes(key),
        }
    }
}

/// Payloads are shared between the store, the shard cache and every preload
/// buffer, so re-pointing a key at another blob, or withdrawing it, must
/// only ever swap which blob a key names: a blob a server already cached or
/// preloaded keeps its bytes, and the server keeps serving from them.
#[test]
fn replacing_or_removing_a_stored_shard_leaves_handed_out_blobs_untouched() {
    let (task, hw, importance) = setup();
    let store = Planted::over(task.model());
    let server = StiServer::new(
        task.model().clone(),
        store.clone(),
        hw,
        importance,
        &ServeConfig {
            target: SimTime::from_ms(400),
            preload_bytes: 16 << 10,
            widths: Some(vec![2, 4]),
            ..ServeConfig::default()
        },
    );
    let session = server.session().unwrap();
    assert!(session.preload_used() > 0, "the session preloaded shards");
    let before = session.infer(&[3, 1, 4]).unwrap();
    assert!(server.shard_cache_resident_bytes().0 > 0, "and the engagement warmed the cache");

    // Every shard version the plan touches, as the store handed it out,
    // preloaded ones first.
    let plan = session.plan();
    let preloaded = plan.preload.iter().map(|&(id, bw)| ShardKey::new(id, bw));
    let streamed = plan.layers.iter().flat_map(|pl| {
        pl.items().map(|(slice, bw)| ShardKey::new(ShardId::new(pl.layer, slice), bw))
    });
    let mut planned: Vec<ShardKey> = preloaded.collect();
    let preloaded = planned.len();
    planned.extend(streamed.filter(|key| !plan.preload.contains(&(key.id, key.bitwidth))));
    assert!(preloaded >= 2 && planned.len() > preloaded, "both kinds of holder are exercised");
    let handed_out: Vec<QuantizedBlob> = planned.iter().map(|&k| store.load(k).unwrap()).collect();
    let snapshot: Vec<_> = handed_out.iter().map(contents).collect();

    // Replace every other key with other weights and remove the rest.
    let imposter = QuantizedBlob::quantize(
        &vec![0.125f32; handed_out[0].len()],
        Bitwidth::B2,
        &QuantConfig::default(),
    );
    let sabotage = |range: std::ops::Range<usize>| {
        for i in range {
            if i % 2 == 0 {
                store.plant(planned[i], imposter.clone());
                assert_eq!(store.load(planned[i]).unwrap(), imposter);
            } else {
                assert_eq!(store.withdraw(planned[i]).as_ref(), Some(&handed_out[i]));
                assert!(matches!(store.load(planned[i]), Err(StorageError::MissingShard { .. })));
            }
        }
    };
    // Preloaded shards never go back to the store: the session reads its
    // own handles, so it answers from the same bytes.
    sabotage(0..preloaded);
    let after = session.infer(&[3, 1, 4]).unwrap();
    assert_eq!(after.outcome.logits, before.outcome.logits);
    assert_eq!(after.outcome.loaded_bytes, before.outcome.loaded_bytes);
    // Streamed shards are sized from the store on every request, so the
    // server would now see the new versions; the old ones, still held by the
    // shard cache and by this test, are what they were.
    sabotage(preloaded..planned.len());
    for (blob, old) in handed_out.iter().zip(&snapshot) {
        assert_eq!(&contents(blob), old, "a handed-out blob changed under its holder");
    }
}

/// Sharing the payload changes nothing about how a bad blob fails: parts
/// that disagree are refused with the same typed errors, and a well-formed
/// blob of the wrong shape planted in the store is a plan mismatch at
/// assembly, not a panic.
#[test]
fn corrupt_blobs_built_from_parts_still_fail_typed() {
    use sti_quant::QuantError;
    let weights: Vec<f32> = (0..64).map(|i| (i as f32 / 5.0).cos()).collect();
    let good = QuantizedBlob::quantize(&weights, Bitwidth::B4, &QuantConfig::default());
    let parts = |packed: Vec<u8>, centroids: Vec<f32>, outliers: Vec<(u32, f32)>| {
        QuantizedBlob::from_parts(Bitwidth::B4, 64, packed, centroids, outliers)
    };
    let (packed, centroids) = (good.packed().to_vec(), good.centroids().to_vec());
    assert_eq!(
        QuantizedBlob::from_parts(Bitwidth::B4, 0, vec![], vec![], vec![]).unwrap_err(),
        QuantError::EmptyInput
    );
    assert_eq!(
        parts(packed[..31].to_vec(), centroids.clone(), vec![]).unwrap_err(),
        QuantError::IndexOutOfRange { index: 31, dictionary: 32 }
    );
    assert_eq!(
        parts(packed.clone(), centroids[..15].to_vec(), vec![]).unwrap_err(),
        QuantError::IndexOutOfRange { index: 15, dictionary: 16 }
    );
    assert_eq!(
        parts(packed.clone(), centroids.clone(), vec![(64, 1.0)]).unwrap_err(),
        QuantError::OutlierOffsetOutOfRange { offset: 64, len: 64 }
    );
    assert_eq!(
        QuantizedBlob::from_parts(Bitwidth::Full, 64, vec![0; 255], vec![], vec![]).unwrap_err(),
        QuantError::IndexOutOfRange { index: 255, dictionary: 256 }
    );
    assert_eq!(parts(packed, centroids, good.outliers().to_vec()).unwrap(), good);

    let (task, hw, importance) = setup();
    let store = Planted::over(task.model());
    let plan = plan_for(&hw, &importance);
    let pl = &plan.layers[0];
    store.plant(ShardKey::new(ShardId::new(pl.layer, pl.slices[0]), pl.bitwidths[0]), good);
    let exec = PipelineExecutor::new(task.model(), store, &hw);
    let err = exec.execute(&plan, &PreloadBuffer::default(), &[1, 2]).unwrap_err();
    assert!(matches!(err, PipelineError::PlanMismatch(_)), "unexpected error: {err}");
}

/// `==` on blobs compares what they hold, never which allocation holds it.
#[test]
fn blob_equality_is_by_content_not_by_pointer() {
    let weights: Vec<f32> = (0..300).map(|i| (i as f32 / 11.0).sin()).collect();
    let quant = QuantConfig::default();
    for bw in Bitwidth::ALL {
        let a = QuantizedBlob::quantize(&weights, bw, &quant);
        let b = QuantizedBlob::quantize(&weights, bw, &quant);
        assert_ne!(a.packed().as_ptr(), b.packed().as_ptr(), "two quantisations, two payloads");
        assert_eq!(a, b, "{bw}");
        assert_eq!(a.clone().packed().as_ptr(), a.packed().as_ptr(), "a clone is a handle");

        let mut nudged = weights.clone();
        nudged[7] += 0.5;
        assert_ne!(QuantizedBlob::quantize(&nudged, bw, &quant), a, "{bw}");
    }
    let (b2, b3) = (Bitwidth::B2, Bitwidth::B3);
    assert_ne!(
        QuantizedBlob::quantize(&weights, b2, &quant),
        QuantizedBlob::quantize(&weights, b3, &quant)
    );
}
