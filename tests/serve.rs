//! Integration: the serve protocol's determinism contract.
//!
//! * **Replay identity** — one request log, one response log: byte-
//!   identical across repeated runs and across worker-thread counts
//!   (the E20 thread ladder).
//! * **Serve ≡ direct** — driving a single instance through the wire
//!   protocol produces exactly the state an in-process
//!   [`IncrementalDetector`] driver computes, event by event.
//! * **Checkpoint/restore through the wire** — checkpointing at event
//!   `k`, reviving on a *fresh* service, and replaying the tail matches
//!   the uninterrupted run byte-for-byte, inject epochs included.
//! * **Typed failure** — malformed lines and bad targets get typed
//!   error responses in place; nothing panics, and later requests on
//!   the same transcript are unaffected.

use ballfit::incremental::IncrementalDetector;
use ballfit_netgen::builder::NetworkBuilder;
use ballfit_netgen::churn::ChurnDriver;
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_par::Parallelism;
use ballfit_serve::{
    encode_request, encode_response, CreateSource, FaultKnobs, QueryKind, ServeRequest,
    ServeResponse, Service, WireConfig, WireEvent,
};
use ballfit_wsn::churn::{ChurnPlan, DynamicTopology};

/// The E20 thread ladder.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn model(scenario: Scenario, seed: u64) -> NetworkModel {
    NetworkBuilder::new(scenario)
        .surface_nodes(120)
        .interior_nodes(180)
        .target_degree(13.0)
        .require_connected(false)
        .seed(seed)
        .build()
        .unwrap()
}

fn wire_positions(model: &NetworkModel) -> Vec<[f64; 3]> {
    model.positions().iter().map(|p| [p.x, p.y, p.z]).collect()
}

/// A canned multi-tenant request log: three instances (one scene-built,
/// two from explicit positions), interleaved events, queries, injects,
/// and a checkpoint, closed by a shutdown.
fn multi_tenant_log() -> Vec<ServeRequest> {
    let m1 = model(Scenario::SolidSphere, 11);
    let m2 = model(Scenario::SolidBox, 12);
    let mut log = vec![
        ServeRequest::Create {
            id: "sphere".to_string(),
            source: CreateSource::Scene(ballfit_serve::WireScene {
                scenario: "sphere".to_string(),
                surface: 80,
                interior: 120,
                degree: 13.0,
                seed: 7,
            }),
            config: WireConfig { error: Some(0), ..WireConfig::default() },
        },
        ServeRequest::Create {
            id: "b1".to_string(),
            source: CreateSource::Positions {
                positions: wire_positions(&m1),
                range: m1.radio_range(),
            },
            config: WireConfig::default(),
        },
        ServeRequest::Create {
            id: "b2".to_string(),
            source: CreateSource::Positions {
                positions: wire_positions(&m2),
                range: m2.radio_range(),
            },
            config: WireConfig::default(),
        },
    ];
    let plan = ChurnPlan::none()
        .with_seed(5)
        .with_epochs(3)
        .with_join_rate(0.02)
        .with_leave_rate(0.02)
        .with_move_rate(0.03)
        .with_max_drift(0.4);
    for (i, (id, m)) in [("b1", &m1), ("b2", &m2)].iter().enumerate() {
        let mut driver = ChurnDriver::new(m, plan.seed.wrapping_add(i as u64));
        for ev in plan.schedule(m.len()) {
            let (resolved, _) = driver.step(&ev).unwrap();
            log.push(ServeRequest::Events { id: id.to_string(), events: vec![resolved.into()] });
        }
        log.push(ServeRequest::Query { id: id.to_string(), what: QueryKind::Boundary });
        log.push(ServeRequest::Query { id: id.to_string(), what: QueryKind::Groups });
        log.push(ServeRequest::Query { id: id.to_string(), what: QueryKind::Stats });
    }
    log.push(ServeRequest::Inject {
        id: "sphere".to_string(),
        faults: FaultKnobs { loss: 0.1, crash_fraction: 0.05, seed: 3, ..FaultKnobs::default() },
    });
    log.push(ServeRequest::Checkpoint { id: "b1".to_string() });
    log.push(ServeRequest::Query { id: "sphere".to_string(), what: QueryKind::Fragments });
    log.push(ServeRequest::Shutdown);
    log.push(ServeRequest::Query { id: "b2".to_string(), what: QueryKind::Boundary });
    log
}

#[test]
fn response_log_is_byte_identical_across_runs_and_thread_counts() {
    let log = multi_tenant_log();
    let jsonl: String = log.iter().map(|r| encode_request(r) + "\n").collect();

    let reference = Service::sequential().serve_jsonl(&jsonl);
    let again = Service::sequential().serve_jsonl(&jsonl);
    assert_eq!(reference, again, "repeat run diverged");
    assert_eq!(reference.lines().count(), log.len(), "one response line per request line");

    for threads in THREAD_LADDER {
        let out = Service::new(Parallelism::threads(threads)).serve_jsonl(&jsonl);
        assert_eq!(out, reference, "thread count {threads} changed response bytes");
    }
}

#[test]
fn serve_equals_direct_incremental_driver() {
    let m = model(Scenario::SpaceOneHole, 23);
    let plan = ChurnPlan::none()
        .with_seed(9)
        .with_epochs(4)
        .with_join_rate(0.02)
        .with_leave_rate(0.03)
        .with_move_rate(0.03)
        .with_max_drift(0.5);

    // Direct side: DynamicTopology + sequential IncrementalDetector.
    let mut driver = ChurnDriver::new(&m, plan.seed ^ 0xBEEF);
    let schedule = plan.schedule(m.len());
    let mut direct_dyn = DynamicTopology::new(m.positions(), m.radio_range());
    let mut direct = IncrementalDetector::new_with_parallelism(
        WireConfig::default().to_detector(),
        &direct_dyn,
        Parallelism::sequential(),
    );

    // Serve side: same network via the wire, events replayed batch by batch.
    let mut svc = Service::sequential();
    let created = svc.handle(&ServeRequest::Create {
        id: "x".to_string(),
        source: CreateSource::Positions { positions: wire_positions(&m), range: m.radio_range() },
        config: WireConfig::default(),
    });
    match created {
        ServeResponse::Created { nodes, balls, .. } => {
            assert_eq!(nodes, m.len());
            assert_eq!(balls, direct.detection().balls_tested, "bootstrap ball tally diverged");
        }
        other => panic!("unexpected {other:?}"),
    }

    for ev in &schedule {
        let (resolved, _) = driver.step(ev).unwrap();

        let delta = direct_dyn.apply(&resolved);
        let diff = direct.apply(&direct_dyn, &delta);

        let resp = svc
            .handle(&ServeRequest::Events { id: "x".to_string(), events: vec![resolved.into()] });
        match resp {
            ServeResponse::Applied { promoted, demoted, regrouped, halo, balls, .. } => {
                assert_eq!(promoted, diff.promoted.len(), "promoted diverged at {resolved:?}");
                assert_eq!(demoted, diff.demoted.len(), "demoted diverged at {resolved:?}");
                assert_eq!(regrouped, diff.regrouped.len(), "regrouped diverged at {resolved:?}");
                assert_eq!(halo, diff.halo.len(), "halo diverged at {resolved:?}");
                assert_eq!(balls, diff.balls, "ball tally diverged at {resolved:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // Final state: the wire's boundary/groups are the direct detector's.
    let expected_boundary: Vec<usize> =
        (0..direct_dyn.len()).filter(|&i| direct.boundary()[i] && direct_dyn.is_live(i)).collect();
    match svc.handle(&ServeRequest::Query { id: "x".to_string(), what: QueryKind::Boundary }) {
        ServeResponse::BoundaryNodes { nodes, .. } => assert_eq!(nodes, expected_boundary),
        other => panic!("unexpected {other:?}"),
    }
    match svc.handle(&ServeRequest::Query { id: "x".to_string(), what: QueryKind::Groups }) {
        ServeResponse::GroupList { groups, .. } => {
            assert_eq!(groups.as_slice(), direct.groups(), "group lists diverged")
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn wire_checkpoint_restore_replay_matches_uninterrupted_run() {
    let m = model(Scenario::SolidSphere, 31);
    let plan = ChurnPlan::none()
        .with_seed(41)
        .with_epochs(6)
        .with_join_rate(0.02)
        .with_leave_rate(0.03)
        .with_move_rate(0.02)
        .with_max_drift(0.4);
    let mut driver = ChurnDriver::new(&m, 77);
    let mut batches: Vec<Vec<WireEvent>> = vec![Vec::new(); plan.epochs];
    for ev in plan.schedule(m.len()) {
        let (resolved, _) = driver.step(&ev).unwrap();
        batches[ev.epoch].push(resolved.into());
    }
    let create = ServeRequest::Create {
        id: "cp".to_string(),
        source: CreateSource::Positions { positions: wire_positions(&m), range: m.radio_range() },
        config: WireConfig { error: Some(0), ..WireConfig::default() },
    };
    let events_req =
        |b: &Vec<WireEvent>| ServeRequest::Events { id: "cp".to_string(), events: b.clone() };
    let inject_req = ServeRequest::Inject {
        id: "cp".to_string(),
        faults: FaultKnobs { loss: 0.08, crash_fraction: 0.04, seed: 13, ..FaultKnobs::default() },
    };
    let finals = [
        ServeRequest::Query { id: "cp".to_string(), what: QueryKind::Boundary },
        ServeRequest::Query { id: "cp".to_string(), what: QueryKind::Groups },
        ServeRequest::Query { id: "cp".to_string(), what: QueryKind::Fragments },
    ];

    // Uninterrupted reference: create, all 6 batches with an inject in
    // the middle, then the final queries.
    let mut uninterrupted = Service::sequential();
    uninterrupted.handle(&create);
    let mut reference_tail: Vec<String> = Vec::new();
    for (k, b) in batches.iter().enumerate() {
        let resp = uninterrupted.handle(&events_req(b));
        if k >= 3 {
            reference_tail.push(encode_response(&resp));
        }
        if k == 4 {
            reference_tail.push(encode_response(&uninterrupted.handle(&inject_req)));
        }
    }
    for q in &finals {
        reference_tail.push(encode_response(&uninterrupted.handle(q)));
    }

    // Interrupted: first 3 batches, wire checkpoint, fresh service,
    // wire restore, replay the tail.
    let mut first = Service::sequential();
    first.handle(&create);
    for b in &batches[..3] {
        first.handle(&events_req(b));
    }
    let checkpoint = match first.handle(&ServeRequest::Checkpoint { id: "cp".to_string() }) {
        ServeResponse::CheckpointTaken { checkpoint, .. } => checkpoint,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(checkpoint.epoch, 3, "three events epochs before the checkpoint");

    // Round-trip the checkpoint through its wire encoding: the revived
    // service must work from parsed bytes, not shared memory.
    let restore_line = encode_request(&ServeRequest::Restore { id: "cp".to_string(), checkpoint });
    let restore = ballfit_serve::parse_request(&restore_line).unwrap();

    let mut second = Service::sequential();
    match second.handle(&restore) {
        ServeResponse::Restored { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let mut replay_tail: Vec<String> = Vec::new();
    for (k, b) in batches.iter().enumerate().skip(3) {
        replay_tail.push(encode_response(&second.handle(&events_req(b))));
        if k == 4 {
            replay_tail.push(encode_response(&second.handle(&inject_req)));
        }
    }
    for q in &finals {
        replay_tail.push(encode_response(&second.handle(q)));
    }
    assert_eq!(replay_tail, reference_tail, "restored replay diverged from uninterrupted run");
}

#[test]
fn malformed_lines_and_bad_targets_get_typed_errors_in_place() {
    let input = concat!(
        "{\"op\":\"events\",\"id\":\"nope\",\"events\":[]}\n",
        "{]\n",
        "{\"op\":\"create\",\"id\":\"a\",\"positions\":[[0,0,0],[0.9,0,0]],\"range\":1.0}\n",
        "{\"op\":\"create\",\"id\":\"a\",\"positions\":[[0,0,0]],\"range\":1.0}\n",
        "{\"op\":\"events\",\"id\":\"a\",\"events\":[{\"kind\":\"leave\",\"node\":0},{\"kind\":\"move\",\"node\":0,\"to\":[1,1,1]}]}\n",
        "{\"op\":\"create\",\"id\":\"s\",\"scene\":{\"scenario\":\"klein_bottle\"}}\n",
        "{\"op\":\"query\",\"id\":\"a\",\"what\":\"boundary\"}\n",
        "{\"op\":\"shutdown\"}\n",
        "{\"op\":\"query\",\"id\":\"a\",\"what\":\"boundary\"}\n",
    );
    let out = Service::sequential().serve_jsonl(input);
    let codes: Vec<&str> = out
        .lines()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("{\"err\":\"") {
                rest.split('"').next().unwrap()
            } else {
                "ok"
            }
        })
        .collect();
    assert_eq!(
        codes,
        vec![
            "unknown-instance",
            "bad-json",
            "ok",
            "duplicate-instance",
            "dead-node",
            "bad-scene",
            "ok",
            "ok",
            "after-shutdown",
        ],
        "full transcript:\n{out}"
    );
}

#[test]
fn request_corpus_round_trips_through_the_canonical_codec() {
    use ballfit::incremental::DetectorCheckpoint;
    use ballfit_geom::Vec3;
    use ballfit_serve::{WireBackend, WireCheckpoint, WireScene};
    use ballfit_wsn::churn::TopologySnapshot;
    let requests = vec![
        ServeRequest::Create {
            id: "a".to_string(),
            source: CreateSource::Scene(WireScene {
                scenario: "two_holes".to_string(),
                surface: 90,
                interior: 140,
                degree: 12.5,
                seed: 3,
            }),
            config: WireConfig {
                error: Some(20),
                noise_seed: 5,
                theta: Some(16),
                ttl: Some(4),
                witness_hops: Some(2),
                backend: WireBackend::Stat,
            },
        },
        ServeRequest::Create {
            id: "b".to_string(),
            source: CreateSource::Positions {
                positions: vec![[0.0, 0.0, 0.0], [0.25, -0.5, 0.75]],
                range: 1.0,
            },
            config: WireConfig::default(),
        },
        ServeRequest::Events {
            id: "a".to_string(),
            events: vec![
                WireEvent::Join { position: [1.0, 2.0, 3.0] },
                WireEvent::Leave { node: 4 },
                WireEvent::Move { node: 2, to: [0.5, 0.5, 0.5] },
            ],
        },
        ServeRequest::Query { id: "a".to_string(), what: QueryKind::Mesh },
        ServeRequest::Checkpoint { id: "a".to_string() },
        ServeRequest::Restore {
            id: "c".to_string(),
            checkpoint: WireCheckpoint {
                epoch: 4,
                injects: 2,
                config: WireConfig::default(),
                snapshot: TopologySnapshot {
                    positions: vec![Vec3::ZERO, Vec3::X],
                    alive: vec![true, false],
                    range: 1.25,
                },
                detector: Box::new(DetectorCheckpoint {
                    config: WireConfig::default().to_detector(),
                    candidates: vec![true, false],
                    degenerate: vec![false, true],
                    balls: vec![12, 0],
                    fragments: vec![1, 0],
                    boundary: vec![true, false],
                    groups: vec![vec![0]],
                }),
            },
        },
        ServeRequest::Inject {
            id: "a".to_string(),
            faults: FaultKnobs {
                loss: 0.2,
                duplication: 0.01,
                max_delay: 2,
                crash_fraction: 0.1,
                crash_down: 2,
                crash_up: None,
                seed: 77,
            },
        },
        ServeRequest::Shutdown,
    ];
    for req in requests {
        let line = encode_request(&req);
        assert_eq!(ballfit_serve::parse_request(&line).unwrap(), req, "{line}");
    }
    // Backend names invert through their wire spelling, and a config that
    // never mentions a backend keeps the reference detector.
    for backend in WireBackend::ALL {
        assert_eq!(WireBackend::by_name(backend.as_str()), Some(backend));
    }
    assert_eq!(WireConfig::default().backend, WireBackend::Ubf);
}

#[test]
fn serve_malformed_inputs_yield_typed_errors_not_panics() {
    // Parser layer: every malformed line maps to a typed code.
    for (line, code) in [
        ("", "bad-json"),
        ("{\"op\":", "bad-json"),
        ("42", "bad-request"),
        ("{\"op\":\"warp\"}", "unknown-op"),
        ("{\"op\":\"create\",\"id\":\"x\",\"positions\":[[0,0,0]],\"range\":0}", "bad-request"),
        ("{\"op\":\"inject\",\"id\":\"x\",\"faults\":{\"crash_fraction\":2}}", "bad-request"),
        // 2³² + 1 rounds: refused, not truncated to a delay of 1.
        ("{\"op\":\"inject\",\"id\":\"x\",\"faults\":{\"max_delay\":4294967297}}", "bad-request"),
        // Past 64 rounds an inject would hold its worker for time linear
        // in the delay: refused, up to and including 2³² − 1.
        ("{\"op\":\"inject\",\"id\":\"x\",\"faults\":{\"max_delay\":65}}", "bad-request"),
        ("{\"op\":\"inject\",\"id\":\"x\",\"faults\":{\"max_delay\":4294967295}}", "bad-request"),
    ] {
        let err = ballfit_serve::parse_request(line).expect_err(line);
        assert_eq!(err.code(), code, "{line}");
    }
    // The largest accepted delay parses unchanged.
    let line = "{\"op\":\"inject\",\"id\":\"x\",\"faults\":{\"max_delay\":64}}";
    match ballfit_serve::parse_request(line) {
        Ok(ServeRequest::Inject { faults, .. }) => assert_eq!(faults.max_delay, 64),
        other => panic!("{line}: {other:?}"),
    }
    // The 32-bit config fields of a create and of a restore's checkpoint:
    // 2³² is refused, not truncated to 0, and 2³² − 1 parses unchanged.
    let create = |config: &str| {
        format!(
            "{{\"op\":\"create\",\"id\":\"x\",\
             \"scene\":{{\"scenario\":\"sphere\"}},\"config\":{config}}}"
        )
    };
    let restore = |config: &str| {
        format!(
            "{{\"op\":\"restore\",\"id\":\"x\",\"config\":{config},\
             \"snapshot\":{{\"range\":1,\"positions\":[[0,0,0]],\"alive\":[true]}},\
             \"detector\":{{\"candidates\":[true],\"degenerate\":[false],\"balls\":[0],\
             \"fragments\":[1],\"boundary\":[true],\"groups\":[[0]]}}}}"
        )
    };
    for key in ["error", "ttl", "witness_hops"] {
        for line in [create, restore].map(|request| request(&format!("{{\"{key}\":4294967296}}"))) {
            let err = ballfit_serve::parse_request(&line).expect_err(&line);
            assert_eq!(err.code(), "bad-request", "{line}");
        }
    }
    let widest = "{\"error\":4294967295,\"ttl\":4294967295,\"witness_hops\":4294967295}";
    let expect_widest = |config: &WireConfig| {
        assert_eq!(config.error, Some(u32::MAX));
        assert_eq!(config.ttl, Some(u32::MAX));
        assert_eq!(config.witness_hops, Some(u32::MAX));
    };
    match ballfit_serve::parse_request(&create(widest)) {
        Ok(ServeRequest::Create { config, .. }) => expect_widest(&config),
        other => panic!("create: {other:?}"),
    }
    match ballfit_serve::parse_request(&restore(widest)) {
        Ok(ServeRequest::Restore { checkpoint, .. }) => expect_widest(&checkpoint.config),
        other => panic!("restore: {other:?}"),
    }
    // Service layer: unknown instance ids and events for crashed nodes
    // answer with typed errors and leave the service serving.
    let mut svc = Service::sequential();
    let transcript = concat!(
        "{\"op\":\"query\",\"id\":\"ghost\",\"what\":\"stats\"}\n",
        "{\"op\":\"create\",\"id\":\"n\",\"positions\":[[0,0,0],[0.5,0,0],[1,0,0]],\"range\":0.8}\n",
        "{\"op\":\"events\",\"id\":\"n\",\"events\":[{\"kind\":\"leave\",\"node\":1}]}\n",
        "{\"op\":\"events\",\"id\":\"n\",\"events\":[{\"kind\":\"move\",\"node\":1,\"to\":[0,1,0]}]}\n",
        "{\"op\":\"query\",\"id\":\"n\",\"what\":\"fragments\"}\n",
    );
    let out = svc.serve_jsonl(transcript);
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].starts_with("{\"err\":\"unknown-instance\""), "{out}");
    assert!(lines[1].starts_with("{\"ok\":\"create\""), "{out}");
    assert!(lines[2].starts_with("{\"ok\":\"events\""), "{out}");
    assert!(lines[3].starts_with("{\"err\":\"dead-node\""), "{out}");
    assert!(lines[4].starts_with("{\"ok\":\"query\""), "{out}");
    // The instance still answers typed queries after the rejected batch.
    assert!(matches!(
        svc.handle(&ServeRequest::Query { id: "n".to_string(), what: QueryKind::Boundary }),
        ballfit_serve::ServeResponse::BoundaryNodes { .. }
    ));
}
