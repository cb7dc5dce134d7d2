//! Overload end-to-end: drive the reactor TCP front end past capacity
//! and verify the admission contract — every request is *answered*
//! (shed ones with a well-formed `overloaded` error, never a dropped
//! connection or a malformed line), accepted synthesis responses stay
//! byte-identical to direct `Session` output, warm requests keep
//! flowing on the hit lane, and the loop still shuts down cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use pchls_core::{
    Engine, SynthesisConstraints, SynthesisOptions, SynthesisRequest, SynthesisResult,
};
use pchls_fulib::paper_library;
use pchls_serve::{
    serve_tcp_with, Service, ServiceConfig, ShutdownHandle, SubmitRequest, SubmitResponse,
};

/// A synthesis-heavy graph (hundreds of iterations per run), so jobs
/// reliably outlive the submission burst.
fn heavy_graph_text(seed: u64) -> String {
    let g = pchls_cdfg::random_dag(&pchls_cdfg::RandomDagConfig {
        ops: 150,
        inputs: 6,
        outputs: 3,
        mul_permille: 300,
        depth_bias: 2,
        seed,
    });
    pchls_cdfg::write_cdfg(&g)
}

/// Direct-engine reference line for an inline-text request.
fn direct_line(engine: &Engine, text: &str, latency: u32, power: f64) -> String {
    let g = pchls_cdfg::parse_cdfg(text).unwrap();
    let compiled = engine.compile(&g);
    let constraints = SynthesisConstraints::new(latency, power);
    let point = SynthesisResult {
        request: SynthesisRequest::new(constraints.clone()),
        outcome: engine
            .session(&compiled)
            .synthesize(constraints, &SynthesisOptions::default()),
    }
    .to_point(compiled.name());
    serde_json::to_string(&point).unwrap()
}

#[test]
fn overloaded_shard_sheds_answers_everything_and_shuts_down_cleanly() {
    // One shard, one synth worker, a two-deep lane: a burst of heavy
    // jobs must overflow admission.
    let service = Arc::new(Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            workers: 1,
            shards: 1,
            queue_cap: 2,
            ..ServiceConfig::default()
        },
    ));
    // Pre-warm one named point so the hit lane has something to serve
    // while the synth lane drowns.
    assert!(service.call(SubmitRequest::synth(0, "hal", 17, 25.0)).ok);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = ShutdownHandle::new();
    let text = heavy_graph_text(7);
    let g = pchls_cdfg::parse_cdfg(&text).unwrap();
    let latency = service.engine().compile(&g).min_latency() * 2;

    std::thread::scope(|scope| {
        let loop_thread = scope.spawn(|| serve_tcp_with(&service, &listener, &shutdown));

        // The flood: one pipelined burst of distinct heavy constraint
        // points, fired without reading a single reply.
        const BURST: usize = 12;
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for i in 0..BURST {
            let req = SubmitRequest::synth_text(i as u64 + 1, &text, latency, 60.0 + i as f64);
            writeln!(writer, "{}", serde_json::to_string(&req).unwrap()).unwrap();
        }
        writer.flush().unwrap();

        // Meanwhile the warm point answers on a second connection, on
        // the hit lane, byte-identical to a direct run.
        let warm_stream = TcpStream::connect(addr).unwrap();
        let mut warm_reader = BufReader::new(warm_stream.try_clone().unwrap());
        let mut warm_writer = warm_stream;
        let warm_req = SubmitRequest::synth(500, "hal", 17, 25.0);
        writeln!(warm_writer, "{}", serde_json::to_string(&warm_req).unwrap()).unwrap();
        let mut warm_line = String::new();
        warm_reader.read_line(&mut warm_line).unwrap();
        let warm: SubmitResponse = serde_json::from_str(&warm_line).expect("well-formed");
        assert!(warm.ok, "warm lane starved: {:?}", warm.error);

        // Every burst request gets exactly one well-formed response.
        let mut responses: Vec<SubmitResponse> = Vec::new();
        while responses.len() < BURST {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            responses.push(serde_json::from_str(&line).expect("malformed response line"));
        }
        let shed: Vec<&SubmitResponse> = responses
            .iter()
            .filter(|r| r.error.as_deref() == Some("overloaded"))
            .collect();
        let served: Vec<&SubmitResponse> = responses.iter().filter(|r| r.ok).collect();
        assert!(
            !shed.is_empty(),
            "a 12-burst into a 2-deep lane must shed something"
        );
        assert!(!served.is_empty(), "the worker must serve something");
        assert_eq!(shed.len() + served.len(), BURST, "no third kind of outcome");
        // Accepted responses are byte-identical to direct synthesis.
        for resp in &served {
            let power = 60.0 + (resp.id - 1) as f64;
            let served_json = serde_json::to_string(resp.point.as_ref().unwrap()).unwrap();
            assert_eq!(
                served_json,
                direct_line(service.engine(), &text, latency, power),
                "id {}",
                resp.id
            );
        }

        // The stats line agrees with what the wire saw.
        writeln!(
            writer,
            "{}",
            serde_json::to_string(&SubmitRequest::stats(900)).unwrap()
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let stats_resp: SubmitResponse = serde_json::from_str(&line).unwrap();
        let stats = stats_resp.stats.expect("stats payload");
        assert_eq!(stats.shed, shed.len() as u64);
        assert!(stats.hit_lane.count >= 1, "warm request rode the hit lane");

        shutdown.request_stop();
        loop_thread.join().unwrap().unwrap();
    });
}

#[test]
fn deadline_on_a_queued_job_still_trips() {
    // One worker grinding a heavy job; a second heavy job with a 1ms
    // deadline sits queued past its deadline — the worker's first
    // progress check must answer it `deadline exceeded`, exactly as the
    // in-process and stdio paths do.
    let service = Arc::new(Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            workers: 1,
            shards: 1,
            ..ServiceConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = ShutdownHandle::new();
    let text = heavy_graph_text(9);
    let g = pchls_cdfg::parse_cdfg(&text).unwrap();
    let latency = service.engine().compile(&g).min_latency() * 2;

    // The loop is stopped before anything is asserted, so a wrong reply
    // fails the test instead of leaving the serve thread running.
    let responses = std::thread::scope(|scope| {
        let loop_thread = scope.spawn(|| serve_tcp_with(&service, &listener, &shutdown));
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let blocker = SubmitRequest::synth_text(1, &text, latency, 60.0);
        let doomed = SubmitRequest::synth_text(2, &text, latency, 61.0).with_deadline_ms(1);
        writeln!(writer, "{}", serde_json::to_string(&blocker).unwrap()).unwrap();
        writeln!(writer, "{}", serde_json::to_string(&doomed).unwrap()).unwrap();
        let mut responses: Vec<SubmitResponse> = Vec::new();
        while responses.len() < 2 {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break; // server hung up: asserted below
            }
            responses.push(serde_json::from_str(&line).expect("well-formed"));
        }
        shutdown.request_stop();
        loop_thread.join().unwrap().unwrap();
        responses
    });
    assert_eq!(responses.len(), 2, "server hung up");
    let doomed_resp = responses.iter().find(|r| r.id == 2).unwrap();
    assert!(!doomed_resp.ok, "a 1ms deadline on a queued job must trip");
    assert_eq!(doomed_resp.error.as_deref(), Some("deadline exceeded"));
    assert!(responses.iter().find(|r| r.id == 1).unwrap().ok);
    assert_eq!(service.stats().cancelled, 1);
}
