//! The wire layer under hostile or endless traffic: a request line
//! nested far past any real request gets `ERR`, not a stack overflow,
//! one longer than the line cap gets `ERR` without being buffered and
//! the daemon keeps serving, a request's name reaches `SERVICE_JSON`
//! escaped, a crossover request outside the analytic model's domain is
//! simulated instead of panicking the prefilter, and a daemon serving
//! connection after connection does not keep the finished connection
//! threads' stacks mapped.

use std::path::Path;
use std::sync::Arc;

use pckpt_core::run_grid_filtered;
use pckpt_failure::LeadTimeModel;
use pckpt_service::{
    grid_digest, parse_request, respond, serve_unix, submit_unix, Service, ServiceConfig,
    MAX_REQUEST_LINE_BYTES,
};

fn memory_only_service() -> Service {
    Service::open(ServiceConfig::in_dirs(None, None)).expect("open service")
}

#[test]
fn deeply_nested_request_line_gets_err() {
    let service = memory_only_service();
    let body = respond(&"[".repeat(100_000), &service);
    assert!(body.starts_with("ERR "), "{body}");
    assert!(body.contains("nesting deeper than 64"), "{body}");
}

/// Waits (bounded) for a daemon's socket to appear.
fn wait_for_socket(socket: &Path) {
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn oversize_request_line_gets_err_and_daemon_keeps_serving() {
    const REQ: &str = r#"{"name":"cap","app":"POP","models":["B","P2"],"runs":2,"threads":1}"#;
    let dir = std::env::temp_dir().join(format!("pckpt-service-linecap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("pckptd.sock");
    let server = {
        let socket = socket.clone();
        let service = Arc::new(memory_only_service());
        std::thread::spawn(move || serve_unix(&socket, service, Some(3)))
    };
    wait_for_socket(&socket);
    // A valid request behind leading blanks: only its length can fail it.
    let padded = |len: usize| format!("{}{REQ}", " ".repeat(len - REQ.len()));
    assert_eq!(
        submit_unix(&socket, &padded(MAX_REQUEST_LINE_BYTES + 1)).expect("oversize request"),
        format!("ERR request line longer than {MAX_REQUEST_LINE_BYTES} bytes\n")
    );
    let req = parse_request(REQ).expect("request parses");
    let leads = LeadTimeModel::desh_default();
    let direct = run_grid_filtered(&req.cells, &leads, &req.config, req.prefilter.as_ref());
    let want = format!("DIGEST {}", grid_digest(&direct).hex());
    for line in [padded(MAX_REQUEST_LINE_BYTES), REQ.to_string()] {
        let body = submit_unix(&socket, &line).expect("valid request");
        assert!(body.ends_with("OK\n"), "{body}");
        assert!(body.lines().any(|l| l == want), "{body}");
    }
    server.join().expect("server thread").expect("serve_unix");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_name_is_escaped_in_service_json() {
    // The name `a"b`, a newline, `c`: raw, the quote would end the JSON
    // string and the newline would split the line protocol.
    let service = memory_only_service();
    let body = respond(
        r#"{"name":"a\"b\nc","app":"POP","models":["B"],"runs":2,"threads":1}"#,
        &service,
    );
    assert!(body.ends_with("OK\n"), "{body}");
    for line in body.lines() {
        assert!(
            ["CELL_JSON {", "SERVICE_JSON {", "DIGEST ", "OK"]
                .iter()
                .any(|prefix| line.starts_with(prefix)),
            "line outside the protocol: {line:?}"
        );
    }
    let meta = body
        .lines()
        .find_map(|l| l.strip_prefix("SERVICE_JSON "))
        .expect("SERVICE_JSON line");
    let doc = pckpt_service::json::parse(meta).expect("SERVICE_JSON parses");
    assert_eq!(doc.get("name").and_then(|n| n.as_str()), Some("a\"b\nc"));
}

#[test]
fn crossover_cell_below_alpha_one_is_simulated_not_pruned() {
    // Eq. (6) is undefined for α < 1, so the analytic prefilter must
    // abstain and the cell must be simulated.
    let service = memory_only_service();
    let body = respond(
        r#"{"app":"CHIMERA","models":["P1","M2"],"lm_alpha":0.5,"prefilter":"analytic","runs":2}"#,
        &service,
    );
    assert!(body.ends_with("OK\n"), "{body}");
    assert!(body.contains("\"pruned\":false"), "{body}");
}

#[cfg(target_os = "linux")]
#[test]
fn serve_unix_joins_finished_connection_threads() {
    const N: usize = 500;
    let dir = std::env::temp_dir().join(format!("pckpt-service-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("pckptd.sock");
    let server = {
        let socket = socket.clone();
        let service = Arc::new(memory_only_service());
        std::thread::spawn(move || serve_unix(&socket, service, Some(N + 1)))
    };
    wait_for_socket(&socket);
    let maps = || {
        std::fs::read_to_string("/proc/self/maps")
            .expect("read /proc/self/maps")
            .lines()
            .count()
    };
    let before = maps();
    for _ in 0..N {
        assert_eq!(
            submit_unix(&socket, "").expect("empty request"),
            "ERR empty request\n"
        );
    }
    // One request is still to come, so the server is accepting. A
    // finished thread that is never joined keeps its stack and guard
    // page mapped: about 2 lines per request if nothing joins them.
    let grown = maps().saturating_sub(before);
    assert!(
        grown < N / 2,
        "/proc/self/maps grew by {grown} lines over {N} requests"
    );
    assert_eq!(
        submit_unix(&socket, "").expect("last request"),
        "ERR empty request\n"
    );
    server.join().expect("server thread").expect("serve_unix");
    let _ = std::fs::remove_dir_all(&dir);
}
