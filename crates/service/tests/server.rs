//! The wire layer under hostile or endless traffic: a request line
//! nested far past any real request gets `ERR`, not a stack overflow,
//! and a daemon serving connection after connection does not keep the
//! finished connection threads' stacks mapped.

use std::sync::Arc;

use pckpt_service::{respond, serve_unix, submit_unix, Service, ServiceConfig};

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
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
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
