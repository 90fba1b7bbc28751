//! The wire layer: a line-oriented protocol over a Unix socket, plus
//! the in-process `respond` entry the CLI's `once` mode shares.
//!
//! Request: one JSON document (see [`crate::request`]) terminated by a
//! newline or EOF, on a line of at most [`MAX_REQUEST_LINE_BYTES`]
//! bytes; a longer line gets `ERR` without being buffered. Response,
//! line by line:
//!
//! ```text
//! CELL_JSON {...}      one per input cell, input order
//! SERVICE_JSON {...}   grid meta_json + cache/journal accounting
//! DIGEST <hex32>       the campaign digest (see `grid_digest`)
//! OK                   terminator (or: ERR <message> alone)
//! ```
//!
//! `CELL_JSON` carries both human-readable means and `hours_bits`, the
//! exact f64 bit patterns, so clients can verify bit-identical replay
//! without parsing floats.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pckpt_core::obs::json::{self, Fixed, Hex, Seq};

use crate::grid_digest;
use crate::request::parse_request;
use crate::service::Service;

/// Serves one request text, in-process.
pub fn respond(req_text: &str, service: &Service) -> String {
    match respond_inner(req_text, service) {
        Ok(body) => body,
        Err(e) => format!("ERR {}\n", e.replace('\n', " ")),
    }
}

fn respond_inner(req_text: &str, service: &Service) -> Result<String, String> {
    let req = parse_request(req_text)?;
    let outcome = service.execute(&req)?;
    let grid = &outcome.grid;
    let mut out = String::new();
    for (i, campaign) in grid.cells.iter().enumerate() {
        let aggs = &campaign.aggregates;
        let models = Seq(campaign.models.iter().map(|m| m.name()));
        let hours = Seq(aggs.iter().map(|a| Fixed(a.total_hours.mean(), 6)));
        let ratios = Seq(aggs.iter().map(|a| Fixed(a.ft_ratio_pooled(), 6)));
        let bits = Seq(aggs.iter().map(|a| Hex(a.total_hours.mean().to_bits())));
        out.push_str("CELL_JSON ");
        json::object(&mut out, |o| {
            o.field("label", &grid.labels[i])
                .field("pruned", grid.analytic_verdicts[i].is_some())
                .field("models", models)
                .field("runs", grid.cell_runs[i])
                .field("ci_rel", Fixed(grid.cell_ci_rel[i], 6))
                .field("total_hours", hours)
                .field("ft_ratio", ratios)
                .field("hours_bits", bits);
        });
        out.push('\n');
    }
    out.push_str(&format!(
        "SERVICE_JSON {}\nDIGEST {}\nOK\n",
        outcome.meta_json(&req.name),
        grid_digest(grid).hex()
    ));
    Ok(out)
}

/// The most connections served at once. A connection beyond it gets
/// `ERR` and is closed at once, so a flood of clients cannot make the
/// daemon spawn a thread (and build simulators) per connection.
pub const MAX_CONNECTIONS: usize = 32;

/// How long a connection may send nothing before its request line is
/// complete. An idle client is answered `ERR` and dropped, so it cannot
/// hold one of the [`MAX_CONNECTIONS`] slots.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Accepts connections on `socket_path` until `max_requests` (if any)
/// have been accepted. Each connection carries one request line; the
/// response is streamed back and the connection closed. Connections
/// are handled on their own threads, at most [`MAX_CONNECTIONS`] at
/// once, so identical concurrent requests actually exercise
/// single-flight coalescing. Each accept first joins the connection
/// threads that have finished: an exited thread that is never joined
/// keeps its stack mapped, and a daemon without a request cap would
/// pile those up until thread spawning fails.
pub fn serve_unix(
    socket_path: &Path,
    service: Arc<Service>,
    max_requests: Option<usize>,
) -> Result<(), String> {
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)
        .map_err(|e| format!("bind {}: {e}", socket_path.display()))?;
    let mut served = 0usize;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => return Err(format!("accept: {e}")),
        };
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let _ = workers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        if workers.len() < MAX_CONNECTIONS {
            let service = Arc::clone(&service);
            workers.push(std::thread::spawn(move || handle(stream, &service)));
        } else {
            let msg = format!("ERR more than {MAX_CONNECTIONS} connections at once\n");
            let _ = (&stream).write_all(msg.as_bytes());
        }
        served += 1;
        if let Some(cap) = max_requests {
            if served >= cap {
                break;
            }
        }
    }
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// The longest request line the daemon reads, newline excluded. A real
/// request is a few hundred bytes; the cap keeps a client from making
/// the daemon buffer without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

fn handle(stream: UnixStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut line = Vec::new();
    let read = BufReader::new((&stream).take(MAX_REQUEST_LINE_BYTES as u64 + 1))
        .read_until(b'\n', &mut line);
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.len() > MAX_REQUEST_LINE_BYTES {
        let msg = format!("ERR request line longer than {MAX_REQUEST_LINE_BYTES} bytes\n");
        let _ = (&stream).write_all(msg.as_bytes());
        let _ = stream.shutdown(std::net::Shutdown::Write);
        // Discard the rest of the client's input through a fixed
        // buffer, so it can finish sending and read the ERR: closing
        // with its bytes unread would reset the connection under it.
        let _ = std::io::copy(&mut &stream, &mut std::io::sink());
        return;
    }
    let text = match (read, String::from_utf8(line)) {
        (Ok(_), Ok(text)) if !text.trim().is_empty() => text,
        (Err(e), _) => {
            let _ = (&stream).write_all(format!("ERR reading the request: {e}\n").as_bytes());
            return;
        }
        (Ok(_), Err(_)) => {
            let _ = (&stream).write_all(b"ERR request is not UTF-8\n");
            return;
        }
        (Ok(_), Ok(_)) => {
            let _ = (&stream).write_all(b"ERR empty request\n");
            return;
        }
    };
    let body = respond(text.trim(), service);
    let _ = (&stream).write_all(body.as_bytes());
    let _ = (&stream).flush();
}

/// Client side: submits one request line to a daemon and returns the
/// raw response text.
pub fn submit_unix(socket_path: &Path, req_text: &str) -> Result<String, String> {
    let mut stream = UnixStream::connect(socket_path)
        .map_err(|e| format!("connect {}: {e}", socket_path.display()))?;
    let line = req_text.replace('\n', " ");
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("recv: {e}"))?;
    Ok(body)
}
