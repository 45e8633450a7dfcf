//! Hostile client input against a real `ccheck-serve` process: a
//! deeply nested request line and an over-long request line each get a
//! protocol error, and the world keeps serving new connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ccheck_service::daemon::MAX_LINE_BYTES;
use ccheck_service::json::Json;
use ccheck_service::ServiceClient;

/// Send `request` on a fresh connection and return the one response
/// line (empty if the server closed without answering).
fn answer(addr: &str, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).expect("send request");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read response");
    line
}

/// The server process, killed if the test fails before shutting it
/// down.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn hostile_lines_get_errors_and_the_world_survives() {
    let dir = std::env::temp_dir().join(format!("ccheck-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let addr_file = dir.join("client.addr");
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_ccheck-serve"))
            .args(["--pes", "2", "--addr-file"])
            .arg(&addr_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ccheck-serve"),
    );
    let mut client = ServiceClient::connect_via_addr_file(&addr_file, Duration::from_secs(30))
        .expect("client connects");
    let addr = std::fs::read_to_string(&addr_file).expect("address file");
    let addr = addr.trim();

    // 200 000 `[`: an unbounded recursive parser overflows its stack.
    let mut nested = "[".repeat(200_000).into_bytes();
    nested.push(b'\n');
    let line = answer(addr, &nested);
    assert!(
        line.contains("\"ok\":false") && line.contains("nesting deeper than 128"),
        "{line:?}"
    );

    // One byte past the line cap, never a newline: answered, then closed.
    let long = vec![b' '; MAX_LINE_BYTES + 1];
    let line = answer(addr, &long);
    assert!(
        line.contains("\"ok\":false") && line.contains("line longer than"),
        "{line:?}"
    );

    // A new connection still gets a normal health answer.
    let health = ServiceClient::connect_with_retry(addr, Duration::from_secs(10))
        .expect("reconnect")
        .health()
        .expect("health answers");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("world").and_then(Json::as_u64), Some(2));

    client.shutdown().expect("shutdown");
    let status = server.0.wait().expect("ccheck-serve exits");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "ccheck-serve exit status {status}");
}
