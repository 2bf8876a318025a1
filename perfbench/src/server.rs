//! The `alss serve` process under test: spawn it, wait for the first
//! answered `ping`, read its peak RSS, shut it down.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads passed to `alss serve --threads`.
pub const SERVE_THREADS: usize = 2;

/// A running `alss serve`; killed on drop if still running.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// Seconds from spawning the process to its first answered `ping`.
    pub setup_s: f64,
}

impl Server {
    /// Start `alss serve` on `data` and `sketch` with every other flag at
    /// its default, and return once it has answered a `ping`.
    pub fn spawn(alss: &Path, data: &Path, sketch: &Path, work: &Path) -> Result<Server, String> {
        let port_file = work.join("serve.port");
        let _ = std::fs::remove_file(&port_file);
        let started = Instant::now();
        let child = Command::new(alss)
            .arg("serve")
            .arg("--graph")
            .arg(data)
            .arg("--sketch")
            .arg(sketch)
            .args(["--addr", "127.0.0.1:0", "--threads"])
            .arg(SERVE_THREADS.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", alss.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let give_up = started + Duration::from_secs(60);
        server.addr = loop {
            let bound = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok());
            if let Some(addr) = bound {
                break addr;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("alss serve exited during start-up: {status}"));
            }
            if Instant::now() > give_up {
                return Err("alss serve did not bind within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let reply = call(server.addr, r#"{"op":"ping"}"#)?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("ping failed: {reply}"));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Send `shutdown` and wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ack = call(self.addr, r#"{"op":"shutdown"}"#);
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return ack.map(|_| ()),
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // Drop kills it.
                _ => return Err("alss serve did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Open a load connection with `TCP_NODELAY`, so every request line
/// leaves in one segment as soon as it is written.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true)
        .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
    Ok(s)
}

/// One request and its reply line on a fresh connection.
fn call(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    s.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| format!("recv: {e}"))?;
    Ok(reply)
}
