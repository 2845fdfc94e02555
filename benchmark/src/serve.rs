//! A minimal client for `minigiraffe serve`, written against the wire
//! format the README documents (`[kind u8][len u32 LE][payload]`) rather
//! than the server crate, so the end-to-end numbers survive any refactor
//! that keeps the protocol.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PING: u8 = 0x01;
const SUBMIT: u8 = 0x02;
const STATS: u8 = 0x03;
const SHUTDOWN: u8 = 0x04;
const PONG: u8 = 0x81;
const ACCEPT: u8 = 0x82;
const BUSY: u8 = 0x83;
const GAF: u8 = 0x84;
const DONE: u8 = 0x85;
const ERROR: u8 = 0x86;
const STATS_REPLY: u8 = 0x87;

/// No reply for this long means the server hung; the run fails instead of
/// outliving the driver's per-run limit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// The server has this long to open its index and start listening.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `minigiraffe serve` child; killed and reaped on drop, so no
/// error path leaves it behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for it to exit on its own.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = Client::connect(self.addr)?;
        c.send(SHUTDOWN, &[])?;
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self
                .child
                .try_wait()
                .map_err(|e| format!("waiting for server: {e}"))?
            {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("server ignored SHUTDOWN".into());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A loopback port nobody listens on right now.
fn free_port() -> Result<u16, String> {
    TcpListener::bind(("127.0.0.1", 0))
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("finding a free port: {e}"))
}

/// Starts `minigiraffe serve --mgi <mgi> --paired true --threads N --port P`
/// and returns once it answers a PING, with the seconds from spawn to PONG.
pub fn spawn(bin: &Path, mgi: &Path, threads: usize, log: &Path) -> Result<(Server, f64), String> {
    let port = free_port()?;
    let stderr =
        std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    let started = Instant::now();
    let child = Command::new(bin)
        .arg("serve")
        .arg("--mgi")
        .arg(mgi)
        .args([
            "--paired",
            "true",
            "--threads",
            &threads.to_string(),
            "--port",
            &port.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut server = Server {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], port)),
    };
    loop {
        if let Ok(mut c) = Client::connect(server.addr) {
            c.send(PING, &[])?;
            c.expect(PONG)?;
            return Ok((server, started.elapsed().as_secs_f64()));
        }
        if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
            return Err(format!("server exited with {status} before listening"));
        }
        if started.elapsed() > READY_TIMEOUT {
            return Err("server never started listening".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// One finished job as its client saw it. Times are seconds since the job's
/// SUBMIT was written.
#[derive(Debug, Clone, Default)]
pub struct JobReply {
    pub gaf: Vec<u8>,
    pub accept_s: f64,
    /// First GAF frame; `done_s` when the job produced no GAF at all.
    pub first_gaf_s: f64,
    pub done_s: f64,
    /// `reads` field of the DONE summary.
    pub reads: u64,
}

pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Client { stream })
    }

    fn send(&mut self, kind: u8, payload: &[u8]) -> Result<(), String> {
        let len = u32::try_from(payload.len()).map_err(|_| "frame payload over 4 GiB")?;
        let mut frame = Vec::with_capacity(5 + payload.len());
        frame.push(kind);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(payload);
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("sending frame {kind:#04x}: {e}"))
    }

    fn recv(&mut self) -> Result<(u8, Vec<u8>), String> {
        let mut header = [0u8; 5];
        self.stream
            .read_exact(&mut header)
            .map_err(|e| format!("reading frame header: {e}"))?;
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        // The server caps frames at 64 MiB; anything larger is not a frame.
        if len > 64 << 20 {
            return Err(format!("frame {:#04x} announces {len} bytes", header[0]));
        }
        let mut payload = vec![0u8; len];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| format!("reading frame payload: {e}"))?;
        Ok((header[0], payload))
    }

    fn expect(&mut self, kind: u8) -> Result<Vec<u8>, String> {
        let (got, payload) = self.recv()?;
        if got == kind {
            Ok(payload)
        } else {
            Err(format!("expected frame {kind:#04x}, got {got:#04x}"))
        }
    }

    /// The server's STATS JSON.
    pub fn stats(&mut self) -> Result<String, String> {
        self.send(STATS, &[])?;
        String::from_utf8(self.expect(STATS_REPLY)?).map_err(|e| e.to_string())
    }

    /// Submits one job and collects its GAF to DONE. BUSY and ERR are
    /// errors: the closed loop never has more than one job per client in
    /// flight, so neither may happen.
    pub fn run_job(&mut self, name: &str, fastq: &[u8]) -> Result<JobReply, String> {
        let mut payload = Vec::with_capacity(2 + name.len() + fastq.len());
        let name_len = u16::try_from(name.len()).map_err(|_| "job name too long")?;
        payload.extend_from_slice(&name_len.to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(fastq);
        let submitted = Instant::now();
        self.send(SUBMIT, &payload)?;
        let mut reply = JobReply::default();
        let mut seen_gaf = false;
        loop {
            let (kind, body) = self.recv()?;
            let at = submitted.elapsed().as_secs_f64();
            match kind {
                ACCEPT => reply.accept_s = at,
                GAF if body.len() >= 8 => {
                    if !seen_gaf {
                        seen_gaf = true;
                        reply.first_gaf_s = at;
                    }
                    reply.gaf.extend_from_slice(&body[8..]);
                }
                DONE if body.len() == 48 => {
                    reply.done_s = at;
                    if !seen_gaf {
                        reply.first_gaf_s = at;
                    }
                    reply.reads = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                    return Ok(reply);
                }
                BUSY => {
                    return Err(format!(
                        "job {name} refused: {}",
                        String::from_utf8_lossy(&body)
                    ))
                }
                ERROR => {
                    let msg =
                        String::from_utf8_lossy(body.get(8..).unwrap_or_default()).into_owned();
                    return Err(format!("job {name} failed: {msg}"));
                }
                other => return Err(format!("job {name}: unexpected frame {other:#04x}")),
            }
        }
    }
}

/// The unsigned integer after `"key":` in a flat JSON document; enough for
/// the counters of the STATS reply.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counters_are_found_by_key() {
        let json =
            "{\"jobs\":{\"accepted\":12,\"rejected_full\":3,\"pending\":0},\"reads_mapped\":12000}";
        assert_eq!(json_u64(json, "accepted"), Some(12));
        assert_eq!(json_u64(json, "rejected_full"), Some(3));
        assert_eq!(json_u64(json, "reads_mapped"), Some(12000));
        assert_eq!(json_u64(json, "missing"), None);
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut peer = Client { stream };
            let (kind, body) = peer.recv().unwrap();
            assert_eq!(kind, SUBMIT);
            assert_eq!(&body[..2], &2u16.to_le_bytes());
            assert_eq!(&body[2..4], b"j1");
            peer.send(ACCEPT, &7u64.to_le_bytes()).unwrap();
            let mut gaf = 7u64.to_le_bytes().to_vec();
            gaf.extend_from_slice(b"line\n");
            peer.send(GAF, &gaf).unwrap();
            let mut done = Vec::new();
            for v in [7u64, 2, 1, 5, 0, 0] {
                done.extend_from_slice(&v.to_le_bytes());
            }
            peer.send(DONE, &done).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let reply = client.run_job("j1", b"@r0\nAC\n+\nFF\n").unwrap();
        assert_eq!(reply.gaf, b"line\n");
        assert_eq!(reply.reads, 2);
        assert!(reply.accept_s <= reply.first_gaf_s && reply.first_gaf_s <= reply.done_s);
        echo.join().unwrap();
    }
}
