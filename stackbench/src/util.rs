//! Small helpers: the tail percentile rule, process memory, a plain
//! HTTP/1.1 GET, and a hash for digests.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The tail percentile a sample of `n` supports: 0.99 when at least
/// 1000 samples, else the highest with at least ten samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n as f64).max(0.5)
    }
}

/// A field of `/proc/self/status` in kB.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Resident set size now, in kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:").unwrap_or(0)
}

/// Resident high-water mark since the last [`reset_hwm`], in kB.
pub fn hwm_kb() -> u64 {
    status_kb("VmHWM:").unwrap_or(0)
}

static INPUTS_RSS_KB: AtomicU64 = AtomicU64::new(0);

extern "C" {
    /// glibc: hand free heap memory back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Note the RSS with only the benchmark's own inputs and oracle built,
/// before the set-up constructs anything of the program under test.
/// Free heap memory (an earlier set-up's, say) is first handed back, so
/// it is not counted here and then reused unseen by the program.
pub fn mark_inputs_built() {
    // SAFETY: malloc_trim takes no pointers and only releases free memory.
    unsafe { malloc_trim(0) };
    INPUTS_RSS_KB.store(rss_kb(), Ordering::Relaxed);
}

/// RSS at the last [`mark_inputs_built`], in kB.
pub fn inputs_rss_kb() -> u64 {
    INPUTS_RSS_KB.load(Ordering::Relaxed)
}

/// Reset the resident high-water mark to the current RSS.
pub fn reset_hwm() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// How fast the host runs hash-table work just now: the time, in ms, of
/// 600,000 updates to a `HashMap` of 50,000 keys, after one untimed pass
/// that sizes and warms it. The engine workloads spend their time on
/// hash lookups, and on a shared VM their speed drifts with this figure.
/// It goes in the run record so that a slow spell of the host shows
/// there; no metric is derived from it.
pub fn host_probe_ms() -> f64 {
    let mut map: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut pass = || {
        map.clear();
        let t0 = Instant::now();
        for i in 0..600_000u64 {
            *map.entry(i.wrapping_mul(0x9E37_79B9) % 50_000).or_insert(0) += i;
        }
        std::hint::black_box(map.len());
        t0.elapsed().as_secs_f64() * 1e3
    };
    pass();
    pass()
}

/// Why one HTTP request failed.
#[derive(Debug)]
#[allow(dead_code)] // the payloads are read through `Debug` in error messages
pub enum HttpError {
    /// Connecting failed.
    Connect(std::io::Error),
    /// Sending or receiving failed, or timed out.
    Io(std::io::Error),
    /// The response was not HTTP.
    Malformed,
}

/// One `GET path` against `addr`: the status code and body.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), HttpError> {
    let timeout = Duration::from_secs(5);
    let mut conn = TcpStream::connect_timeout(&addr, timeout).map_err(HttpError::Connect)?;
    conn.set_write_timeout(Some(timeout)).map_err(HttpError::Io)?;
    let _ = conn.set_nodelay(true);
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(HttpError::Io)?;
    // Poll the socket, yielding between polls, rather than block in
    // `read`: a blocked reader's wake-up on a shared VM adds its own
    // delay, which is not the daemon's. This keeps the driving thread
    // busy, within the budget of one driver and one daemon thread.
    conn.set_nonblocking(true).map_err(HttpError::Io)?;
    let started = Instant::now();
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if started.elapsed() > timeout {
                    return Err(HttpError::Io(ErrorKind::TimedOut.into()));
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or(HttpError::Malformed)?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| HttpError::Malformed)?;
    let code =
        head.split_whitespace().nth(1).and_then(|c| c.parse().ok()).ok_or(HttpError::Malformed)?;
    Ok((code, raw[split + 4..].to_vec()))
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
