//! The TCP shell: accept loop, per-connection framing threads, and the
//! network-fault hooks (`drop-conn`, `delay-conn`, `stall-shard`) from the
//! shared [`FaultInjector`].
//!
//! A connection thread hands each frame body to
//! [`CacheService::handle_frame`] undecoded. A query body whose graph
//! bytes the service keeps (a query the cache already held, at most
//! `cache_capacity + window_capacity` of them, bodies up to
//! [`KEEP_MAX_BODY`](crate::service::KEEP_MAX_BODY) bytes, behind one
//! short lock; see [`crate::service`]) runs on the kept graph; every
//! other body is decoded as before, and one that does not decode is
//! answered `bad request` on a connection that stays open.

use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gc_core::FaultInjector;

use crate::protocol::{read_frame, WireError};
use crate::service::CacheService;

/// How often a connection thread blocked in a read wakes to observe
/// shutdown.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// A running server; dropping the handle does *not* stop it — call
/// [`shutdown`](ServerHandle::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<CacheService>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared request handler, for out-of-band assertions (health,
    /// failover state) without a client round-trip.
    pub fn service(&self) -> &Arc<CacheService> {
        &self.service
    }

    /// Stops accepting, wakes the acceptor, and joins it. A connection
    /// thread closes its connection at its first read timeout (100 ms
    /// ticks) after this — while idle between frames or part way through
    /// one — or when the client closes.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Binds `127.0.0.1:port` (0 = ephemeral) and serves the cache until
/// [`ServerHandle::shutdown`]. `injector`, when given, drives the
/// *network* faults; shard-internal faults are installed on the cache
/// before it is wrapped in the service.
pub fn serve(
    service: CacheService,
    port: u16,
    injector: Option<Arc<FaultInjector>>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let service = Arc::new(service);
    let stop = Arc::new(AtomicBool::new(false));

    let acceptor = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let injector = injector.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &service, &stop, injector.as_deref());
                });
            }
        })
    };

    Ok(ServerHandle {
        addr,
        service,
        stop,
        acceptor: Some(acceptor),
    })
}

/// One connection: read frame → apply network-fault directive → handle
/// the body → reply. Returns when the peer closes, the transport fails, a drop-conn
/// fault fires, or shutdown is observed while waiting on the peer. Reads
/// go through one buffer for the connection's lifetime, writes straight
/// to the socket.
fn serve_connection(
    stream: TcpStream,
    service: &CacheService,
    stop: &AtomicBool,
    injector: Option<&FaultInjector>,
) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_TICK)).ok();
    let mut reader = BufReader::new(&stream);
    loop {
        let body = match read_frame_idle(&mut reader, stop)? {
            Some(body) => body,
            None => return Ok(()), // clean close or shutdown while idle
        };
        // the deadline clock anchors at frame receipt: injected delays and
        // queue waits burn the request's budget, as real congestion would
        let received = Instant::now();
        let directive = injector.map(|i| i.before_request()).unwrap_or_default();
        if let Some(d) = directive.delay {
            std::thread::sleep(d);
        }
        if directive.drop_conn {
            // close without replying: the client sees a transport error
            return Ok(());
        }
        let stall = directive.stall_shard.then(|| {
            let nth = injector.map(|i| i.requests_seen()).unwrap_or(0);
            (nth as usize).wrapping_sub(1) % service.shard_count()
        });
        service
            .handle_frame(&body, received, stall)
            .write_frame(&mut &stream)?;
    }
}

/// [`read_frame`] tolerant of read timeouts: waits for the first byte of a
/// frame (from the buffer, or the socket when the buffer is empty), waking
/// every [`IDLE_TICK`] to observe shutdown, then reads the whole frame
/// through [`Patient`]. `Ok(None)` = clean close or shutdown while idle; a
/// shutdown part way through a frame is an I/O error, which closes the
/// connection too.
fn read_frame_idle(r: &mut impl BufRead, stop: &AtomicBool) -> Result<Option<Vec<u8>>, WireError> {
    loop {
        match r.fill_buf() {
            Ok([]) => return Ok(None),
            Ok(_) => break,
            Err(e) if is_tick(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    read_frame(&mut Patient { inner: r, stop }).map(Some)
}

/// Whether a read error is the socket's read timeout expiring.
fn is_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A read that retries through the read timeout's ticks: once a frame has
/// started, the rest of it is waited for — until shutdown, which fails the
/// read.
struct Patient<'a, R> {
    inner: &'a mut R,
    stop: &'a AtomicBool,
}

impl<R: Read> Read for Patient<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e) if is_tick(&e) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server shut down mid-frame",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                done => return done,
            }
        }
    }
}
