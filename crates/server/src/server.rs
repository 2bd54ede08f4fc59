//! The TCP shell: accept loop, per-connection framing threads, and the
//! network-fault hooks (`drop-conn`, `delay-conn`, `stall-shard`) from the
//! shared [`FaultInjector`].

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gc_core::FaultInjector;

use crate::protocol::{read_body, write_frame, Request, Response, WireError};
use crate::service::CacheService;

/// How often an idle connection thread wakes to observe shutdown.
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

    /// Stops accepting, wakes the acceptor, and joins it. Connection
    /// threads drain on their next idle tick or client close.
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

/// One connection: read frame → apply network-fault directive → handle →
/// reply. Returns when the peer closes, the transport fails, a drop-conn
/// fault fires, or shutdown is observed while idle.
fn serve_connection(
    mut stream: TcpStream,
    service: &CacheService,
    stop: &AtomicBool,
    injector: Option<&FaultInjector>,
) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_TICK)).ok();
    loop {
        let body = match read_frame_idle(&mut stream, stop)? {
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
        let response = match Request::decode(&body) {
            Ok(req) => {
                let stall = directive.stall_shard.then(|| {
                    let nth = injector.map(|i| i.requests_seen()).unwrap_or(0);
                    (nth as usize).wrapping_sub(1) % service.shard_count()
                });
                service.handle(req, received, stall)
            }
            // framing is still aligned (length prefix), so a malformed
            // body is a per-request error, not a connection error
            Err(e) => Response::Error(format!("bad request: {e}")),
        };
        write_frame(&mut stream, &response.encode())?;
    }
}

/// [`read_frame`] tolerant of idle read timeouts *between* frames: wakes
/// every [`IDLE_TICK`] to observe shutdown, but once the first header byte
/// has arrived it insists on the whole frame. `Ok(None)` = clean close or
/// shutdown while idle.
fn read_frame_idle(
    stream: &mut TcpStream,
    stop: &AtomicBool,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut hdr = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut hdr[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::from(io::ErrorKind::UnexpectedEof).into())
                };
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 && stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    read_body(&mut Patient(stream), hdr).map(Some)
}

/// A stream read that retries through the idle tick's read timeouts: once
/// a frame has started, the rest of it is waited for.
struct Patient<'a>(&'a mut TcpStream);

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.0.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                done => return done,
            }
        }
    }
}
