//! A tiny readiness-polling abstraction over `epoll(7)`.
//!
//! This is the whole "async runtime" of the event-driven server: a
//! [`Poller`] owns one epoll instance, sockets register with a `u64`
//! token, and [`Poller::wait`] parks until some of them are readable or
//! writable. No `libc`, tokio, or mio — the four syscalls the loop
//! needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`, plus
//! `fcntl` for `O_NONBLOCK`) are declared directly against the C ABI,
//! the same way [`crate::signal`] binds `signal(2)`.
//!
//! All registrations use `EPOLLONESHOT`: after a token is reported, its
//! socket goes quiet until re-armed with [`Poller::rearm`]. That gives
//! the worker pool its exclusivity guarantee for free — at most one
//! worker ever holds a given session, because the kernel won't report
//! the same fd twice between re-arms. Re-arming is thread-safe
//! (`epoll_ctl` is), so workers re-arm from wherever they finish.
//!
//! Only compiled on Linux; elsewhere the server does not run (see
//! [`Server::run`](crate::Server::run)).

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Readiness: data to read (or a pending accept / peer hangup).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the socket's send buffer has room again.
pub const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLONESHOT: u32 = 1 << 30;

/// Mirrors `struct epoll_event`. `packed` matters: on x86-64 the kernel
/// ABI has no padding between the 32-bit mask and the 64-bit data word.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn __errno_location() -> *mut c_int;
}

fn last_errno() -> i32 {
    unsafe { *__errno_location() }
}

const EINTR: i32 = 4;

/// A readiness event: which registration fired and how.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the socket registered under.
    pub token: u64,
    /// `true` when the socket is readable (or hung up / errored — the
    /// subsequent `read` surfaces the exact condition).
    pub readable: bool,
    /// `true` when the socket is writable.
    pub writable: bool,
}

/// One epoll instance plus the event buffer for [`wait`](Poller::wait).
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<Self> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    /// Registers `fd` under `token` with one-shot `interest`
    /// ([`EPOLLIN`] | [`EPOLLOUT`]). Level-triggered semantics apply at
    /// arm time: if the condition already holds, the next
    /// [`wait`](Poller::wait) reports it immediately.
    pub fn register(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest | EPOLLONESHOT)
    }

    /// Registers `fd` *without* one-shot — for the listener, which the
    /// poller thread itself services on every wakeup.
    pub fn register_level(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Re-arms a one-shot registration with a fresh `interest` mask.
    /// Thread-safe; callable concurrently with [`wait`](Poller::wait).
    pub fn rearm(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest | EPOLLONESHOT)
    }

    /// Removes `fd` from the instance (before closing it).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks up to `timeout_ms` for readiness, appending into `out`.
    /// Returns the number of events delivered (0 on timeout). `EINTR`
    /// is reported as 0 events, not an error, so signal arrival just
    /// turns into an early shutdown-check.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
        if n < 0 {
            if last_errno() == EINTR {
                return Ok(0);
            }
            return Err(io::Error::last_os_error());
        }
        for ev in raw.iter().take(n as usize) {
            let mask = ev.events;
            out.push(Event {
                token: ev.data,
                // Error/hangup wake the read path so it can observe the
                // failure from the socket itself.
                readable: mask & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                writable: mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

/// Puts a raw fd into non-blocking mode via `fcntl` (the std
/// `set_nonblocking` equivalent, kept here so the reactor can flip fds
/// it only holds raw).
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7, EPOLLIN).unwrap();

        // Nothing to read yet: timeout.
        let mut events = Vec::new();
        poller.wait(&mut events, 20).unwrap();
        assert!(events.is_empty());

        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // One-shot: the same readiness is not reported again...
        let mut again = Vec::new();
        poller.wait(&mut again, 20).unwrap();
        assert!(again.is_empty());

        // ...until re-armed, and a writable socket reports EPOLLOUT
        // immediately (level-triggered at arm time).
        poller
            .rearm(server.as_raw_fd(), 7, EPOLLIN | EPOLLOUT)
            .unwrap();
        let mut rearmed = Vec::new();
        poller.wait(&mut rearmed, 1000).unwrap();
        assert_eq!(rearmed.len(), 1);
        assert!(rearmed[0].writable);

        let mut buf = [0u8; 4];
        (&server).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_flag_sticks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        set_nonblocking(server.as_raw_fd()).unwrap();
        let mut buf = [0u8; 8];
        let err = (&server).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }
}
