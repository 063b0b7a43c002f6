//! A zero-dependency readiness layer for the event-driven server front end:
//! a thin FFI shim over POSIX `poll(2)` plus a self-wake pipe, in the same
//! dependency-free spirit as the CLI's `signal(2)` shim.
//!
//! The server's reactor (`server/reactor.rs`) drives every client connection
//! from ONE thread: nonblocking sockets are polled for readiness, bytes are
//! accumulated in per-connection buffers (so a request split across arbitrary
//! packet — or time — boundaries is reassembled instead of truncated), and
//! every complete request in a buffer is served before re-arming. The
//! [`WakePipe`] lets other threads (the group-commit writer finishing a
//! transaction, [`ServerHandle::shutdown`](super::ServerHandle::shutdown))
//! interrupt a blocked `poll` immediately instead of waiting out its timeout.
//!
//! Only the three readiness bits the reactor needs are exposed; everything is
//! `#[repr(C)]`-faithful to `<poll.h>` on the POSIX platforms the workspace
//! targets.

use std::io;
use std::os::fd::RawFd;

/// `POLLIN`: the descriptor has bytes to read (or a pending accept).
pub const POLL_IN: i16 = 0x001;
/// `POLLOUT`: the descriptor can accept writes without blocking.
pub const POLL_OUT: i16 = 0x004;
/// `POLLERR | POLLHUP | POLLNVAL`: the descriptor is in an error/hangup state.
/// These are output-only flags — `poll` reports them even when unrequested.
pub const POLL_FAIL: i16 = 0x008 | 0x010 | 0x020;

/// One entry of the `poll(2)` descriptor array (`struct pollfd`).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Requested readiness events ([`POLL_IN`] / [`POLL_OUT`]).
    pub events: i16,
    /// Reported readiness, filled in by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel report any of `mask` on this descriptor?
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSD family
/// (including macOS).
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    fn pipe(fds: *mut RawFd) -> i32;
    fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
    fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    fn close(fd: RawFd) -> i32;
    fn fcntl(fd: RawFd, cmd: i32, arg: i32) -> i32;
}

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
// `O_NONBLOCK` differs per platform; a wrong value makes `fcntl` silently set
// the wrong flag, sockets stay blocking, and the single-threaded reactor
// wedges on the first slow peer — so refuse to compile on targets we have not
// checked rather than guess.
#[cfg(any(target_os = "linux", target_os = "android"))]
const O_NONBLOCK: i32 = 0x800;
#[cfg(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
))]
const O_NONBLOCK: i32 = 0x4;
#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
)))]
compile_error!(
    "reactor FFI shim: O_NONBLOCK/nfds_t are not verified for this target OS; \
     add the platform's values before building"
);

/// Block until at least one descriptor is ready or `timeout_ms` elapses
/// (`-1` = forever). Returns the number of ready descriptors (0 on timeout);
/// `EINTR` is surfaced as `Ok(0)` so signal delivery just re-runs the loop.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        return Ok(0);
    }
    Err(err)
}

/// A self-wake pipe: any thread holding a clone of the [`WakeHandle`] can make
/// a `poll` blocked on the read end return immediately. Wakes coalesce — the
/// pipe is nonblocking on both ends and a full pipe already guarantees the
/// next `poll` returns, so `wake` never blocks and never fails meaningfully.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

/// The cloneable write end of a [`WakePipe`].
#[derive(Clone, Copy, Debug)]
pub struct WakeHandle {
    write_fd: RawFd,
}

impl WakePipe {
    /// Open the pipe, both ends nonblocking.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds: [RawFd; 2] = [-1, -1];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                let err = io::Error::last_os_error();
                unsafe {
                    close(fds[0]);
                    close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The descriptor to include (with [`POLL_IN`]) in the reactor's poll set.
    pub fn poll_fd(&self) -> RawFd {
        self.read_fd
    }

    /// A handle other threads use to interrupt the poll.
    pub fn handle(&self) -> WakeHandle {
        WakeHandle {
            write_fd: self.write_fd,
        }
    }

    /// Discard every queued wake byte (call once the readiness was observed).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 || (n as usize) < buf.len() {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

impl WakeHandle {
    /// Interrupt the reactor's current (or next) `poll`. Nonblocking: a full
    /// pipe means a wake is already pending, which is all we need.
    pub fn wake(&self) {
        let byte = [1u8];
        let _ = unsafe { write(self.write_fd, byte.as_ptr(), 1) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_without_events() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.poll_fd(), POLL_IN)];
        let start = Instant::now();
        let ready = poll_fds(&mut fds, 50).unwrap();
        assert_eq!(ready, 0);
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn wake_interrupts_poll_and_drain_clears_it() {
        let pipe = WakePipe::new().unwrap();
        let handle = pipe.handle();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            handle.wake();
        });
        let mut fds = [PollFd::new(pipe.poll_fd(), POLL_IN)];
        let ready = poll_fds(&mut fds, 5_000).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].ready(POLL_IN));
        waker.join().unwrap();
        pipe.drain();
        let mut fds = [PollFd::new(pipe.poll_fd(), POLL_IN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "drained pipe is quiet");
    }

    #[test]
    fn wakes_coalesce_without_blocking() {
        let pipe = WakePipe::new().unwrap();
        let handle = pipe.handle();
        // Far more wakes than the pipe buffer holds: none may block.
        for _ in 0..100_000 {
            handle.wake();
        }
        let mut fds = [PollFd::new(pipe.poll_fd(), POLL_IN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 1);
        pipe.drain();
    }
}
