//! Raw Linux syscalls for the event-loop server core: epoll, eventfd,
//! and `prlimit64` — hand-rolled with `core::arch::asm!`, the same
//! no-dependency discipline as the codec (no `libc`, no `mio`).
//!
//! Only the five syscalls the loop needs are wrapped, each behind a safe
//! RAII type: [`Epoll`] (readiness queue), [`EventFd`] (the cross-thread
//! wake channel), and [`raise_nofile_limit`] (lifts the soft fd limit to
//! the hard cap so one process can hold 10k+ sockets). File descriptors
//! are owned by `OwnedFd`/`File`, so closing is never hand-written.
//!
//! The module is Linux-only (`x86_64` and `aarch64`); on other targets
//! it is not compiled, and neither is the server that stands on it.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

// Syscall numbers differ per architecture; everything else (flag values,
// struct layouts modulo packing) is shared.
#[cfg(target_arch = "x86_64")]
mod nr {
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PRLIMIT64: usize = 302;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const PRLIMIT64: usize = 261;
}

/// Readiness bits (kernel `EPOLL*` values).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs registering).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (peer closed both directions).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (half-close detection).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x8_0000;
const EFD_NONBLOCK: usize = 0x800;
const EFD_CLOEXEC: usize = 0x8_0000;
const RLIMIT_NOFILE: usize = 7;

/// One readiness event, kernel ABI layout. The x86_64 ABI packs the
/// struct (12 bytes); every other architecture uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready `EPOLL*` bits.
    pub events: u32,
    /// The token registered with the fd (the loop uses connection ids).
    pub data: u64,
}

/// Raw 6-argument syscall. Negative returns in `-4095..0` are `-errno`
/// per the kernel ABI; everything else is the success value.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    nr: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    nr: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            in("x8") nr,
            options(nostack),
        );
    }
    ret
}

/// Converts a raw syscall return into `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// An epoll instance (closed on drop).
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or_default();
        let ptr = match event {
            Some(_) => &mut ev as *mut EpollEvent as usize,
            // DEL ignores the event; a null pointer is the documented call.
            None => 0,
        };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as usize,
                op,
                fd as usize,
                ptr,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` for `interest` under `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest,
                data: token,
            }),
        )
    }

    /// Rewrites the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest,
                data: token,
            }),
        )
    }

    /// Deregisters `fd` (no-op errors are the caller's to ignore: a
    /// closed fd is already deregistered by the kernel).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Waits for readiness events, at most `timeout_ms` milliseconds
    /// (`-1` = forever). Interrupted waits report zero events rather
    /// than an error — the loop treats both as "nothing ready".
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // epoll_pwait with a null sigmask == epoll_wait, and it exists on
        // every architecture (aarch64 has no plain epoll_wait syscall).
        let ret = check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd.as_raw_fd() as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                8, // sigsetsize, ignored with a null mask
            )
        });
        match ret {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// A non-blocking eventfd: the cross-thread wake channel of the loop.
/// Runner threads [`EventFd::signal`] it when a job completes; the loop
/// polls it readable and [`EventFd::drain`]s the counter.
#[derive(Debug)]
pub struct EventFd {
    file: File,
}

impl EventFd {
    /// `eventfd2(0, EFD_NONBLOCK | EFD_CLOEXEC)`.
    pub fn new() -> io::Result<EventFd> {
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0) })?;
        Ok(EventFd {
            file: unsafe { File::from_raw_fd(fd as RawFd) },
        })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Adds 1 to the counter, waking an epoll blocked on readability.
    /// Infallible by design: the only failure mode is a counter at
    /// `u64::MAX - 1`, which 64 bits of pending wakes cannot reach.
    pub fn signal(&self) {
        let _ = (&self.file).write(&1u64.to_le_bytes());
    }

    /// Empties the counter so the fd stops polling readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

/// Lifts the soft `RLIMIT_NOFILE` to the hard cap via `prlimit64` (pid 0
/// = self) and returns the resulting `(soft, hard)` pair. Best-effort:
/// on any failure the current limits are returned unchanged.
pub fn raise_nofile_limit() -> (u64, u64) {
    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }
    let mut current = Rlimit64::default();
    let got = check(unsafe {
        syscall6(
            nr::PRLIMIT64,
            0,
            RLIMIT_NOFILE,
            0,
            &mut current as *mut Rlimit64 as usize,
            0,
            0,
        )
    });
    if got.is_err() {
        return (0, 0);
    }
    if current.cur < current.max {
        let wanted = Rlimit64 {
            cur: current.max,
            max: current.max,
        };
        if check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &wanted as *const Rlimit64 as usize,
                0,
                0,
                0,
            )
        })
        .is_ok()
        {
            return (wanted.cur, wanted.max);
        }
    }
    (current.cur, current.max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_reports_readability_on_a_loopback_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .add(accepted.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .unwrap();

        let mut events = [EpollEvent::default(); 8];
        // Nothing to read yet: a zero timeout returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let n = epoll.wait(&mut events, 1_000).unwrap();
        assert_eq!(n, 1);
        let (token, ready) = (events[0].data, events[0].events);
        assert_eq!(token, 42);
        assert_ne!(ready & EPOLLIN, 0);

        epoll.delete(accepted.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_edge_of_interest_modification() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        // A healthy socket with an empty send buffer is writable at once.
        epoll.add(accepted.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let mut events = [EpollEvent::default(); 8];
        let n = epoll.wait(&mut events, 1_000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events & EPOLLOUT, 0);
        // Dropping write interest silences it.
        epoll.modify(accepted.as_raw_fd(), EPOLLIN, 7).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn eventfd_signals_and_drains_through_epoll() {
        let efd = EventFd::new().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(efd.raw(), EPOLLIN, 1).unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "starts silent");

        // Signals coalesce: many signals, one readable event, one drain.
        let writer = {
            let efd = EventFd {
                file: efd.file.try_clone().unwrap(),
            };
            std::thread::spawn(move || {
                for _ in 0..3 {
                    efd.signal();
                }
            })
        };
        writer.join().unwrap();
        assert_eq!(epoll.wait(&mut events, 1_000).unwrap(), 1);
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn nofile_limit_reports_a_sane_pair() {
        let (soft, hard) = raise_nofile_limit();
        assert!(soft > 0 && hard >= soft, "soft={soft} hard={hard}");
    }
}
