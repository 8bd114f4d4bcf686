//! The few Linux calls the generator needs that `std` does not offer:
//! a nanosecond-timeout `ppoll`, the thread's timer slack, and kernel
//! receive timestamps on a UDP socket.

use std::ffi::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
use std::io;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: c_uint,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

#[repr(C)]
struct CmsgHdr {
    len: usize,
    level: c_int,
    kind: c_int,
}

const POLLIN: c_short = 1;
const PR_SET_TIMERSLACK: c_int = 29;
const SOL_SOCKET: c_int = 1;
const SO_TIMESTAMPNS: c_int = 35;
const MSG_DONTWAIT: c_int = 0x40;

extern "C" {
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: c_uint)
        -> c_int;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
}

/// Let this thread's timed sleeps end within a microsecond of their
/// deadline instead of the default 50 µs.
pub fn tighten_timer_slack() {
    // SAFETY: `PR_SET_TIMERSLACK` takes a plain integer and touches no
    // memory of ours; the unused arguments are zero. A failure leaves the
    // default slack, which only makes waits coarser.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Sleep until `fd` is readable or `timeout_ns` has passed. `ppoll` takes a
/// nanosecond timeout on a high-resolution timer, where a socket read
/// timeout is rounded to scheduler ticks.
pub fn readable_within(fd: c_int, timeout_ns: u64) {
    let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout_ns / 1_000_000_000).unwrap_or(c_long::MAX),
        tv_nsec: (timeout_ns % 1_000_000_000) as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out `pollfd` and
    // `timespec` values for the duration of the call, `nfds` is 1 to match
    // the single `pollfd`, and a null signal mask is allowed. The result is
    // ignored: an error or interruption only ends this wait early, and
    // every caller re-checks the clock and the socket.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Ask the kernel to stamp every datagram `fd` receives with its arrival
/// time (`CLOCK_REALTIME`).
pub fn enable_rx_timestamps(fd: c_int) -> io::Result<()> {
    let on: c_int = 1;
    // SAFETY: `on` is a live `int` and the length passed is its size.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_TIMESTAMPNS,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as c_uint,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Receive one datagram without blocking: its length and the kernel's
/// arrival stamp in nanoseconds since the Unix epoch, if it carried one.
/// `Ok(None)` when nothing is waiting.
pub fn recv_stamped(fd: c_int, buf: &mut [u8]) -> io::Result<Option<(usize, Option<u64>)>> {
    // u64 elements keep the control buffer aligned for `cmsghdr`.
    let mut control = [0u64; 8];
    let mut iov = IoVec { base: buf.as_mut_ptr().cast(), len: buf.len() };
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: std::mem::size_of_val(&control),
        flags: 0,
    };
    // SAFETY: `msg` points at one live `iovec` covering `buf` and at the
    // live `control` buffer, with their true lengths; both outlive the
    // call, and a null name with length 0 is allowed.
    let n = unsafe { recvmsg(fd, &mut msg, MSG_DONTWAIT) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::WouldBlock { Ok(None) } else { Err(e) };
    }
    // The kernel writes at most one control message here: the timestamp,
    // a `cmsghdr` followed by a `timespec` at the next 8-byte boundary.
    let stamp = (msg.controllen >= std::mem::size_of::<CmsgHdr>() + 16).then(|| {
        // SAFETY: the kernel filled at least a header and a timespec's
        // worth of the 8-byte-aligned `control` buffer; both reads stay
        // inside it.
        let (hdr, ts) = unsafe {
            let hdr = &*(control.as_ptr().cast::<CmsgHdr>());
            let ts = &*(control.as_ptr().add(2).cast::<Timespec>());
            (hdr, ts)
        };
        (hdr.level == SOL_SOCKET && hdr.kind == SO_TIMESTAMPNS)
            .then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    });
    Ok(Some((n as usize, stamp.flatten())))
}
