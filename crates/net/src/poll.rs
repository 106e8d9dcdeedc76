//! Readiness waiting over a set of sockets: the crate's one foreign call,
//! `poll(2)`, behind a safe slice-based wrapper.

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `nfds_t` of the platform's C library.
#[cfg(target_os = "linux")]
type NFds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::os::raw::c_uint;

/// Data may be read without blocking.
pub(crate) const POLLIN: c_short = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// One entry of the set handed to `poll(2)`: C's `struct pollfd`.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `events` on `sock`.
    pub(crate) fn new(sock: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: sock.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// An entry `poll` skips: it never becomes ready.
    pub(crate) fn idle() -> Self {
        PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] found one of the awaited events, or an
    /// error, hang-up or bad descriptor — either way the next read or write
    /// will not block and will report what happened.
    pub(crate) fn ready(&self) -> bool {
        self.revents & (self.events | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (rounded up
/// to whole milliseconds). Returns the number of ready entries, 0 on
/// timeout; an interrupted wait is reported as 0 ready entries.
///
/// # Errors
///
/// The OS error of a failed `poll(2)` call.
#[allow(unsafe_code)]
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    let nfds = NFds::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
    // SAFETY: `fds` is an exclusively borrowed, initialised slice of
    // `#[repr(C)]` values laid out as C's `struct pollfd`, and `nfds` is its
    // length, so the kernel reads and writes (only the `revents` fields)
    // inside memory this call owns for its duration. Descriptors that are
    // negative are skipped by `poll`, and a closed or foreign one yields
    // `POLLNVAL`, not undefined behaviour.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        return match err.kind() {
            io::ErrorKind::Interrupted => Ok(0),
            _ => Err(err),
        };
    }
    Ok(ready as usize)
}
