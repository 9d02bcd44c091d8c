//! `poll(2)`, which std does not bind: the one `unsafe` block in the
//! workspace's sources. A socket rank sleeps here on its links and bells.

use std::ffi::{c_int, c_ulong};
use std::os::fd::RawFd;
use std::time::Duration;

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Sleep until one of `fds` is ready or `timeout` (rounded up to whole
/// milliseconds; `None` waits for ever) has passed. A signal ends it early.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ms = timeout.map_or(-1, |t| {
        t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
    });
    // SAFETY: `fds` is an exclusively borrowed, initialised array of
    // `fds.len()` `pollfd`s that outlives the call, and `poll` writes only
    // their `revents` fields. An error leaves every `revents` as it was.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
}
