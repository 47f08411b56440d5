//! A cache-line prefetch hint for the collector's batch-ahead walk.
//!
//! [`prefetch`] asks the CPU to start loading the line that holds
//! `item` into every cache level and returns at once; the load then
//! overlaps whatever the caller does next. It reads nothing the caller
//! can observe and changes no state, so dropping every call leaves the
//! collector's output bit-identical (and off `x86_64` it is a no-op).
//!
//! This is the one module in `vpm-core` allowed to use `unsafe`, for
//! the single `_mm_prefetch` call (see the `SAFETY` comment); the rest
//! of the crate remains `deny(unsafe_code)`.
#![allow(unsafe_code)]

/// Hint that `item` will be read soon.
#[inline(always)]
pub(crate) fn prefetch<T>(item: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` needs SSE, which is part of the
        // x86_64 baseline, so every CPU this arm compiles for has it.
        // A prefetch is a hint: it never faults and never reads into
        // anything the program sees, and the pointer comes from a live
        // reference anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = item;
}
