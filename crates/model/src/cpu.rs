//! Runtime CPU feature check shared by every explicit-SIMD body in this
//! crate: detected once per process, then a load from a `OnceLock`.

use std::sync::OnceLock;

/// AVX-512 subsets the SIMD bodies need, as detected on this CPU.
#[derive(Clone, Copy)]
struct Avx512 {
    /// Foundation: 64-bit mask compares, masked add/sub/min/max.
    f: bool,
    /// F plus DQ, for the `vpmovm2q` mask-to-vector expansion.
    f_dq: bool,
}

fn detect() -> Avx512 {
    static CPU: OnceLock<Avx512> = OnceLock::new();
    *CPU.get_or_init(|| {
        let f = std::arch::is_x86_feature_detected!("avx512f");
        Avx512 {
            f,
            f_dq: f && std::arch::is_x86_feature_detected!("avx512dq"),
        }
    })
}

/// True when the CPU has AVX-512F.
#[inline]
pub(crate) fn avx512f() -> bool {
    detect().f
}

/// True when the CPU has AVX-512F and AVX-512DQ.
#[inline]
pub(crate) fn avx512f_dq() -> bool {
    detect().f_dq
}
