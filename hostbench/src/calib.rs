//! Host-speed calibration.
//!
//! A shared host's speed drifts by a quarter or more over minutes as other
//! tenants come and go, and every host-time figure drifts with it. The
//! benchmark therefore times a fixed CPU-bound dispatch loop — code of this
//! package only, so no change to the measured crates can speed it up or
//! slow it down — after every op and every set-up, and scales host times
//! to a reference host on which the loop takes exactly [`REF_NS`].

use std::sync::OnceLock;
use std::time::Instant;

/// Loop time on the reference host.
pub const REF_NS: f64 = 1e6;

const CODE_LEN: usize = 4096;
const ROUNDS: usize = 50;

fn code() -> &'static [u8] {
    static CODE: OnceLock<Vec<u8>> = OnceLock::new();
    CODE.get_or_init(|| {
        (0..CODE_LEN as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8 % 6)
            .collect()
    })
}

/// Runs the calibration loop once: a small register machine dispatching
/// a fixed op stream, like an interpreter's inner loop. Returns its
/// wall time in nanoseconds.
pub fn chunk_ns() -> u64 {
    let code = std::hint::black_box(code());
    let t = Instant::now();
    let mut acc: u64 = 0x1234;
    let mut regs = [1u64; 8];
    for round in 0..ROUNDS {
        for (pc, &op) in code.iter().enumerate() {
            let r = (pc + round) & 7;
            match op {
                0 => regs[r] = regs[r].wrapping_add(acc),
                1 => acc ^= regs[r].rotate_left(7),
                2 if acc & 1 == 0 => acc = acc.wrapping_mul(3),
                2 => acc >>= 1,
                3 => regs[(r + 1) & 7] = regs[r] ^ acc,
                4 => acc = acc.wrapping_add(regs[r] >> 3),
                _ if regs[r] > acc => regs[r] -= acc,
                _ => acc -= regs[r] >> 1,
            }
        }
    }
    std::hint::black_box((acc, regs));
    t.elapsed().as_nanos() as u64
}
