//! Per-thread CPU clock.
//!
//! The simulator runs p PE threads on however many host cores exist; when
//! p exceeds the core count, wall-clock measurements of "compute" inflate
//! by the oversubscription factor and would corrupt the scaling curves.
//! `CLOCK_THREAD_CPUTIME_ID` counts only the nanoseconds this thread
//! actually spent on a CPU, making the modeled-time compute term
//! oversubscription-immune.
//!
//! `std` exposes no thread CPU clock and `libc` is outside the approved
//! dependency set, so on Linux/x86-64 we issue the `clock_gettime`
//! syscall directly; elsewhere we fall back to a monotonic wall clock
//! (correct results, noisier timings).

/// Nanoseconds of CPU time consumed by the calling thread.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn thread_cpu_ns() -> u64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret != 0 {
        return fallback_ns();
    }
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

/// Fallback for other platforms: monotonic wall time (documented
/// limitation: compute measurements include scheduling delays there).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn thread_cpu_ns() -> u64 {
    fallback_ns()
}

fn fallback_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn monotone_and_advancing_under_load() {
        // Many kernels (and most sandboxes) quantize the thread CPU clock
        // to scheduler ticks (10ms), so spin until it visibly advances.
        let a = thread_cpu_ns();
        let t = Instant::now();
        let mut x = 0u64;
        loop {
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            if thread_cpu_ns() > a || t.elapsed() > Duration::from_secs(2) {
                break;
            }
        }
        std::hint::black_box(x);
        let b = thread_cpu_ns();
        assert!(b > a, "CPU clock never advanced: {a} -> {b}");
    }

    #[test]
    fn sleep_consumes_little_cpu() {
        let a = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(50));
        let b = thread_cpu_ns();
        // Sleeping must cost (almost) no CPU on the real clock — allow one
        // scheduler tick of slop; the fallback clock is exempt.
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(b - a <= 20_000_000, "sleep consumed {}ns CPU", b - a);
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        let _ = (a, b);
    }

    #[test]
    fn threads_have_independent_clocks() {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            // A fresh thread's CPU clock starts near zero, independent of
            // how much this thread has burned.
            let here = thread_cpu_ns();
            let there = std::thread::spawn(thread_cpu_ns).join().expect("join");
            assert!(
                there <= here.max(20_000_000),
                "fresh thread {there} vs busy thread {here}"
            );
        }
    }
}
