//! The two things the benchmark needs from the operating system that
//! `std` does not offer: CPU affinity and a thread's CPU time.
//!
//! **One CPU.** The cluster is four node threads, a driver and at most one reader. On
//! the 2-vCPU shared host the numbers are taken on, letting them spread
//! over both vCPUs bought no throughput and most of the noise: `backlog`
//! rounds of one seed read 193–286 updates/s unpinned and 244–258 pinned,
//! alternating, same minutes (README, "Why one CPU"). Cross-vCPU wake-ups
//! under a hypervisor measure the host's scheduler, not the program. So
//! every workload runs with all its threads on one CPU: the times are the
//! program's total work plus its hand-offs, and a parallel speed-up is
//! invisible here by construction.
//!
//! **CPU time.** With every thread on one CPU, a span's wall time also
//! holds the time its thread stood preempted while another ran (the two
//! legs of a sweep go to two sources at once, which then take turns). The
//! tracer therefore times spans on the thread's CPU clock as well, and the
//! per-layer durations, self times and busy shares are CPU time.

/// Restrict this thread — and every thread it starts afterwards, which
/// inherit the mask — to the last CPU it is currently allowed on. Returns
/// that CPU's number.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // `std` links the C library on Linux; these are its declarations of
    // the two calls (`cpu_set_t` is 1024 bits).
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the call
    // only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}

/// Other systems have no such call in `std`; the run goes on unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("no CPU pinning on this system".into())
}

/// CPU time this thread has used so far (ns), or `None` where the clock
/// is not available.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the call
    // expects on this target, and the call keeps no pointer to it.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return None;
    }
    Some(ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// No thread CPU clock in `std`; the tracer falls back to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    /// The thread CPU clock advances with work and stands still in sleep.
    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let cpu = || super::thread_cpu_ns().expect("Linux has the clock");
        let a = cpu();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let b = cpu();
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(10) {
            std::hint::spin_loop();
        }
        let c = cpu();
        assert!(b - a < 5_000_000, "sleep cost {} ns of CPU", b - a);
        assert!(c - b > 5_000_000, "10 ms of spinning cost {} ns", c - b);
    }

    /// After pinning, the thread (and one it spawns) is allowed on exactly
    /// the CPU that was reported.
    #[test]
    fn pins_this_thread_and_its_children_to_the_reported_cpu() {
        let allowed = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
                .expect("Cpus_allowed_list")
        };
        // On a thread of its own: the other tests keep their CPUs.
        std::thread::spawn(move || {
            let cpu = super::pin_to_one_cpu().expect("pinning works on Linux");
            assert_eq!(allowed(), cpu.to_string());
            let child = std::thread::spawn(allowed).join().expect("child thread");
            assert_eq!(child, cpu.to_string());
        })
        .join()
        .expect("pinned thread");
    }
}
