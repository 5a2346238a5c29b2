//! Resource sampling from `/proc/self`: peak resident memory and CPU time.

use std::fs;

/// Peak resident set size (`VmHWM`) of this process, in kB.
pub fn peak_rss_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}

/// User plus system CPU time of this process (all threads), in clock
/// ticks (`utime` + `stime`, fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| -> u64 {
        fields[n - 3]
            .parse()
            .expect("utime and stime are whole tick counts")
    };
    field(14) + field(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_and_monotone() {
        assert!(peak_rss_kb() > 0);
        let before = cpu_ticks();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ticks() >= before, "{x}");
    }
}
