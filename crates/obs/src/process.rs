//! What the operating system says this process holds — the measured column
//! beside the analytic `resident_bytes()` accounting.

/// The process's resident set and its high-water mark, `(VmRSS, VmHWM)` in
/// KiB, read from `/proc/self/status`; `None` where that file does not exist
/// or does not carry both fields (any platform but Linux).
///
/// A host measurement: never feed it into anything on a deterministic track.
pub fn process_rss_kib() -> Option<(u64, u64)> {
    parse_status(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_status(status: &str) -> Option<(u64, u64)> {
    let field = |name: &str| {
        let rest = status.lines().find_map(|line| line.strip_prefix(name))?;
        rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_two_fields_and_refuses_anything_else() {
        let status = "Name:\tsti\nVmPeak:\t  9000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t    1234 kB\n";
        assert_eq!(parse_status(status), Some((1234, 4321)));
        assert_eq!(parse_status("Name:\tsti\nVmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_status("VmRSS:\t twelve kB\nVmHWM:\t 1 kB\n"), None);
    }

    #[test]
    fn on_linux_the_peak_bounds_the_current_set() {
        if let Some((rss, hwm)) = process_rss_kib() {
            assert!(rss > 0 && hwm >= rss, "VmRSS {rss} KiB, VmHWM {hwm} KiB");
        }
    }
}
