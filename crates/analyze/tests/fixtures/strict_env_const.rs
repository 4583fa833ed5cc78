//! Fixture: an `HTD_*` read through a named constant, the way an accessor
//! spells it.  It fires once in every module, on the read; the `PATH`
//! literal still passes.

const JOBS_VAR: &str = "HTD_JOBS";

pub fn jobs() -> Option<String> {
    let _ = std::env::var_os("PATH");
    std::env::var(JOBS_VAR).ok()
}
