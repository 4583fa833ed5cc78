//! Fixture: an `HTD_*` read through a named constant, the way a strict
//! accessor spells it.  Outside the strict-parsing modules it fires once, on
//! the read; the `PATH` literal still passes.

const JOBS_VAR: &str = "HTD_JOBS";

pub fn jobs() -> Option<String> {
    let _ = std::env::var_os("PATH");
    std::env::var(JOBS_VAR).ok()
}
