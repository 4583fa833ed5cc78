//! Fixture: a raw `HTD_*` environment read.  The `PATH` read must NOT
//! fire — only the `HTD_` prefix does.

pub fn addr() -> Option<String> {
    let _ = std::env::var("PATH");
    std::env::var("HTD_SERVE_ADDR").ok()
}
