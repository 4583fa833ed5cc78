//! Loading RTL designs from disk: Verilog sources or the textual netlist
//! format, selected by file extension.

use std::fmt;
use std::path::Path;

use htd_rtl::{netlist, ValidatedDesign};
use htd_trusthub::registry::Benchmark;
use htd_verilog::ElaborateOptions;

use crate::commands::CliError;

/// The recognised input formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputFormat {
    /// Synthesizable-subset Verilog (`.v`, `.sv`, `.vh`).
    Verilog,
    /// The textual netlist format of `htd-rtl`.
    Netlist,
}

impl InputFormat {
    /// Chooses the format from a file extension.
    #[must_use]
    pub fn from_path(path: &Path) -> InputFormat {
        match path
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase)
            .as_deref()
        {
            Some("v" | "sv" | "vh") => InputFormat::Verilog,
            _ => InputFormat::Netlist,
        }
    }
}

impl fmt::Display for InputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputFormat::Verilog => write!(f, "Verilog"),
            InputFormat::Netlist => write!(f, "netlist"),
        }
    }
}

/// Reads and elaborates an RTL input.
///
/// Besides files, the `trusthub:NAME` scheme resolves a bundled Trust-Hub-
/// style benchmark by its Table-I name (case-insensitive, separators
/// ignored: `trusthub:AES-T1400` and `trusthub:aes_t1400` both work), so
/// the service smoke tests and `htd export` need no RTL files on disk.
///
/// # Errors
///
/// Returns a [`CliError`] for I/O problems and for parse or elaboration
/// errors of the selected front-end.
pub fn load_design(path: &Path, top: Option<&str>) -> Result<ValidatedDesign, CliError> {
    if let Some(benchmark) = trusthub_benchmark(path)? {
        return benchmark.build().map_err(|e| CliError::Frontend {
            path: path.to_path_buf(),
            message: e.to_string(),
        });
    }
    let source = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    match InputFormat::from_path(path) {
        InputFormat::Verilog => {
            let options = ElaborateOptions {
                top: top.map(str::to_string),
                ..ElaborateOptions::default()
            };
            htd_verilog::compile_with_options(&source, &options).map_err(|e| CliError::Frontend {
                path: path.to_path_buf(),
                message: e.to_string(),
            })
        }
        InputFormat::Netlist => netlist::parse(&source).map_err(|e| CliError::Frontend {
            path: path.to_path_buf(),
            message: e.to_string(),
        }),
    }
}

/// The bundled benchmark a `trusthub:NAME` input names (`None` for any
/// other input).  Matching is case-insensitive and ignores `-`/`_`.
///
/// # Errors
///
/// Returns [`CliError::Frontend`] when `NAME` is no bundled benchmark.
pub fn trusthub_benchmark(path: &Path) -> Result<Option<Benchmark>, CliError> {
    match path.to_str().and_then(|s| s.strip_prefix("trusthub:")) {
        Some(name) => find_benchmark(path, name).map(Some),
        None => Ok(None),
    }
}

fn find_benchmark(path: &Path, name: &str) -> Result<Benchmark, CliError> {
    fn canon(s: &str) -> String {
        s.chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect()
    }
    let wanted = canon(name);
    Benchmark::all()
        .into_iter()
        .find(|b| canon(b.info().name) == wanted)
        .ok_or_else(|| CliError::Frontend {
            path: path.to_path_buf(),
            message: format!(
                "unknown benchmark `{name}`; known benchmarks: {}",
                Benchmark::all()
                    .iter()
                    .map(|b| b.info().name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn formats_are_selected_by_extension() {
        assert_eq!(
            InputFormat::from_path(Path::new("a.v")),
            InputFormat::Verilog
        );
        assert_eq!(
            InputFormat::from_path(Path::new("a.SV")),
            InputFormat::Verilog
        );
        assert_eq!(
            InputFormat::from_path(Path::new("a.netlist")),
            InputFormat::Netlist
        );
        assert_eq!(InputFormat::from_path(Path::new("a")), InputFormat::Netlist);
        assert_eq!(InputFormat::Verilog.to_string(), "Verilog");
    }

    #[test]
    fn missing_files_produce_an_io_error() {
        let err = load_design(Path::new("/nonexistent/definitely_missing.v"), None).unwrap_err();
        match err {
            CliError::Io { path, .. } => {
                assert_eq!(path, PathBuf::from("/nonexistent/definitely_missing.v"));
            }
            other => panic!("expected an I/O error, got {other}"),
        }
    }

    #[test]
    fn verilog_and_netlist_sources_both_load() {
        let dir = std::env::temp_dir();
        let v_path = dir.join("htd_cli_test_adder.v");
        std::fs::write(
            &v_path,
            "module adder(input clk, input [3:0] a, b, output [3:0] s);
               reg [3:0] sum;
               always @(posedge clk) sum <= a + b;
               assign s = sum;
             endmodule",
        )
        .unwrap();
        let design = load_design(&v_path, None).unwrap();
        assert_eq!(design.design().name(), "adder");

        let netlist_path = dir.join("htd_cli_test_adder.netlist");
        std::fs::write(&netlist_path, htd_rtl::netlist::dump(&design)).unwrap();
        let reloaded = load_design(&netlist_path, None).unwrap();
        assert_eq!(
            reloaded.design().registers().len(),
            design.design().registers().len()
        );

        std::fs::remove_file(v_path).ok();
        std::fs::remove_file(netlist_path).ok();
    }

    #[test]
    fn trusthub_scheme_resolves_benchmarks_by_name() {
        let design = load_design(Path::new("trusthub:rs232_ht_free"), None).unwrap();
        assert!(design.design().name().starts_with("rs232"));

        let same = load_design(Path::new("trusthub:RS232 (HT-free)"), None).unwrap();
        assert_eq!(same.design().name(), design.design().name());

        let err = load_design(Path::new("trusthub:no_such_core"), None).unwrap_err();
        match err {
            CliError::Frontend { message, .. } => {
                assert!(message.contains("unknown benchmark"), "{message}");
                assert!(message.contains("AES-T100"), "{message}");
            }
            other => panic!("expected a front-end error, got {other}"),
        }
    }

    #[test]
    fn frontend_errors_are_reported_with_the_path() {
        let dir = std::env::temp_dir();
        let path = dir.join("htd_cli_test_broken.v");
        std::fs::write(&path, "module broken(; endmodule").unwrap();
        let err = load_design(&path, None).unwrap_err();
        assert!(matches!(err, CliError::Frontend { .. }));
        assert!(err.to_string().contains("htd_cli_test_broken.v"));
        std::fs::remove_file(path).ok();
    }
}
