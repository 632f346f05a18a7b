//! End-to-end run (`--trace 0`); see the library docs.

fn main() -> std::process::ExitCode {
    tsj_perfbench::main_with(None)
}
