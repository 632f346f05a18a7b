//! Traced run (`--trace 1`): the same program with a counting allocator.

use tsj_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() -> std::process::ExitCode {
    tsj_perfbench::main_with(Some(&ALLOC))
}
