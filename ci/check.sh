#!/usr/bin/env sh
# CI gate: formatting, lints (warnings are errors), build, full test suite.
# Run from the repository root. Offline by design — every dependency is a
# workspace path crate (see compat/README.md).
set -eu

cargo fmt --check
# Unsafe audit. The x86-64 tap-pair module in tfe-sim's
# engine/kernels.rs, which holds both kernels' explicit `pmaddwd` forms
# and their 512-bit `vpdpwssd` forms (the row kernel's position blocks
# and the filter-vector pass's filter blocks), is the workspace's one
# unsafe code: the only
# `allow(unsafe_code)`, and the only `unsafe` blocks, functions or impls
# in any source file. tfe-sim denies unsafe code everywhere else and
# denies `unsafe_op_in_unsafe_fn`, `clippy::undocumented_unsafe_blocks`
# and `clippy::multiple_unsafe_ops_per_block` (enforced by the clippy
# line below); every other crate under crates/ forbids unsafe code.
allows=$(grep -rEn --include='*.rs' '(allow|expect)\([^)]*unsafe_code' crates compat src tests examples || true)
if [ "$(printf '%s\n' "$allows" | grep -c 'crates/sim/src/engine/kernels.rs:')" -ne 1 ] ||
    [ "$(printf '%s\n' "$allows" | grep -c .)" -ne 1 ]; then
    printf 'unsafe audit: expected one allow(unsafe_code), in crates/sim/src/engine/kernels.rs:\n%s\n' "$allows"
    exit 1
fi
unsafe_sites=$(grep -rElw --include='*.rs' 'unsafe[[:space:]]*(\{|fn|impl|trait|extern)' crates compat src tests examples |
    grep -vx 'crates/sim/src/engine/kernels.rs' || true)
if [ -n "$unsafe_sites" ]; then
    printf 'unsafe audit: unsafe code outside the tap-pair module (row and filter-vector kernels):\n%s\n' "$unsafe_sites"
    exit 1
fi
for lib in crates/*/src/lib.rs; do
    case "$lib" in
    crates/sim/*) grep -q '^#!\[deny(unsafe_code)\]' "$lib" && grep -q 'clippy::undocumented_unsafe_blocks' "$lib" ;;
    *) grep -q '^#!\[forbid(unsafe_code)\]' "$lib" ;;
    esac || {
        echo "unsafe audit: $lib lost its unsafe_code lint"
        exit 1
    }
done
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline
cargo build --release --offline --examples
# The tap-pair kernel detects its widest blocks at run time: 16 lanes
# with AVX2, 32 (fused `vpdpwssd`) with AVX-512BW and AVX-512 VNNI. The
# kernel suites run every width the host has and report each one they
# skip, so print what it reports before any test line: the log then
# shows whether the fused 512-bit blocks ran.
features=$(grep -o -w 'avx2\|avx512bw\|avx512_vnni' /proc/cpuinfo 2>/dev/null | sort -u | tr '\n' ' ' || true)
echo "host x86 features (of avx2, avx512bw, avx512_vnni): ${features:-none reported}"
# --workspace: the workspace has no default-members, so a bare
# `cargo test` would run only the root package and skip every crate's
# in-crate tests (the engine's kernel and row-sweep proptests, the ERRR
# ring, the serving and fleet crates, the telemetry seqlock ring).
cargo test -q --offline --workspace
# Every benchmark number comes from release builds, where overflow checks
# and debug_assert!s are off: run tfe-sim's lib tests and the engine
# parity suites in that profile too, so code that behaves differently
# there cannot pass only in the test profile. The counter and end-to-end
# suites join them because the filter-vector sweep charges its own
# counters, and the telemetry suite because its per-layer sums are
# exact over every ring read and write of the transferred executor.
cargo test -q --release --offline -p tfe-sim --lib
cargo test -q --release --offline --test kernel_parity --test batched_parity --test mode_parity --test geometry_parity --test parallel_parity --test engine_counters --test end_to_end_functional --test telemetry
# The serving stack's integration tests exercise threads, sockets, and
# shutdown paths — run them explicitly so a filtered test invocation can
# never silently skip them. fleet_smoke adds the multi-model tier on
# top: routed dispatch bit-identity, typed unknown-model rejection,
# zero-drop hot-swap, and exact merged-telemetry accounting.
cargo test -q --offline --test serve_smoke
cargo test -q --offline --test fleet_smoke
# The generalized-geometry grid (stride x dilation x groups x scheme)
# pins engine-vs-reference bit-identity and counter exactness on
# depthwise, grouped, and dilated stages — run the target explicitly so
# geometry regressions cannot hide behind a filtered invocation.
cargo test -q --offline --test geometry_parity
# The execution-mode grid pins the alternate dense executor — the
# compressed-sparse tap pass, which compile picks per stage and records
# in the stage's units — bit-identical to the dense sweeps (activations,
# per-image counter streams, per-layer telemetry sums) across scheme x
# stride x dilation x channel groups x filter count x batch x workers;
# its 32- and 40-filter cells force the sparse pass on stages the
# filter-vector sweep would otherwise take.
cargo test -q --offline --test mode_parity
# The telemetry crate's seqlock ring and exact-decomposition invariants
# are load-bearing for every observability surface — build the crate
# explicitly (its tests, concurrent writers included, run in the
# workspace test line above).
cargo build --release --offline -p tfe-telemetry
cargo test -q --offline --test telemetry
# The benchmark (perfbench/) is a workspace of its own, so nothing above
# compiles it: build and test it explicitly, so a change to an API it
# calls or to its crates' dependency set fails here rather than only
# when the benchmark runs. --locked: its Cargo.lock must stay as is.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml
# Compile every bench target (including telemetry_overhead, which pins
# the enabled-sink cost at < 3 %) so bench code cannot rot between
# releases.
cargo bench --offline --no-run
# Rustdoc is part of the public surface: broken intra-doc links or
# malformed docs fail the gate just like clippy warnings do.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# The engine's executors, row kernel and row sweep are crate-private, so
# the line above never renders their docs: check tfe-sim's private items
# too.
RUSTDOCFLAGS="-D warnings" cargo doc -p tfe-sim --no-deps --offline --document-private-items
# BENCH=1 additionally runs the timing acceptance benches — the
# compile/run-split steady-state speedup (pinned >= 2x on the
# compile-bound cell), the filter-stationary batched sweep (pinned
# >= 1.3x images/sec at batch 8 on the dense cells, >= 0.97x at batch 1,
# bit-identity asserted first), the channel-stacked row kernel (pinned
# >= 1.25x over the frozen scalar reference), the telemetry-sink
# overhead pin, the fleet router-dispatch overhead (pinned < 3 % vs
# single-model serving), and run_batch's image-chunk scaling
# (sim_throughput's batch_vgg_prefix: median and quartile ms per round at
# 1/2/4/8 threads, unpinned). engine_speedup now carries a depthwise-separable
# cell and engine_batch a dilated cell, so the generalized-geometry paths
# are in the timed sweep too. engine_modes times the compressed-sparse
# executor against the dense sweep on the same network (bit-identity
# asserted before timing) — pinned >= 1.2x at 90 % sparsity, a pin that
# fails on x86-64 against the filter-vector sweep (ROADMAP item 3); the
# 50-99 % cells are recorded unpinned to chart the crossover. It checks
# the pins only after every cell has run and its cells are written, so
# a failing pin still prints p93-p99 and updates the trajectory before
# the bench, and with it this script, exits non-zero. engine_speedup,
# engine_batch, engine_modes, ppsr_row, and fleet_router write their
# min-of-reps cells into BENCH_13.json at the repo root (the persistent
# perf trajectory; see README "Perf trajectory"), printed below so the
# numbers land in the check output.
if [ "${BENCH:-0}" = "1" ]; then
    cargo bench --offline -p tfe-bench --bench engine_speedup
    cargo bench --offline -p tfe-bench --bench engine_batch
    cargo bench --offline -p tfe-bench --bench engine_modes
    cargo bench --offline -p tfe-bench --bench ppsr_row
    cargo bench --offline -p tfe-bench --bench telemetry_overhead
    cargo bench --offline -p tfe-bench --bench fleet_router
    cargo bench --offline -p tfe-bench --bench sim_throughput
    echo "--- BENCH_13.json (perf trajectory) ---"
    cat BENCH_13.json
fi
