#!/usr/bin/env bash
# Tier-1 gate: everything must build, pass tests, and be lint-clean.
set -euo pipefail
cd "$(dirname "$0")"

# Std-only gate: every package in the resolved graph must be a workspace
# path crate (a null `source`), so one offline `cargo build` with an empty
# registry is the whole install. A registry or git dependency fails here.
foreign="$(cargo metadata --offline --format-version 1 | grep -o '"source":"[^"]*"' || true)"
if [ -n "$foreign" ]; then
  echo "tier1: cargo metadata lists non-path packages:" >&2
  echo "$foreign" | sort -u >&2
  exit 1
fi

cargo build --release
cargo test -q
# Core gate: the root package's tests do not run gptune-core's own unit
# and integration tests (driver golden digests, resume at every prefix,
# TLA checkpoint/resume, session restore, censoring).
cargo test -q -p gptune-core
# Sparse and apps gates: nor does it run gptune-sparse's tests (the fast
# minimum-degree and RCM orderings must return exactly the permutations of
# their test-only reference forms) or gptune-apps' (simulators and the
# golden digest of the SuperLU symbolic fill table).
cargo test -q --release -p gptune-sparse
# Db gate: nor does it run gptune-db's own tests (journal recovery, locks,
# shards, v2) or its codec equivalence suite: checkpoint documents, journal
# lines and dedup keys byte-identical to test-only tree oracles, plus a
# seeded differential fuzz of the in-place checkpoint decoder (release mode
# for the fuzz count); its read-path suite (kind-filtered reads and keyless
# dedup against a string-key oracle, CRC-32 against a bitwise reference);
# and a seeded mutation fuzz of the v2 shard reader.
cargo test -q --release -p gptune-db
# Benchmark self-test: perfbench is its own workspace, so the root tests
# never build it. Its tiny-size run checks the benchmark's outputs against
# gptune-db and gptune-sparse, so a db change that breaks them fails here.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q -p gptune-apps
# Chaos gate: MLA under injected crashes/hangs/transients must complete,
# resume deterministically, and skip journaled crashers.
cargo test -q --test chaos
# Protocol chaos gate: a real client through the deterministic fault proxy
# (resets, torn/oversized frames, duplicates, delays) plus the server
# kill-restart and eviction drills must lose zero reports and leave a
# bit-identical history -- see tests/serve_chaos.rs.
cargo test -q --test serve_chaos
# Hot-path equivalence smoke in release mode: the distance-cached NLL,
# W ∘ K gradients, and batched prediction must match their retained
# pre-refactor references to ≤ 1e-12 under the optimizer's reassociations.
cargo test -q --release -p gptune-gp --test equivalence
# Incremental-LCM equivalence smoke in release mode: 64 sequential rank-1
# extensions must match a from-scratch rebuild to ≤ 1e-10, downdate∘update
# must round-trip the factor, and the capped (subset-of-data) posterior
# must stay within its fixed tolerance -- see crates/gp/tests/incremental.rs.
cargo test -q --release -p gptune-gp --test incremental
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Domain-specific lint suite (NaN-safety, panic tiers, lock discipline,
# determinism, unsafe hygiene, observability) plus the GX7xx workspace
# concurrency tier (lock-order graph, interprocedural blocking summaries)
# -- see DESIGN.md "Static-analysis policy" and section 6. -D semantics:
# any finding fails the gate. The full sweep must stay interactive
# (< 10s wall) so it never gets skipped locally; the binary is built
# above by `cargo build --release`, so this times the lint itself.
lint_start="$(date +%s%N)"
cargo run -q --release -p gptune-xtask -- lint
lint_ms="$(( ($(date +%s%N) - lint_start) / 1000000 ))"
echo "gptune-xtask lint wall time: ${lint_ms}ms"
if [ "$lint_ms" -ge 10000 ]; then
  echo "gptune-xtask lint took ${lint_ms}ms (>= 10s budget)" >&2
  exit 1
fi
# Trace smoke gate: a tiny traced MLA must export a JSONL trace that
# trace_tool summarizes cleanly, with at least one modeling span per
# iteration (5 iterations at budget 10 on 2 tasks).
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q --release --example trace_tool -- demo "$trace_dir/trace.jsonl"
cargo run -q --release --example trace_tool -- summarize "$trace_dir/trace.jsonl" \
  --chrome "$trace_dir/trace_chrome.json"
modeling_spans="$(grep -c '"name":"gptune.core.modeling"' "$trace_dir/trace.jsonl" || true)"
if [ "$modeling_spans" -lt 5 ]; then
  echo "trace smoke: expected >= 1 modeling span per iteration (5), got $modeling_spans" >&2
  exit 1
fi
# Serve smoke gate: a scaled-down serve_bench burst (32 concurrent
# sessions over 8 client connections) plus the kill-the-server WAL-replay,
# archive kill-restart, and eviction drills. The binary exits non-zero on
# any request error, missing latency histogram, lost report, history
# divergence, or cap breach, so a bare run is the assertion.
cargo run -q --release -p gptune-bench --bin serve_bench -- "$trace_dir/BENCH_serve_smoke.json" --smoke
# Both durability sections (WAL kill drill and archive kill-restart)
# report a lost_reports field; every one of them must be exactly 0.
while read -r lost; do
  if [ "$lost" != "0" ]; then
    echo "serve smoke: a durability drill lost $lost report(s)" >&2
    exit 1
  fi
done < <(grep -o '"lost_reports": [0-9-]*' "$trace_dir/BENCH_serve_smoke.json" | grep -o '[0-9-]*$')
if ! grep -q '"bit_identical": true' "$trace_dir/BENCH_serve_smoke.json"; then
  echo "serve smoke: post-recovery history diverged from the clean run" >&2
  exit 1
fi
# Observability smoke gate: obs_tool --smoke stands up a real server,
# drives a WAL-backed burst, scrapes the live `metrics` endpoint (exit 2
# if the dashboard would render zero traffic), and dumps both sides'
# JSONL traces; trace_tool correlate must then link every acknowledged
# client rpc to its server-side spans by request id.
cargo run -q --release --example obs_tool -- --smoke "$trace_dir/obs"
correlate_out="$(cargo run -q --release --example trace_tool -- correlate \
  "$trace_dir/obs/client.jsonl" "$trace_dir/obs/server.jsonl")"
echo "$correlate_out" | tail -n 1
if ! echo "$correlate_out" | grep -q '(100.0% of acked)'; then
  echo "obs smoke: correlate did not link 100% of acked requests" >&2
  exit 1
fi
if echo "$correlate_out" | grep -q ' 0 acked'; then
  echo "obs smoke: no acknowledged requests in the client dump" >&2
  exit 1
fi
