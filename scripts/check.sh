#!/usr/bin/env bash
# Single pre-PR gate for the ballfit workspace:
#
#   1. cargo fmt --check        formatting
#   2. cargo clippy -D warnings style lints ([workspace.lints] deny set)
#                               plus the bans of clippy.toml
#                               (disallowed-types/-methods): HashMap,
#                               HashSet and RandomState everywhere;
#                               wall-clock now() everywhere but
#                               crates/bench; raw threading (locks,
#                               atomics, channels, std::thread)
#                               everywhere but crates/par and
#                               crates/bench, which carry their own
#                               clippy.toml; then cargo doc with
#                               RUSTDOCFLAGS="-D warnings", so a
#                               dangling or redundant intra-doc link
#                               fails
#   3. ballfit-lint             the token-level passes that need `impl
#                               Protocol` scope (locality / panic-safety,
#                               and the seven *-scope rows of one rule
#                               table) plus float-safety, the
#                               interprocedural determinism-taint /
#                               panic-reachability / transitive-locality
#                               passes and the stale-allow audit
#                               (crates/lint). The step
#                               also emits the machine-readable report
#                               twice (must be byte-identical), validates
#                               it by parsing it with ballfit-json
#                               (a bench bin's --validate), and diffs
#                               fingerprints and meta against
#                               the committed results/lint_baseline.json.
#                               After a deliberate lint change, regenerate
#                               the baseline and commit it:
#                                 cargo run -p ballfit-lint -- \
#                                     --json results/lint_baseline.json
#   4. cargo test               tier-1 test suite, run with
#                               BALLFIT_THREADS=2 so the deterministic
#                               pool's parallel path is exercised
#   5. robustness_sweep --smoke fault-injection sweep emits valid JSON
#                               (validated in-process via --validate)
#   6. churn_sweep --smoke      incremental-vs-full churn sweep emits
#                               valid JSON (exactness asserted per event)
#   7. cost_profile --smoke     traced cost profile emits valid JSON and a
#                               valid JSONL trace (--validate reads a
#                               .jsonl path line by line); a second run
#                               plus trace_diff pins the trace
#                               byte-identical
#   8. chaos_sweep --smoke      combined fault+churn chaos sweep emits
#                               valid JSON (adaptive recovery exercised;
#                               outcomes graded by the watchdog)
#   9. ballfit-serve replay     a canned JSONL request log piped through
#                               the daemon twice (different worker
#                               counts) must produce byte-identical,
#                               JSONL-valid response logs; the log's
#                               scene with no surface nodes must answer
#                               bad-scene and its zero-degree scene
#                               bad-request, and so must its three
#                               refused injects (lines 11-13: one on a
#                               ground-truth tenant, one with crash_down
#                               65, one with crash_up below crash_down);
#                               the daemon must keep serving (a panic
#                               exits non-zero; the JSONL check is
#                               serve_load --validate on the .jsonl
#                               log); then serve_load --smoke emits
#                               valid JSON
#  10. scale_ladder --smoke     CSR scaling ladder (small rungs, one
#                               subprocess per rung) emits valid JSON;
#                               two --deterministic runs must be
#                               byte-identical
#  11. backend_matrix --smoke   E22 cross-backend matrix at 1 and 4
#                               threads: valid JSON, byte-identical
#  12. perfbench digest pins    one 1 s run of each benchmark workload
#                               (perfbench/, needs python3; builds
#                               offline with rustc), untraced and traced
#                               (--trace 1, whose op rebuilds detect_view,
#                               build_group_view and serve_jsonl from pub
#                               calls); every op's output digest must
#                               equal the pinned reference and pass the
#                               E20/E21 cross-checks, i.e. each result
#                               line reads "correct": true, "failed": 0;
#                               and the untraced scale-1e5 run's
#                               peak_rss_mb must stay at or under 40 MB
#                               (~27 MB since step V searches apex pairs;
#                               a per-apex n-entry hop cache read 66 MB)
#  13. committed artifacts      full runs regenerate the committed
#                               results/ files and each must cmp equal:
#                               robustness_sweep, chaos_sweep,
#                               cost_profile and backend_matrix JSON;
#                               serve_load JSON pinned to one CPU with
#                               taskset (the file records
#                               available_parallelism; a missing taskset
#                               fails the gate); protocol_audit's stdout
#                               (E12's table, the only committed record
#                               of its perfect-radio message counts)
#                               against results/logs/protocol_audit.log;
#                               the --smoke --trace JSONL of chaos_sweep,
#                               robustness_sweep and cost_profile against
#                               results/logs/*_smoke_trace.jsonl (pins
#                               the simulator's per-round records across
#                               commits, not only across two runs);
#                               and every results/*.csv and
#                               results/*.svg from the E1-E13 bins.
#                               Other console logs are not compared.
#  14. ubf_scaling --smoke      E17 thread ladder with known coordinates
#                               and with paper(10, 7) local-MDS frames
#                               in lane groups: every run byte-identical
#                               to one thread, batched frames bit-equal
#                               to one-node frames; emits valid JSON
#
# The workspace has no registry dependencies: every gate runs under plain
# cargo, offline.
#
# Usage: scripts/check.sh
#   Every gate always runs: clippy (gate 2) carries the determinism and
#   threading bans, so no mode may skip it.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo
    echo "==> $*"
}

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings, clippy.toml bans) and rustdoc (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

step "ballfit-lint (invariant analyzer + report + drift gate)"
cargo run -q -p ballfit-lint -- --json "$SMOKE_DIR/lint_a.json"
cargo run -q --release -p ballfit-bench --bin robustness_sweep -- --validate "$SMOKE_DIR/lint_a.json"
cargo run -q -p ballfit-lint -- --json "$SMOKE_DIR/lint_b.json"
cmp "$SMOKE_DIR/lint_a.json" "$SMOKE_DIR/lint_b.json"
cargo run -q -p ballfit-lint -- --diff results/lint_baseline.json

step "cargo test (BALLFIT_THREADS=2)"
BALLFIT_THREADS=2 cargo test -q --workspace

step "robustness_sweep --smoke (fault-injection degradation sweep)"
BALLFIT_RESULTS="$SMOKE_DIR" cargo run -q --release -p ballfit-bench --bin robustness_sweep -- --smoke
cargo run -q --release -p ballfit-bench --bin robustness_sweep -- --validate "$SMOKE_DIR/robustness_sweep.json"

step "churn_sweep --smoke (incremental boundary maintenance sweep)"
BALLFIT_RESULTS="$SMOKE_DIR" cargo run -q --release -p ballfit-bench --bin churn_sweep -- --smoke
cargo run -q --release -p ballfit-bench --bin churn_sweep -- --validate "$SMOKE_DIR/churn_sweep.json"

step "cost_profile --smoke (traced cost profile + trace determinism)"
BALLFIT_RESULTS="$SMOKE_DIR" cargo run -q --release -p ballfit-bench --bin cost_profile -- --smoke --trace "$SMOKE_DIR/cost_profile_a.jsonl"
cargo run -q --release -p ballfit-bench --bin cost_profile -- --validate "$SMOKE_DIR/cost_profile.json"
cargo run -q --release -p ballfit-bench --bin cost_profile -- --validate "$SMOKE_DIR/cost_profile_a.jsonl"
BALLFIT_RESULTS="$SMOKE_DIR" cargo run -q --release -p ballfit-bench --bin cost_profile -- --smoke --trace "$SMOKE_DIR/cost_profile_b.jsonl"
cargo run -q --release -p ballfit-obs --bin trace_diff -- "$SMOKE_DIR/cost_profile_a.jsonl" "$SMOKE_DIR/cost_profile_b.jsonl"

step "chaos_sweep --smoke (faults under churn: adaptive recovery sweep)"
BALLFIT_RESULTS="$SMOKE_DIR" cargo run -q --release -p ballfit-bench --bin chaos_sweep -- --smoke
cargo run -q --release -p ballfit-bench --bin chaos_sweep -- --validate "$SMOKE_DIR/chaos_sweep.json"

step "ballfit-serve (wire replay determinism + serve_load --smoke)"
cat > "$SMOKE_DIR/serve_requests.jsonl" <<'EOF'
{"op":"create","id":"a","scene":{"scenario":"sphere","surface":80,"interior":120,"degree":13,"seed":7},"config":{"error":0}}
{"op":"create","id":"b","scene":{"scenario":"sphere","surface":0,"interior":120,"degree":13,"seed":7}}
{"op":"create","id":"c","scene":{"scenario":"sphere","surface":80,"interior":120,"degree":0,"seed":7}}
{"op":"events","id":"a","events":[{"kind":"join","position":[0.1,0.2,0.3]},{"kind":"leave","node":5}]}
{"op":"query","id":"a","what":"boundary"}
{"op":"query","id":"a","what":"stats"}
{"op":"inject","id":"a","faults":{"loss":0.1,"crash_fraction":0.05,"seed":3}}
{"op":"checkpoint","id":"a"}
{"op":"query","id":"nope","what":"boundary"}
{"op":"create","id":"g","scene":{"scenario":"sphere","surface":80,"interior":120,"degree":13,"seed":7}}
{"op":"inject","id":"g","faults":{}}
{"op":"inject","id":"a","faults":{"crash_down":65}}
{"op":"inject","id":"a","faults":{"crash_down":4,"crash_up":3}}
{"op":"shutdown"}
EOF
cargo run -q --release -p ballfit-serve --bin ballfit-serve -- --threads 1 \
    < "$SMOKE_DIR/serve_requests.jsonl" > "$SMOKE_DIR/serve_responses_a.jsonl"
cargo run -q --release -p ballfit-serve --bin ballfit-serve -- --threads 4 \
    < "$SMOKE_DIR/serve_requests.jsonl" > "$SMOKE_DIR/serve_responses_b.jsonl"
cmp "$SMOKE_DIR/serve_responses_a.jsonl" "$SMOKE_DIR/serve_responses_b.jsonl"
sed -n 2p "$SMOKE_DIR/serve_responses_a.jsonl" | grep -q '^{"err":"bad-scene"'
sed -n 3p "$SMOKE_DIR/serve_responses_a.jsonl" | grep -q '^{"err":"bad-request"'
for line in 11 12 13; do
    sed -n "${line}p" "$SMOKE_DIR/serve_responses_a.jsonl" | grep -q '^{"err":"bad-request"'
done
cargo run -q --release -p ballfit-bench --bin serve_load -- --validate "$SMOKE_DIR/serve_responses_a.jsonl"
BALLFIT_RESULTS="$SMOKE_DIR" cargo run -q --release -p ballfit-bench --bin serve_load -- --smoke
cargo run -q --release -p ballfit-bench --bin serve_load -- --validate "$SMOKE_DIR/serve_load.json"

step "scale_ladder --smoke (CSR scaling ladder + byte reproducibility)"
cargo run -q --release -p ballfit-bench --bin scale_ladder -- --smoke --deterministic --out "$SMOKE_DIR/scale_ladder_a.json"
cargo run -q --release -p ballfit-bench --bin scale_ladder -- --validate "$SMOKE_DIR/scale_ladder_a.json"
cargo run -q --release -p ballfit-bench --bin scale_ladder -- --smoke --deterministic --out "$SMOKE_DIR/scale_ladder_b.json"
cmp "$SMOKE_DIR/scale_ladder_a.json" "$SMOKE_DIR/scale_ladder_b.json"

step "backend_matrix --smoke (E22 cross-backend head-to-head + byte reproducibility)"
cargo run -q --release -p ballfit-bench --bin backend_matrix -- --smoke --threads 1 --out "$SMOKE_DIR/backend_matrix_a.json"
cargo run -q --release -p ballfit-bench --bin backend_matrix -- --validate "$SMOKE_DIR/backend_matrix_a.json"
cargo run -q --release -p ballfit-bench --bin backend_matrix -- --smoke --threads 4 --out "$SMOKE_DIR/backend_matrix_b.json"
cmp "$SMOKE_DIR/backend_matrix_a.json" "$SMOKE_DIR/backend_matrix_b.json"

step "perfbench digest pins (benchmark outputs equal the pinned reference, untraced and traced)"
for workload in paper-gallery scale-1e5 serve-churn; do
    for trace in 0 1; do
        out="$SMOKE_DIR/perfbench_${workload}_trace$trace.txt"
        python3 perfbench/run.py --workload "$workload" --seconds 1 --trace "$trace" | tee "$out"
        rss_bound_mb=""
        if [[ "$workload" == "scale-1e5" && "$trace" == 0 ]]; then
            rss_bound_mb=40
        fi
        tail -n 1 "$out" | python3 -c '
import json, sys
r = json.load(sys.stdin)
verdict = {k: r[k] for k in ("correct", "attempted", "failed")}
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("perfbench " + sys.argv[1] + ": " + json.dumps(verdict))
if sys.argv[2]:
    rss = r["metrics"]["peak_rss_mb"]["value"]
    if rss > float(sys.argv[2]):
        sys.exit(f"perfbench {sys.argv[1]}: peak_rss_mb {rss:.2f} exceeds {sys.argv[2]} MB")
' "$workload --trace $trace" "$rss_bound_mb"
    done
done

step "committed artifacts (full regeneration is cmp-equal to results/)"
ART_DIR="$SMOKE_DIR/artifacts"
mkdir -p "$ART_DIR"
for bin in robustness_sweep chaos_sweep cost_profile backend_matrix; do
    BALLFIT_RESULTS="$ART_DIR" cargo run -q --release -p ballfit-bench --bin "$bin" -- \
        --out "$ART_DIR/$bin.json" > /dev/null
    cmp "$ART_DIR/$bin.json" "results/$bin.json"
done
if ! command -v taskset > /dev/null; then
    echo "check.sh: taskset is required to pin serve_load to one CPU" >&2
    exit 1
fi
cargo build -q --release -p ballfit-bench --bin serve_load
BALLFIT_RESULTS="$ART_DIR" taskset -c 0 cargo run -q --release -p ballfit-bench --bin serve_load -- \
    --out "$ART_DIR/serve_load.json" > /dev/null
cmp "$ART_DIR/serve_load.json" results/serve_load.json
cargo run -q --release -p ballfit-bench --bin protocol_audit > "$ART_DIR/protocol_audit.log"
cmp "$ART_DIR/protocol_audit.log" results/logs/protocol_audit.log
mkdir -p "$ART_DIR/smoke"
for bin in chaos_sweep robustness_sweep cost_profile; do
    BALLFIT_RESULTS="$ART_DIR/smoke" cargo run -q --release -p ballfit-bench --bin "$bin" -- \
        --smoke --trace "$ART_DIR/smoke/${bin}_smoke_trace.jsonl" > /dev/null
    cmp "$ART_DIR/smoke/${bin}_smoke_trace.jsonl" "results/logs/${bin}_smoke_trace.jsonl"
done
for bin in fig1_efficiency fig_mistaken_distribution fig_missing_distribution \
           fig11_statistics scenario_gallery mesh_under_error ablation_ball_radius \
           ablation_k ablation_iff ablation_two_hop render_figures; do
    BALLFIT_RESULTS="$ART_DIR" cargo run -q --release -p ballfit-bench --bin "$bin" > /dev/null
done
for committed in results/*.csv results/*.svg; do
    cmp "$ART_DIR/$(basename "$committed")" "$committed"
done

step "ubf_scaling --smoke (E17 thread ladder, lane-grouped frames byte-identical)"
BALLFIT_RESULTS="$SMOKE_DIR" cargo run -q --release -p ballfit-bench --bin ubf_scaling -- --smoke
cargo run -q --release -p ballfit-bench --bin ubf_scaling -- --validate "$SMOKE_DIR/ubf_scaling.json"

echo
echo "check.sh: all gates green"
