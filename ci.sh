#!/usr/bin/env bash
# Tier-1 gate: offline release build, full test suite, formatting, docs,
# clippy with warnings denied, repo-hygiene guards, and the
# perf-regression gate against the committed BENCH_report.json baseline.
# The workspace has zero external dependencies, so everything here must
# pass with the registry unreachable.
#
# Stages run *without* fail-fast: every stage executes, each is timed,
# and a final PASS/FAIL table summarizes the run (exit 1 if any stage
# failed). Flags:
#
#   --stage <name>   run exactly one stage (names as printed in the table)
#   --list           print the stage names, one per line, and exit
#   --deep           additionally re-run the seeded-schedule suites
#                    (schedule_fuzz, recovery_equivalence,
#                    serve_equivalence — including their sharded arms) at
#                    4x their default schedule counts via the
#                    DW_FUZZ_SCHEDULES multiplier
set -uo pipefail
cd "$(dirname "$0")"

# The single source of truth for stage names, in run order. --list prints
# it, the unknown-stage error cites it, and the run_stage calls at the
# bottom must stay in sync with it (checked at startup).
STAGE_LIST=(
  readme-crates
  engine-boundary
  experiment-docs
  fmt
  build
  test
  clippy
  doc
  perf-gate
  deep-fuzz
)

DEEP=0
ONLY_STAGE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --deep) DEEP=1 ;;
    --stage)
      ONLY_STAGE="${2:?--stage needs a stage name}"
      shift
      ;;
    --list)
      printf '%s\n' "${STAGE_LIST[@]}"
      exit 0
      ;;
    -h|--help)
      sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "unknown argument: $1 (try --help)" >&2
      exit 2
      ;;
  esac
  shift
done

# Fail fast on a typo'd --stage instead of silently running nothing.
if [[ -n "$ONLY_STAGE" ]]; then
  KNOWN=0
  for s in "${STAGE_LIST[@]}"; do
    [[ "$s" == "$ONLY_STAGE" ]] && KNOWN=1
  done
  if [[ $KNOWN -eq 0 ]]; then
    echo "unknown stage: $ONLY_STAGE" >&2
    echo "stages: ${STAGE_LIST[*]}" >&2
    exit 2
  fi
fi

export CARGO_NET_OFFLINE=true

STAGE_NAMES=()
STAGE_STATUS=()
STAGE_SECS=()
ANY_FAILED=0
STAGES_RUN=0

# run_stage <name> <fn>: execute one stage, record PASS/FAIL and
# wall-clock seconds; never aborts the script.
run_stage() {
  local name="$1" fn="$2" status t0
  if [[ -n "$ONLY_STAGE" && "$name" != "$ONLY_STAGE" ]]; then
    return 0
  fi
  STAGES_RUN=$((STAGES_RUN + 1))
  echo "==> $name"
  t0=$SECONDS
  if "$fn"; then
    status=PASS
  else
    status=FAIL
    ANY_FAILED=1
    echo "==> $name: FAILED (continuing to remaining stages)" >&2
  fi
  STAGE_NAMES+=("$name")
  STAGE_STATUS+=("$status")
  STAGE_SECS+=("$((SECONDS - t0))")
}

# Every workspace crate must appear in the README crate-map table.
stage_readme_crates() {
  local d c ok=0
  for d in crates/*/; do
    c="dw-$(basename "$d")"
    if ! grep -Eq "^\| \`$c\`" README.md; then
      echo "FAIL: $c is missing from the README crate-map table" >&2
      ok=1
    fi
  done
  return $ok
}

# Adapters — warehouse executors, the multi-view and sharded schedulers,
# the live runtime, everything outside dw-engine itself — must go
# through dw-engine's public surface (fold_same_source), never the
# queue's batching internals. Likewise, the snapshot store is dw-serve's
# private machinery: every other crate serves reads through ReadFrontend
# and feeds installs through the publisher handle, never by constructing
# or reaching into SnapshotStore directly; dw-serve itself never
# deep-copies a bag, and the copy-on-write chunk machinery behind that
# stays inside dw-relational's shared module. The same stage holds the
# workspace to one hop walk (dw-engine's SweepRun) over one hop join
# (dw-relational's kernel), dw-core to one experiment harness, and ten
# crates to their panic budgets.
# The non-test code of one Rust file: everything above `#[cfg(test)]`
# (a file that opens with `#![cfg(test)]` has none), minus `//` comment
# lines (so doc examples never count).
non_test_code() {
  awk '/^#!?\[cfg\(test\)\]/{exit} {print}' "$1" | grep -v '^[[:space:]]*//'
}

stage_engine_boundary() {
  local hits ok=0
  hits=$(grep -rn "merged_from_source\|take_from_source" crates/*/src 2>/dev/null |
    grep -v "^crates/engine/src" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: sweep adapters must go through dw-engine (fold_same_source), not the queue internals" >&2
    ok=1
  fi
  hits=$(grep -rn "SnapshotStore" crates/*/src src examples 2>/dev/null |
    grep -v "^crates/serve/src" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: snapshots are dw-serve internals — consume them through ReadFrontend, never SnapshotStore" >&2
    ok=1
  fi
  # Subscriptions are store internals with one error type: the registry
  # refuses in ServeError and counts into ServeStats itself, and an index
  # build is a miss — no second poll type, publish outcome or build
  # counter may come back, nor the registry outside dw-serve's sources.
  hits=$({
    grep -rnE '\b(HubPoll|PublishOutcome|point_index_builds)\b' crates src tests examples
    grep -rn 'SubscriptionHub' crates src tests examples | grep -v '^crates/serve/src/'
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: subscriptions are dw-serve store internals — subscribe, poll, resume and unsubscribe through ReadFrontend (refusals are ServeError, counters ServeStats::{sub_events, subs_lagged}); a point index build is counted as point_index_misses — no HubPoll, PublishOutcome or point_index_builds, no SubscriptionHub outside crates/serve/src" >&2
    ok=1
  fi
  # The read frontend keeps only what a caller uses: a view is known by
  # its slot, and a pin is of the latest epoch.
  hits=$(grep -rnE '\b(view_name|pin_epoch)\b' crates src tests examples 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: ReadFrontend::view_name and ReadFrontend::pin_epoch are gone (no caller) — pin with ReadFrontend::pin, name a view by its slot" >&2
    ok=1
  fi
  # One record per traced event: the engine names its own sweep, hop and
  # compensation (engine.*) whichever strategy drives it, and a source
  # answer is counted by the join.* histograms of the join that made it.
  # No per-adapter label set, twin hop span, repeated counter or unread
  # stale-query tally may come back.
  hits=$({
    grep -rnE '\b(SpanLabels|HopSpan|query_counter|stale_queries_dropped)\b' crates src tests examples
    grep -rnF -e '"mv.sweep"' -e '"mv.hop"' -e '"mv.compensations"' -e '"mv.shared_queries"' \
      -e '"strobe.' -e '"c_strobe' -e '"source.answer_rows"' -e '"source.queries_served"' \
      crates src tests examples
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: dw-engine owns the sweep vocabulary (engine.sweep, engine.hop, engine.compensations, engine.batch_size; table in DESIGN.md) and a source answer is recorded once by join.* — no SpanLabels, HopSpan, query_counter or stale_queries_dropped, no \"mv.sweep\", \"mv.hop\", \"mv.compensations\", \"mv.shared_queries\", \"strobe.*\", \"c_strobe*\", \"source.answer_rows\" or \"source.queries_served\"" >&2
    ok=1
  fi
  hits=$(grep -rn "GroupState" crates/*/src src examples 2>/dev/null |
    grep -v "^crates/relational/src" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: aggregate group accumulators are dw-relational internals — fold deltas through AggregateState, never GroupState" >&2
    ok=1
  fi
  hits=$(for f in crates/serve/src/*.rs; do
    non_test_code "$f" | grep -n 'to_bag()\|bag)\.clone()\|\.bag\.clone()' | sed "s|^|$f: |"
  done)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: dw-serve never deep-copies a bag — epochs, scans and publishes share structure (spell a handle copy SharedBag::clone(&..); only test oracles materialise with to_bag())" >&2
    ok=1
  fi
  # A point index is edited in place at publish (merge_sorted_group per
  # touched group): no group is rebuilt through a Bag and re-sorted.
  hits=$(non_test_code crates/serve/src/store.rs | grep -n 'Bag::new()' |
    sed 's|^|crates/serve/src/store.rs: |')
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: PointIndex::derive edits each touched group in place (dw_relational::merge_sorted_group) — no Bag::new() in store.rs outside its tests" >&2
    ok=1
  fi
  hits=$(grep -rn "make_mut\|ChunkHasher\|CHUNK_TARGET" crates/*/src src examples tests 2>/dev/null |
    grep -v "^crates/relational/src/shared.rs" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: copy-on-write chunks are dw-relational internals (crates/relational/src/shared.rs) — share and update through SharedBag / SharedMap, never Arc::make_mut on view state" >&2
    ok=1
  fi
  # One hop walk in the workspace: every sweep query is built in
  # dw-engine (EngineCore::send_query) and legs are pivot-merged only
  # there (SweepRun::merge), so a policy cannot grow its own walk beside
  # SweepRun; per-view finalizing stays in one dw-multiview file (comment
  # lines, the struct's own definition and `fn` definitions do not count).
  local f files
  files=$(for f in crates/*/src/*.rs crates/*/src/*/*.rs src/*.rs src/bin/*.rs; do
    non_test_code "$f" | grep -F 'SweepQuery {' | grep -vq 'struct SweepQuery' && echo "$f"
  done)
  if [[ "$files" != "crates/engine/src/core.rs" ]]; then
    echo "FAIL: the 'SweepQuery {' literal must occur in exactly one non-test file, crates/engine/src/core.rs (found: ${files:-none})" >&2
    ok=1
  fi
  hits=$(grep -rFn 'merge_pivot(' crates/*/src src tests examples |
    grep -Ev "^[^:]+:[0-9]+:[[:space:]]*//" |
    grep -v "^crates/engine/src\|^crates/relational/src" || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: legs are pivot-merged by dw-engine only (over dw-relational's join kernel) — go through SweepRun::merge / into_partial" >&2
    ok=1
  fi
  # One hop join, one signed bag: the hop geometry (which JoinCond pair
  # sits where) has one owner in dw-relational, a source answers a query
  # without copying its relation, and a delta is a Bag — no second name
  # for it may come back.
  hits=$({
    grep -rn 'DeltaRelation' crates src examples tests
    grep -rn 'join_cond(' crates/source/src
    non_test_code crates/source/src/node.rs | grep -n '\.filter(' | sed 's|^|crates/source/src/node.rs: |'
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: deltas are signed Bags (no DeltaRelation); sources take join keys from dw_relational::neighbor_keys and hand the pushed σ to extend_hop (no join_cond( under crates/source/src, no .filter( copy of the relation in node.rs)" >&2
    ok=1
  fi
  # One copy of R_i: a join index is a chain over the relation's own bag
  # (Bag::chain_on), probed by extend_hop when the neighbor carries one.
  # Neither the scan nor the probe builds a per-row key vector (key_of, a
  # HashMap keyed by Vec<Value>), and the second copy of the relation — a
  # source's own indexes beside it, the Neighbor switch that chose them —
  # may not come back.
  hits=$({
    for f in crates/relational/src/*.rs; do
      non_test_code "$f" | grep -n 'key_of(\|HashMap<Vec<Value>' | sed "s|^|$f: |"
    done
    grep -rnE 'Neighbor::Index|enum Neighbor\b|indexes: \[Option<JoinIndex>' crates src examples tests
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: a join index is a chain over the relation's own bag (Bag::chain_on, probed by extend_hop) — no key_of( or HashMap<Vec<Value> under crates/relational/src, no Neighbor::Index / enum Neighbor, no indexes: [Option<JoinIndex> beside a source's relation" >&2
    ok=1
  fi
  # The small-table fast path may skip the hash, never weaken it: the one
  # build-and-probe loop draws its one per-call SipHash key, and no
  # unkeyed or fixed-key hasher may stand in for it on any table size.
  local code
  code=$(non_test_code crates/relational/src/eval.rs)
  hits=$(grep -nE '\bDefaultHasher\b|\bBuildHasherDefault\b|\bSipHasher[0-9]*\b|\bFxHash|\bFnvHash|with_keys\(' <<<"$code" |
    sed 's|^|crates/relational/src/eval.rs: |')
  if [[ -n "$hits" ]] ||
    [[ $(grep -c 'RandomState::new()' <<<"$code") -ne 1 ]] ||
    [[ $(grep -c 'fn build_and_probe\b' <<<"$code") -ne 1 ]]; then
    echo "$hits"
    echo "FAIL: eval.rs holds one build-and-probe loop (fn build_and_probe) with one per-call key (RandomState::new()) — a small table may skip the hash, but no DefaultHasher, BuildHasherDefault or fixed-key hasher may replace it" >&2
    ok=1
  fi
  # Full evaluation is pipelined: eval_view walks each R_0 row through
  # one probe table per neighbour and allocates only the view's tuples, so
  # the left-deep fold — a seeded copy of R_0, then one hop join per
  # relation, each materialising its intermediate — may not come back.
  # String literals are dropped first: the errors keep the fold's context
  # names.
  local body
  body=$(non_test_code crates/relational/src/eval.rs |
    awk '/^pub fn eval_view\(/{on=1} on{print} on&&/^}/{exit}')
  hits=$(sed 's/"[^"]*"//g' <<<"$body" | grep -nE 'extend_partial|extend_hop|PartialDelta::seed' |
    sed 's|^|crates/relational/src/eval.rs eval_view: |' || true)
  if [[ -z "$body" ]] || [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: eval_view (pub fn eval_view in crates/relational/src/eval.rs) is the pipelined full evaluation — its body calls none of extend_partial, extend_hop or PartialDelta::seed (the left-deep fold is its test referee only)" >&2
    ok=1
  fi
  # The ECA site evaluates a substitution term as a whole view over its
  # slot bags: eval_view, not a fold of its own.
  hits=$(non_test_code crates/source/src/eca_site.rs | sed 's/"[^"]*"//g' |
    grep -nE 'extend_partial|extend_hop|PartialDelta::seed' |
    sed 's|^|crates/source/src/eca_site.rs: |' || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: EcaSite evaluates each substitution term with one eval_view over its slot bags — no extend_partial, extend_hop or PartialDelta::seed fold in the non-test code of crates/source/src/eca_site.rs" >&2
    ok=1
  fi
  # One hash per tuple: a tuple carries SipHash under one process-wide
  # random key (tuple.rs), and a Bag places its entries by that hash in
  # its one slot table (bag.rs) — no map and no pass-through hasher. A
  # pass-through hasher anywhere could end up over an unkeyed hash and
  # reopen bucket flooding; the one other hasher is SharedMap's
  # deterministic chunk hash (shared.rs), which hashes values itself.
  hits=$({
    grep -rnE 'BuildHasherDefault|OnceLock<RandomState>|\bPassThrough\b|impl ([a-z_]+::)*Hasher for' \
      crates src examples tests |
      grep -v '^crates/relational/src/tuple.rs:' |
      grep -v '^crates/relational/src/shared.rs:[0-9]*:impl Hasher for ChunkHasher'
    non_test_code crates/relational/src/bag.rs | grep -n 'HashMap' |
      sed 's|^|crates/relational/src/bag.rs: |'
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: a tuple's keyed hash (its process-wide OnceLock<RandomState> key) lives in crates/relational/src/tuple.rs, and a Bag indexes its dense entries by it in one slot table (no HashMap, no pass-through hasher in bag.rs) — key other maps with the default SipHash" >&2
    ok=1
  fi
  # A sharded sweep is an ordinary sweep on the wire: the sources never
  # learn the ShardMap, so neither the scope type, nor source-side
  # slices, nor a `scope:` field in a query literal may come back.
  hits=$({
    grep -rn 'ShardScope\|ShardedRelation' crates/
    grep -rn -A8 'SweepQuery {' crates/ | grep 'scope:'
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: shard scoping is gone for good — a lane's query joins the source's full relation (the purity lemma, crates/relational/tests/algebra_props.rs)" >&2
    ok=1
  fi
  # One scheduling rule: a lane claims a band mask and two sweeps overlap
  # iff their masks are disjoint. The special cases it replaced — a
  # stop-the-world lane key, a qid routing table, a three-way delta
  # class — must not grow back beside it.
  hits=$(grep -rn 'GLOBAL\|qid_routes\|DeltaClass' crates/multiview/src || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: plan_scan holds one conflict test (mask & claimed) — no GLOBAL lane, qid_routes map or DeltaClass cases under crates/multiview/src" >&2
    ok=1
  fi
  # One crash, one recovery, one fence: a warehouse state crash is the
  # only crash the scheduler models, the WAL holds only records replay
  # reads, and a stale answer is known by the incarnation in its qid —
  # neither the shard-scoped crash path, nor the replay-inert records,
  # nor the two qid fences may come back.
  hits=$(grep -rn 'crash_shard\|state_crash_shard\|dead_qids\|stale_floor\|QuerySent\|HopDone\|restore_next_qid' \
    crates src examples tests 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: MaintenanceScheduler::crash_and_recover is the one recovery (lanes re-seed from the durable pending set) and EngineCore::is_current the one stale-answer fence" >&2
    ok=1
  fi
  # One unit of work: every update is ticketed at arrival and swept
  # once, shared across the views that reference it. The per-view
  # scheduler mode (the V·2(n−1) baseline is V one-view warehouses, built
  # where it is measured) and the refusals that came with it must not
  # grow back, nor the refusal table past its one row.
  hits=$({
    grep -rn 'Naive\|naive_queries\|naive-per-view' crates src examples tests
    grep -rn '\.mode(' crates/core/src crates/bench/src tests
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: MaintenanceScheduler has one mode — measure per-view maintenance as V one-view MultiViewExperiment runs (E14, tests/multiview_equivalence.rs), not as a scheduler mode or a builder .mode(..)" >&2
    ok=1
  fi
  # One SWEEP, one report: single-view SWEEP is a one-view
  # MultiViewScenario that the scheduler registers through
  # MaintenanceScheduler::register like any view (Experiment hands it to
  # MultiViewExperiment, run_live to LiveWarehouse::new), and every
  # simulated run reports a MultiViewReport, every live one a
  # LiveViewsReport. The second warehouse stack and its option set, the
  # one-view adapter with its compiled registration and bill, and the
  # second report types with their shared accounting macro must not come
  # back (Nested SWEEP's constructors do not match).
  hits=$(grep -rnE '\bSweepOptions\b|\bsweep::Sweep\b|(^|[^A-Za-z_])Sweep::(new|with_options)\(|\b(OneViewSweep|register_compiled|view_bill|RunReport|message_accounting|LiveReport)\b|fn one_view\b' \
    crates src examples tests 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: SWEEP runs only as a MaintenanceScheduler over a MultiViewScenario, its one view registered through MaintenanceScheduler::register (PolicyKind::Sweep(EngineOptions::FIGURE_4) is a one-view MultiViewExperiment, run_live a one-view LiveWarehouse::new), and runs report MultiViewReport / LiveViewsReport — no single-view Sweep, SweepOptions, OneViewSweep, register_compiled, view_bill, fn one_view, RunReport, message_accounting! or LiveReport" >&2
    ok=1
  fi
  # One SWEEP family: Nested SWEEP is the scheduler's `depth` (Figure 6's
  # nesting, EngineOptions::FIGURE_6), so neither its single-view
  # executor, its option set, its consuming compensation, the live
  # runtime's policy runner nor any other `NestedSweep` may come back.
  hits=$(grep -rnE '\bNestedSweep|nested_sweep::|compensate_consuming|\bPolicyRunner\b' \
    crates src examples tests 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: Nested SWEEP runs only as a MaintenanceScheduler at EngineOptions::depth != 1 (PolicyKind::Sweep(EngineOptions::FIGURE_6), livenet::run_live(scenario, opts, ..)) — no NestedSweep, NestedSweepOptions, compensate_consuming or PolicyRunner" >&2
    ok=1
  fi
  # One release point: a committed sweep's delta waits only in the
  # InstallSequencer's per-view hold — global transactions and install
  # cadence alike — so the registry's pending batch and its second
  # cascade entry may not come back.
  hits=$(grep -rn 'pending_delta\|flush_with_cascade' crates/multiview/src || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: a view's batch waits in the InstallSequencer's hold (drain(every), flush) — no pending_delta or flush_with_cascade under crates/multiview/src" >&2
    ok=1
  fi
  # One ground truth: the run's Recorder is the one record of what was
  # delivered and the one place a view state is evaluated (eval_view( in
  # the non-test code of dw-core and dw-consistency only in truth.rs), and
  # a strategy matches its own messages — neither per-view log shifting,
  # re-derived transaction deltas, the per-install prefix walks nor the
  # engine's strategy trait and its dispatcher may come back.
  hits=$({
    grep -rnE '\b(remap_installs|txn_deltas|is_source_prefix_set|prefix_state|SweepPolicy)\b' \
      crates src examples tests
    grep -rn 'fn dispatch\b' crates/engine/src
    for f in crates/core/src/*.rs crates/consistency/src/*.rs; do
      [[ "$f" == crates/consistency/src/truth.rs ]] && continue
      non_test_code "$f" | grep -n 'eval_view(' | sed "s|^|$f: |"
    done
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: every oracle reads the run's one dw_consistency::Recorder (Recorder::state over a SlotView, global update ids, per-source prefix counters in classify), and the scheduler and Strobe match their own messages — no remap_installs, txn_deltas, is_source_prefix_set, prefix_state, SweepPolicy or engine dispatch, and no eval_view( in dw-core / dw-consistency outside truth.rs" >&2
    ok=1
  fi
  # One slot: a derived view is one more registry slot — reported as a
  # ViewOutcome, graded by classify and audited from the report alone —
  # so its second outcome type, its epoch audit and the name walk that
  # rebuilt its SlotView from the scenario may not come back.
  hits=$(grep -rnE '\b(DerivedOutcome|derived_clean|installs_for_slot)\b|fn (slot_view|derived_outcomes)\b' \
    crates src examples tests 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: every registry slot is one ViewOutcome (MultiViewReport::views: base views, then derived ones, each with its SlotView and parent), graded by classify — no DerivedOutcome, derived_clean, installs_for_slot, slot_view or derived_outcomes" >&2
    ok=1
  fi
  # No knob nobody sets: a transport's timers follow from the link
  # latency (TransportConfig::for_latency_mean is its one constructor), a
  # per-link latency override — which the derived RTO never saw — is gone,
  # dw-obs has one recorder (TraceRecorder behind Obs), and dw-livenet
  # one multi-view entry (run_live_views: shard map and readers compose).
  hits=$({
    grep -rnE 'TransportConfigError|Transport::Explicit|fn transport\(|fn link_latency|link_overrides' \
      crates src tests examples
    grep -rnE 'NoopRecorder|\bObs::new\b|run_live_sharded|run_live_serve|Live(Sharded|Serve)Report' \
      crates src tests examples
    grep -rn 'trait Recorder' crates/obs/src
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: a TransportConfig comes only from for_latency_mean (builders take transport_auto()), links share the one latency model, Obs feeds the one TraceRecorder (Obs::trace / Obs::off), and live multi-view runs go through run_live_views — no TransportConfigError, Transport::Explicit, .transport(cfg), link_latency / link_overrides, Recorder trait, NoopRecorder, Obs::new, run_live_sharded, run_live_serve or their reports" >&2
    ok=1
  fi
  # An image is its own lineage: a checkpoint advances the last image in
  # place by the installs since, and a deep copy (SharedBag::deep_copy)
  # seeds it, so no handle shares a chunk with the live view — the
  # shared-chunk accounting that priced a handle image may not come back.
  hits=$(grep -rnE '\bunshared_(len|tuples)\b' crates src tests examples 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: checkpoint images are lineages of their own (InstallSink::image advances the last one, SharedBag::deep_copy seeds it) and copies are counted where they happen (merge's return) — no unshared_len or unshared_tuples" >&2
    ok=1
  fi
  # One install value: an install is the InstallEvent its sink publishes
  # (the delta behind one Arc), and a past view state is the initial
  # contents plus the published deltas (view_states). The install
  # record with its view snapshot, the subscriber's copy of the event and
  # the snapshot knob may not come back; the two inert
  # set_record_snapshots the frozen benchmark calls are the only code
  # lines left that name it (comments aside).
  hits=$({
    grep -rnE '\b(InstallRecord|InstallDelta|view_after)\b' crates src tests examples
    grep -rn 'record_snapshots' crates src tests examples |
      grep -Ev '^[^:]+:[0-9]+:[[:space:]]*//' |
      grep -Ev '^crates/multiview/src/(scheduler|sharded)\.rs:[0-9]+:    pub fn set_record_snapshots\(&mut self, _record: bool\) \{\}$'
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: an install is one InstallEvent (published by InstallSink, streamed to subscribers, kept only by an attached InstallLog) and a past state is view_states(initial, events) — no InstallRecord, InstallDelta, view_after or record_snapshots beyond the two inert set_record_snapshots(&mut self, _record: bool) {} the frozen benchmark calls" >&2
    ok=1
  fi
  # An install is published, not kept: the warehouse and the serve store
  # record no install history, and a run that reads it attaches one
  # InstallLog. The sink's log and its image, the registry's and the
  # policies' log accessors and the store's publication ledger may not
  # come back, nor may a non-test struct field of dw-engine, dw-multiview
  # or dw-serve hold a Vec of InstallEvents beside InstallLog's own.
  hits=$({
    grep -rnE '\b(SinkImage|log_len)\b|install_log\(' crates src tests examples
    grep -rnF 'fn installs(&self) -> &[InstallEvent]' crates src tests examples
    grep -rn 'publication_log' crates/serve/src
    for f in crates/engine/src/*.rs crates/multiview/src/*.rs crates/serve/src/*.rs; do
      non_test_code "$f" |
        grep -nE '(^[[:space:]]*|\{ *)(pub(\([a-z]+\))? )?[a-z_]+: .*Vec<([a-z_]+::)*InstallEvent>' |
        grep -v 'fn ' |
        sed "s|^|$f: |"
    done | grep -v '^crates/engine/src/publish\.rs: [0-9]*:    views: HashMap<usize, Vec<InstallEvent>>,$'
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: an install is published, not kept — InstallSink, the registry, the policies and the serve store keep no install history, and a run that reads it attaches one InstallLog (dw_engine::publish) — no SinkImage, log_len, install_log(, fn installs(&self) -> &[InstallEvent], publication_log under crates/serve/src, or Vec<InstallEvent> field in non-test dw-engine / dw-multiview / dw-serve outside InstallLog" >&2
    ok=1
  fi
  # A count or a record is kept where it is read: the store's delivery
  # and pin tallies had no reader outside dw-serve, and the scheduler's
  # per-sweep completion list grew with run length for three tests, which
  # now attach their own CompletionLog. Neither may come back.
  hits=$(grep -rnE '\b(deliveries_noted|pins_taken|pins_released)\b|\bcompletions: Vec<|\bstats(\(\))?\.completions\b' \
    crates src tests examples 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: nothing keeps a tally or a per-sweep record nobody reads — no ServeStats deliveries_noted / pins_taken / pins_released, no completions: Vec< or stats.completions (attach a dw_multiview::CompletionLog where a test reads lane completions)" >&2
    ok=1
  fi
  local rows
  rows=$(awk '/^\| Combination \| Why \| Error \|/ {t = 1; next}
    t && /^\|---/ {next}
    t && /^\|/ {n++; next}
    t {exit}
    END {print n + 0}' DESIGN.md)
  if [[ $rows -gt 1 ]]; then
    echo "FAIL: DESIGN.md's refused-combinations table has $rows data rows — it may only shrink from 1 (make the combination compose instead of refusing it)" >&2
    ok=1
  fi
  # A point read has one path (the epoch's point index, each group
  # stored with its multiplicity) and a registered view stays
  # registered: neither the answer cache, nor the index switch, nor
  # runtime deregistration may come back.
  hits=$({
    grep -rn 'AnswerCache\|answer_cache\|set_point_index\|point_index(' crates src examples tests
    grep -rn 'deregister' crates
  } 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: SnapshotStore::point_lookup is index-hit-or-build with no option in front of or behind it (referee answers with dw_core::audit_reads), and views are never deregistered (recovery would resurrect them, dw-serve cannot forget a slot)" >&2
    ok=1
  fi
  # The scheduler, the checker and the live runtime sit on the mechanism
  # layer only: the baseline policies of dw-warehouse are not theirs to
  # compile.
  hits=$(grep -n 'dw-warehouse' crates/multiview/Cargo.toml crates/consistency/Cargo.toml \
    crates/livenet/Cargo.toml || true)
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: dw-multiview, dw-consistency and dw-livenet import InstallEvent / PolicyMetrics / WarehouseError from dw-engine, not dw-warehouse" >&2
    ok=1
  fi
  files=$(grep -Fn 'finalize_for_view(' crates/multiview/src/*.rs |
    grep -Ev "^[^:]+:[0-9]+:[[:space:]]*(//|(pub(\([a-z]+\))? )?fn )" |
    cut -d: -f1 | sort -u)
  if [[ $(wc -w <<<"$files") -ne 1 ]]; then
    echo "FAIL: 'finalize_for_view(' must be called from exactly one file under crates/multiview/src (found: ${files:-none})" >&2
    ok=1
  fi
  # One experiment harness in dw-core: the scheduler, the read frontend,
  # the source nodes and the workload injection are each wired up in
  # exactly one file of the non-test code, so a second multi-view or
  # serving driver cannot grow beside the builder.
  local token
  for token in 'MaintenanceScheduler::with_shards(' 'ReadFrontend::new(' \
    'load_sources(' 'Message::ApplyTxn {'; do
    files=$(for f in crates/core/src/*.rs; do
      non_test_code "$f" | grep -F "$token" >/dev/null && echo "$f"
    done)
    if [[ $(wc -w <<<"$files") -ne 1 ]]; then
      echo "FAIL: '$token' must occur in exactly one non-test file under crates/core/src (found: ${files:-none})" >&2
      ok=1
    fi
  done
  # Panic budgets: unwrap()/expect(/panic!/unreachable! in the non-test
  # code of each directory. A budget may only go down; lower it when the
  # count drops.
  local pair dir budget count
  for pair in crates/multiview/src:0 crates/core/src:0 crates/warehouse/src:0 \
    crates/engine/src:0 crates/relational/src:2 crates/serve/src:2 \
    crates/protocol/src:2 crates/source/src:0 crates/livenet/src:0 \
    crates/simnet/src:0; do
    dir=${pair%:*} budget=${pair#*:} count=0
    for f in "$dir"/*.rs; do
      count=$((count + $(non_test_code "$f" |
        grep -c 'unwrap()\|expect(\|panic!\|unreachable!' || true)))
    done
    if [[ $count -gt $budget ]]; then
      echo "FAIL: $count panic sites in non-test $dir, budget is $budget — return a typed error (WarehouseError / MvError::Internal / CoreError) instead" >&2
      ok=1
    elif [[ $count -lt $budget ]]; then
      echo "FAIL: panic sites in $dir dropped to $count — lower the budget in ci.sh from $budget so it cannot creep back" >&2
      ok=1
    fi
  done
  return $ok
}

# Every bench binary must carry an E<N> experiment marker in its doc
# comment and EXPERIMENTS.md must have the matching '## E<N> —' section:
# an experiment that isn't written up doesn't exist. And a gated
# experiment is defined once: the binary of a phase declared in
# crates/bench/src/perf/phases.rs takes its rows from that phase
# (perf::measure_checked) — it builds no experiment and no scenario
# config of its own. And CHANGES.md is one line per PR that says what
# changed and why: benchmark tables go to BENCH_history.jsonl, which the
# entry cites.
stage_experiment_docs() {
  local f tag hits gated bytes ok=0
  bytes=$(tail -n 1 CHANGES.md | wc -c)
  if [[ $bytes -gt 2048 ]]; then
    echo "FAIL: the newest CHANGES.md entry is $bytes bytes (limit 2048) — cite its BENCH_history.jsonl line instead of inlining the per-cell table" >&2
    ok=1
  fi
  gated=$(grep -oE ' as "E[0-9]+" /' crates/bench/src/perf/phases.rs | grep -oE 'E[0-9]+')
  if [[ -z "$gated" ]]; then
    echo "FAIL: found no phase declarations ('Row in slot as \"E<N>\" / …') in crates/bench/src/perf/phases.rs" >&2
    ok=1
  fi
  for f in crates/bench/src/bin/*.rs; do
    tag=$(grep -o -m1 'E[0-9]\+' "$f" | head -1 || true)
    if [[ -z "$tag" ]]; then
      echo "FAIL: $f has no E<N> experiment marker in its doc comment" >&2
      ok=1
      continue
    fi
    if ! grep -Eq "^## $tag " EXPERIMENTS.md; then
      echo "FAIL: $f claims $tag but EXPERIMENTS.md has no '## $tag —' section" >&2
      ok=1
    fi
    if grep -qx "$tag" <<<"$gated"; then
      hits=$(grep -nE 'Experiment::new\(|[A-Za-z]Config \{' "$f" || true)
      if [[ -n "$hits" ]]; then
        echo "$hits"
        echo "FAIL: $f builds its own experiment or scenario, but $tag is a gated phase — take the rows from dw_bench::perf (measure_checked::<${tag}Row>)" >&2
        ok=1
      fi
    fi
  done
  return $ok
}

stage_fmt() {
  cargo fmt --all --check
}

# The frozen benchmark crate is its own workspace: check it here so an
# API break of what it compiles (dw-multiview, dw-engine, dw-serve,
# dw-bench) fails tier-1 instead of the next by-hand benchmark build.
# Cargo rewrites the crate's lock file when the workspace's dependency
# edges moved; the committed bytes are saved first and put back after,
# so the stage leaves the tree as it found it.
stage_build() {
  local saved=benchmark/target/Cargo.lock.committed status
  mkdir -p benchmark/target && cp benchmark/Cargo.lock "$saved" || return 1
  cargo build --release --workspace &&
    cargo check --offline --manifest-path benchmark/Cargo.toml
  status=$?
  mv "$saved" benchmark/Cargo.lock || return 1
  return "$status"
}

stage_test() {
  cargo test -q --workspace
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

stage_doc() {
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

stage_perf_gate() {
  cargo run -q --release -p dw-bench --bin perf_gate
}

stage_deep_fuzz() {
  DW_FUZZ_SCHEDULES=4 cargo test -q --release \
    --test schedule_fuzz --test recovery_equivalence --test serve_equivalence
}

run_stage readme-crates stage_readme_crates
run_stage engine-boundary stage_engine_boundary
run_stage experiment-docs stage_experiment_docs
run_stage fmt stage_fmt
run_stage build stage_build
run_stage test stage_test
run_stage clippy stage_clippy
run_stage doc stage_doc
run_stage perf-gate stage_perf_gate
if [[ "$DEEP" == "1" ]]; then
  run_stage deep-fuzz stage_deep_fuzz
fi

if [[ $STAGES_RUN -eq 0 ]]; then
  echo "unknown stage: $ONLY_STAGE" >&2
  echo "stages: ${STAGE_LIST[*]}" >&2
  exit 2
fi

echo
printf '%-18s %-6s %8s\n' "stage" "result" "wall (s)"
printf '%-18s %-6s %8s\n' "-----" "------" "--------"
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-18s %-6s %8s\n' "${STAGE_NAMES[$i]}" "${STAGE_STATUS[$i]}" "${STAGE_SECS[$i]}"
done
echo

if [[ $ANY_FAILED -ne 0 ]]; then
  echo "==> ci.sh: FAILED (see table above)"
  exit 1
fi
echo "==> ci.sh: all green"
