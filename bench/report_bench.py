#!/usr/bin/env python3
"""Merges a google-benchmark JSON run into the tracked BENCH_micro.json.

Usage: report_bench.py <BENCH_micro.json> <run-label> <gbench-output.json>
           [--metrics <metrics-snapshot.json>] [--check] [--scaling]
           [--latency <pipeline-metrics.json>]
           [--require-zero-alloc <bench>]... [--allow-allocs <bench>]...
           [--baseline <tracked.json> <label>]

BENCH_micro.json keeps one entry per label in "runs" (re-running a label
replaces it) so before/after numbers for a change live side by side. The
last run also gets a "speedup_vs" table against the first (baseline) run.
A run taken with --benchmark_repetitions records each benchmark's median
repetition (by the row's judged time: real time on `/real_time` rows, CPU
time on the rest; see time_key), every repetition's times, and the largest
allocs_per_iter any repetition reported, so the zero-allocation pins read
the worst repetition.

--metrics attaches an instrumented-run metric snapshot (the JSON written by
micro_core with VIDS_METRICS_OUT set) to the run entry.

After merging, the run is screened:
  * any benchmark with allocs_per_iter != 0 is a zero-allocation violation,
    unless listed via --allow-allocs (benchmarks that measure a path that
    legitimately allocates, e.g. first-packet group creation, get an INFO
    note instead);
  * --require-zero-alloc names benchmarks that MUST appear in the run,
    MUST report allocs_per_iter, and MUST report it as 0 — a missing
    counter is as fatal as a nonzero one, so the gate cannot rot silently;
  * any benchmark whose time regressed >10% vs the previous entry is
    flagged, and --baseline additionally compares against a pinned run
    (file + label) so drift against a recorded release number is visible
    even when the previous run already regressed. The time is cpu_ns,
    except on `/real_time` rows (UseRealTime pipeline benches), whose
    cpu_ns is only the driving thread's CPU time: those compare real_ns.
    When both runs recorded repetitions, a move inside their measured
    spread is noise: the row is flagged only if, beyond the 10%, its
    repetition range lies wholly above the other run's. Runs recorded on
    a different (or unrecorded) core count are not compared at all; an
    INFO line names the skipped run instead.
Violations of the first two are fatal with --check (exit 1); time
regressions stay warnings — CI runners are too noisy to gate on latency
alone.

Every appended run records the host's core count as `cpu_count` in its
metadata (from the gbench context, falling back to os.cpu_count()), so a
number taken on a 1-core container can never masquerade as a real
scaling measurement later.

--latency attaches the merged pipeline snapshot (the JSON written by
micro_core with VIDS_PIPELINE_OUT set) to the run entry as
"pipeline_latency" and prints a p50/p95/p99 table of every `lat.*`
histogram in it — both the cross-shard aggregates and the per-shard
`shard.N.lat.*` series. It also gates the span layer's zero-cost claim:
every BM_ShardedPipelineSpans row whose trace period argument is 0
(sampling off) must report allocs_per_iter == 0, and at least one such
row must exist — a missing or nonzero counter is fatal regardless of
--check, because it means the "sampling off is free" number is broken.

--scaling screens the BM_ShardedIngestBatched rows (the shipped default
configuration): the 4-shard pipeline must deliver >= 2x the single-shard
throughput, read from each row's median repetition (its wall time) when
the run has repetitions — one short shot is too noisy to gate on. The
gate only binds when the run was recorded on a host with
>= 4 cores (the run-level `cpu_count`, falling back to the benchmark's
`cores` counter) — a 1-core container serializes the workers, so there
the screen reports a loud SKIP naming the recorded core count and exits 0
instead of recording a meaningless failure.
"""
import json
import os
import sys

REGRESSION_TOLERANCE = 1.10


def time_key(name: str) -> str:
    """The time a row is judged by: wall time for UseRealTime rows (gbench
    suffixes their names with /real_time), CPU time for the rest."""
    return "real_ns" if name.endswith("/real_time") else "cpu_ns"


def warn_regressions(last: dict, against: dict) -> None:
    """Warns about rows of run `last` more than 10% slower than in run
    `against` (and, when both recorded repetitions, slower in every
    repetition than `against` in any), if both runs were recorded on the
    same core count."""
    label = against["label"]
    cores, their_cores = last.get("cpu_count"), against.get("cpu_count")
    if not cores or cores != their_cores:
        print(f"INFO: not comparing with '{label}': recorded on "
              f"{their_cores or 'an unrecorded number of'} cores, this run "
              f"on {cores or 'an unrecorded number of'}", file=sys.stderr)
        return
    for name, entry in sorted(last["results"].items()):
        if name not in against["results"]:
            continue
        key = time_key(name)
        theirs = against["results"][name]
        before = theirs.get(key, 0)
        after = entry.get(key, 0)
        if before <= 0 or after <= before * REGRESSION_TOLERANCE:
            continue
        reps_after = entry.get("reps_" + key)
        reps_before = theirs.get("reps_" + key)
        if reps_after and reps_before and min(reps_after) <= max(reps_before):
            continue  # the repetition ranges overlap
        pct = 100.0 * (after / before - 1.0)
        print(f"WARNING: {name} regressed {pct:.1f}% vs "
              f"'{label}' ({before} -> {after} {key[:-3]} ns)",
              file=sys.stderr)


def screen_scaling(last: dict, check: bool) -> int:
    """Gates 4-shard vs 1-shard BM_ShardedIngestBatched throughput at 2x."""
    entries = {}
    for name, entry in last["results"].items():
        if not name.startswith("BM_ShardedIngestBatched/"):
            continue
        if "shards" in entry and "items_per_second" in entry:
            entries[int(entry["shards"])] = entry
    if 1 not in entries or 4 not in entries:
        print("SCALING: 1- and 4-shard BM_ShardedIngestBatched rows not "
              "both present in the run; nothing to screen", file=sys.stderr)
        return 1 if check else 0
    cores = int(last.get("cpu_count") or entries[4].get("cores", 0))
    if cores < 4:
        print(f"SCALING: SKIPPED — the run was recorded on {cores} core(s). "
              f"Four workers cannot outrun one on fewer than 4 cores; the "
              f"2x gate only binds for runs recorded on >= 4 cores.",
              file=sys.stderr)
        return 0
    one = entries[1]["items_per_second"]
    four = entries[4]["items_per_second"]
    ratio = four / one if one > 0 else 0.0
    if ratio < 2.0:
        print(f"VIOLATION: 4-shard throughput is {ratio:.2f}x single-shard "
              f"({four:.0f} vs {one:.0f} items/s); the sharded engine must "
              f"deliver >= 2x on a >= 4-core host", file=sys.stderr)
        return 1 if check else 0
    print(f"SCALING: OK — 4 shards deliver {ratio:.2f}x single-shard "
          f"throughput ({four:.0f} vs {one:.0f} items/s, {cores} cores)",
          file=sys.stderr)
    return 0


def screen_latency(last: dict, snapshot: dict) -> int:
    """Prints the pipeline latency table; gates the sampling-off rows."""
    hists = snapshot.get("histograms", {})
    rows = [(name, h) for name, h in sorted(hists.items())
            if name.startswith("lat.") or ".lat." in name]
    if not rows:
        print("VIOLATION: the pipeline snapshot has no 'lat.*' histograms "
              "(span sampling came unwired?)", file=sys.stderr)
        return 1
    print(f"{'pipeline histogram':<36} {'count':>9} {'p50_ns':>12} "
          f"{'p95_ns':>12} {'p99_ns':>12}")
    for name, h in rows:
        print(f"{name:<36} {h['count']:>9} {h['p50']:>12} {h['p95']:>12} "
              f"{h['p99']:>12}")

    status = 0
    off_rows = 0
    for name, entry in sorted(last["results"].items()):
        if not name.startswith("BM_ShardedPipelineSpans/"):
            continue
        parts = name.split("/")  # BM_.../<shards>/<period>[/real_time]
        if len(parts) < 3 or parts[2] != "0":
            continue
        off_rows += 1
        allocs = entry.get("allocs_per_iter")
        if allocs is None:
            print(f"VIOLATION: {name} runs with sampling off but does not "
                  f"report allocs_per_iter (the allocation counter came "
                  f"unwired)", file=sys.stderr)
            status = 1
        elif allocs != 0:
            print(f"VIOLATION: {name} allocates with span sampling off "
                  f"({allocs} allocs/iter; the disabled span path must be "
                  f"free)", file=sys.stderr)
            status = 1
    if off_rows == 0:
        print("VIOLATION: no BM_ShardedPipelineSpans sampling-off row in "
              "the run; the zero-cost gate has nothing to screen",
              file=sys.stderr)
        status = 1
    return status


def screen(tracked: dict, check: bool, require_zero: list,
           allow_allocs: list, baseline: dict | None,
           baseline_label: str) -> int:
    """Returns the exit code after flagging violations in the latest run."""
    last = tracked["runs"][-1]
    prev = tracked["runs"][-2] if len(tracked["runs"]) >= 2 else None
    status = 0

    for name, entry in sorted(last["results"].items()):
        allocs = entry.get("allocs_per_iter")
        if allocs:  # present and nonzero
            if name in allow_allocs:
                print(f"INFO: {name} allocates ({allocs} allocs/iter; "
                      f"expected — this benchmark measures an allocating "
                      f"path)", file=sys.stderr)
            else:
                print(f"VIOLATION: {name} allocates ({allocs} allocs/iter; "
                      f"the steady-state hot path must stay at 0)",
                      file=sys.stderr)
                if check:
                    status = 1
    for name in require_zero:
        entry = last["results"].get(name)
        if entry is None:
            print(f"VIOLATION: required zero-alloc benchmark {name} is "
                  f"missing from the run", file=sys.stderr)
        elif "allocs_per_iter" not in entry:
            print(f"VIOLATION: {name} does not report allocs_per_iter "
                  f"(the allocation counter came unwired)", file=sys.stderr)
        elif entry["allocs_per_iter"] != 0:
            # Already flagged above; repeat with the requirement context.
            print(f"VIOLATION: {name} is required to be zero-allocation "
                  f"but reports {entry['allocs_per_iter']} allocs/iter",
                  file=sys.stderr)
        else:
            continue
        if check:
            status = 1

    if prev is not None:
        warn_regressions(last, prev)
    if baseline is not None:
        pinned = next((r for r in baseline.get("runs", [])
                       if r["label"] == baseline_label), None)
        if pinned is None:
            print(f"WARNING: baseline label '{baseline_label}' not found",
                  file=sys.stderr)
        else:
            warn_regressions(last, pinned)
    return status


def main() -> int:
    args = list(sys.argv[1:])
    check = "--check" in args
    if check:
        args.remove("--check")
    scaling = "--scaling" in args
    if scaling:
        args.remove("--scaling")

    def take_values(flag: str, count: int = 1) -> list:
        taken = []
        while flag in args:
            at = args.index(flag)
            if len(args) < at + 1 + count:
                print(__doc__, file=sys.stderr)
                sys.exit(2)
            values = args[at + 1:at + 1 + count]
            taken.append(values[0] if count == 1 else tuple(values))
            del args[at:at + 1 + count]
        return taken

    metrics = take_values("--metrics")
    metrics_path = metrics[-1] if metrics else None
    latency = take_values("--latency")
    latency_path = latency[-1] if latency else None
    require_zero = take_values("--require-zero-alloc")
    allow_allocs = take_values("--allow-allocs")
    baselines = take_values("--baseline", count=2)
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    tracked_path, label, run_path = args

    with open(run_path) as f:
        run = json.load(f)
    # With --benchmark_repetitions each repetition is its own row: keep the
    # row of median judged time (time_key) and record every repetition's
    # times, so the spread a warn threshold needs is part of the run.
    rows = {}
    for bench in run.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        rows.setdefault(bench["name"], []).append(bench)
    results = {}
    for name, reps in rows.items():
        judged = "real_time" if time_key(name) == "real_ns" else "cpu_time"
        bench = sorted(reps, key=lambda b: b[judged])[(len(reps) - 1) // 2]
        entry = {
            "cpu_ns": round(bench["cpu_time"], 1),
            "real_ns": round(bench["real_time"], 1),
            "iterations": bench["iterations"],
        }
        if len(reps) > 1:
            entry["repetitions"] = len(reps)
            entry["reps_cpu_ns"] = [round(b["cpu_time"], 1) for b in reps]
            entry["reps_real_ns"] = [round(b["real_time"], 1) for b in reps]
        if "allocs_per_iter" in bench:
            entry["allocs_per_iter"] = round(
                max(b["allocs_per_iter"] for b in reps), 3)
        # Scaling-row context: throughput plus the shard/host counters the
        # --scaling screen interprets.
        for key in ("items_per_second", "shards", "cores", "ingest_stalls"):
            if key in bench:
                entry[key] = round(bench[key], 3)
        results[name] = entry

    try:
        with open(tracked_path) as f:
            tracked = json.load(f)
    except FileNotFoundError:
        tracked = {"benchmarks": [], "runs": []}

    tracked["benchmarks"] = sorted(
        set(tracked.get("benchmarks", [])) | set(results)
    )
    # Host core count stamped into the run: gbench records num_cpus in its
    # context; fall back to the merging host if the run file lacks one.
    cpu_count = run.get("context", {}).get("num_cpus") or os.cpu_count() or 0
    tracked["runs"] = [r for r in tracked["runs"] if r["label"] != label]
    tracked["runs"].append({"label": label, "cpu_count": int(cpu_count),
                            "results": results})

    if metrics_path is not None:
        with open(metrics_path) as f:
            tracked["runs"][-1]["metrics"] = json.load(f)
    latency_snapshot = None
    if latency_path is not None:
        with open(latency_path) as f:
            latency_snapshot = json.load(f)
        tracked["runs"][-1]["pipeline_latency"] = latency_snapshot

    if len(tracked["runs"]) >= 2:
        base = tracked["runs"][0]["results"]
        last = tracked["runs"][-1]
        speedup = {}
        for name, entry in last["results"].items():
            key = time_key(name)
            if name in base and entry[key] > 0:
                speedup[name] = round(base[name][key] / entry[key], 2)
        last["speedup_vs"] = {tracked["runs"][0]["label"]: speedup}

    baseline = None
    baseline_label = ""
    if baselines:
        baseline_path, baseline_label = baselines[-1]
        if baseline_path == tracked_path:
            baseline = tracked  # compare within the file being updated
        else:
            with open(baseline_path) as f:
                baseline = json.load(f)
    status = screen(tracked, check, require_zero, allow_allocs,
                    baseline, baseline_label)
    if scaling:
        status = max(status, screen_scaling(tracked["runs"][-1], check))
    if latency_snapshot is not None:
        status = max(status,
                     screen_latency(tracked["runs"][-1], latency_snapshot))

    with open(tracked_path, "w") as f:
        json.dump(tracked, f, indent=2)
        f.write("\n")
    print(f"{tracked_path}: recorded run '{label}' "
          f"({', '.join(sorted(results))})")
    return status


if __name__ == "__main__":
    sys.exit(main())
