#!/usr/bin/env python3
"""Seconds-long smoke test of the benchmark's own machinery.

Run from the repository root:

    python3 perfbench/smoke.py

Replays toy-size captures of all three workloads, untraced and traced,
through perfbench/run.py and checks that each run passes and reports every
metric BENCHMARK.json names. Then it breaks things on purpose and checks
that each one fails the run: a truncated capture, a tampered reference
alert digest, and a capture whose fingerprint no longer matches its pin.
It also checks that a capture cached under another build's name is not
reused. Exits 0 only when every case behaved.
"""
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAPTURES = os.path.join(ROOT, ".bench_build", "captures")
WORKLOADS = ("media_steady", "signaling_churn", "sharded_mixed")


def bench(workload, trace):
    """Runs one toy benchmark run; returns (exit code, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "toy"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().split("\n")
    try:
        return proc.returncode, json.loads(lines[-1])
    except ValueError:
        return proc.returncode, None


def capture_path(workload):
    """The toy capture run.py cached for this build."""
    (path,) = glob.glob(os.path.join(CAPTURES, "%s-toy-s1-*.pcap" % workload))
    return path


def remove_toy_captures():
    """Toy captures carry "-toy-" in their names, so the full-scale
    captures sharing the cache are left alone."""
    for path in glob.glob(os.path.join(CAPTURES, "*-toy-*")):
        os.remove(path)


def edit_manifest(workload, key, value):
    path = capture_path(workload) + ".manifest"
    with open(path) as f:
        manifest = json.load(f)
    manifest[key] = value
    with open(path, "w") as f:
        json.dump(manifest, f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    remove_toy_captures()
    failures = []

    def check(label, ok):
        print("%-52s %s" % (label, "ok" if ok else "FAILED"))
        if not ok:
            failures.append(label)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = bench(workload, trace)
            check("%s --trace %d passes" % (workload, trace),
                  code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0)
            check("%s --trace %d reports every metric" % (workload, trace),
                  result is not None
                  and set(result["metrics"]) == names[trace])
            if trace == 1:
                # Calls are bracketed on their own, so the harness's
                # bookkeeping between them is left unattributed.
                share = result and result["metrics"].get("unattributed_share")
                check("%s ledger leaves harness gaps unattributed" % workload,
                      share is not None and 0 < share["value"] < 1)

    # A capture cut off mid-record: the source faults and packets go
    # undelivered.
    path = capture_path("signaling_churn")
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) * 2 // 3)
    code, result = bench("signaling_churn", 0)
    check("truncated capture fails the run",
          code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0)

    # A reference digest the replay cannot reproduce fails every packet.
    edit_manifest("media_steady", "ref_digest", "0" * 16)
    code, result = bench("media_steady", 0)
    check("tampered reference digest fails the run",
          code != 0 and result is not None and not result["correct"]
          and result["failed"] == result["attempted"])

    # Captures are cached per build: the tampered one, renamed as if another
    # build had made it, is not reused; this build regenerates its own.
    stale = capture_path("media_steady")
    other = os.path.join(CAPTURES, "media_steady-toy-s1-%s.pcap" % ("0" * 12))
    os.replace(stale, other)
    os.replace(stale + ".manifest", other + ".manifest")
    code, result = bench("media_steady", 0)
    check("capture cached by another build is not reused",
          code == 0 and result is not None and result["correct"])

    # A capture that no longer matches its pinned fingerprint is refused
    # before any replay.
    edit_manifest("sharded_mixed", "digest", "0" * 16)
    code, result = bench("sharded_mixed", 0)
    check("capture differing from its pin is refused",
          code != 0 and result is None)

    remove_toy_captures()
    print("smoke: %s" % ("FAILED: " + ", ".join(failures) if failures
                         else "all cases behaved"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
