#!/usr/bin/env python3
"""Wire-to-alert capture-replay benchmark for the vIDS engines.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/wire_bench from the engine sources in src/ (into
.bench_build/), generates the workload's pcap for the seed once per build
in an untimed process, checks it against the pinned fingerprints, then
replays it through the engine. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ledger. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the exit code
is 0 only when every check passed.

--scale toy exists for perfbench/smoke.py.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CAPTURES = os.path.join(BUILD_ROOT, "captures")
WORKLOADS = ("media_steady", "signaling_churn", "sharded_mixed")
# Capture properties pinned per (scale, workload, seed) in pins.json.
PINNED_KEYS = ("packets", "sip", "rtp", "rtcp", "other", "span_ns", "bytes",
               "digest")
CACHED_CAPTURES = 3  # per workload and scale
BUILD_TIMEOUT_S = 840
GENERATE_TIMEOUT_S = 150
REPLAY_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, stdout=None, stderr=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no compiler or engine process outlives this one."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under %s/src" % ROOT)
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wire_bench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code, _ = run(step, BUILD_TIMEOUT_S, stdout=log,
                              stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path, 3)
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed; see " + log_path, 3)
    return os.path.join(build_dir, "wire_bench")


def check_pins(manifest):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    pinned = (pins.get(manifest["scale"], {})
              .get(manifest["workload"], {})
              .get(str(manifest["seed"])))
    if pinned is None:
        return
    diffs = ["%s: pinned %r, generated %r" % (k, pinned[k], manifest.get(k))
             for k in PINNED_KEYS if pinned.get(k) != manifest.get(k)]
    if diffs:
        fail("the %s capture for seed %s no longer matches its pinned "
             "fingerprint (did src/load, the SIP/RTP serializers or the pcap "
             "writer change?):\n  %s" % (manifest["workload"],
                                         manifest["seed"], "\n  ".join(diffs)),
             4)


def build_id(binary):
    """Short hash of the wire_bench binary. Captures are cached per build,
    so a build whose generator or engine differs regenerates its capture,
    is checked against the pins and takes its own reference digest."""
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:12]


def capture(binary, args):
    """Path and manifest of the workload's capture, generating it first if
    this build has not made it yet. Generation is never timed."""
    os.makedirs(CAPTURES, exist_ok=True)
    path = os.path.join(CAPTURES, "%s-%s-s%d-%s.pcap" % (
        args.workload, args.scale, args.seed, build_id(binary)))
    manifest_path = path + ".manifest"
    if not (os.path.isfile(path) and os.path.isfile(manifest_path)):
        tmp = "%s.tmp%d" % (path, os.getpid())
        cmd = [binary, "generate", "--workload", args.workload,
               "--seed", str(args.seed), "--out", tmp]
        if args.scale == "toy":
            cmd.append("--toy")
        try:
            code, _ = run(cmd, GENERATE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = -1
        if code != 0:
            for leftover in (tmp, tmp + ".manifest"):
                if os.path.exists(leftover):
                    os.remove(leftover)
            fail("generating the %s capture failed" % args.workload, 3)
        os.replace(tmp, path)
        os.replace(tmp + ".manifest", manifest_path)
    with open(manifest_path) as f:
        manifest = json.load(f)
    expected = (args.workload, args.seed, args.scale)
    if (manifest["workload"], manifest["seed"], manifest["scale"]) != expected:
        fail("manifest %s describes another capture" % manifest_path, 3)
    check_pins(manifest)
    os.utime(path)
    prune_cache(args)
    return path, manifest


def prune_cache(args):
    """Keeps the most recently used captures of this workload and scale, so
    runs over many seeds and builds do not fill the disk (a capture is
    30-150 MB)."""
    prefix = "%s-%s-s" % (args.workload, args.scale)
    captures = [os.path.join(CAPTURES, name)
                for name in os.listdir(CAPTURES)
                if name.startswith(prefix) and name.endswith(".pcap")]
    captures.sort(key=os.path.getmtime, reverse=True)
    for stale in captures[CACHED_CAPTURES:]:
        for leftover in (stale, stale + ".manifest"):
            if os.path.exists(leftover):
                os.remove(leftover)


def describe(manifest):
    packets = manifest["packets"]
    share = lambda key: 100.0 * manifest[key] / packets
    print("capture %s seed %d (%s): %d packets, %.2f%% SIP, %.2f%% RTP, "
          "%.2f%% RTCP, %.2f%% other; %.1f s simulated, %.1f MB; warm-up %d "
          "packets; reference %d alerts, digest %s; generated in %.1f s" % (
              manifest["workload"], manifest["seed"], manifest["engine"],
              packets, share("sip"), share("rtp"), share("rtcp"),
              share("other"), manifest["span_ns"] / 1e9,
              manifest["bytes"] / 1e6, manifest["warmup_packets"],
              manifest["ref_alerts"], manifest["ref_digest"],
              manifest["generate_s"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    path, manifest = capture(binary, args)
    describe(manifest)
    sys.stdout.flush()

    cmd = [binary, "replay", "--workload", args.workload, "--capture", path,
           "--packets", str(manifest["packets"]),
           "--warmup", str(manifest["warmup_packets"]),
           "--digest", manifest["ref_digest"],
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale == "toy":
        cmd.append("--toy")
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-%s-s%d.spans" % (
            args.workload, args.scale, args.seed))]
    try:
        code, out = run(cmd, REPLAY_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("replay timed out", 3)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("replay exited with %d and printed no result" % code, 3)
    print("\n".join(lines))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
