#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # every workload, short, checks on

Builds the library and the pimbench program from source (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs pimbench with the given arguments and relays its output; the last
line is the JSON result. A run that has not ended after RUN_TIMEOUT seconds
is killed and reported (pimbench's own watchdog normally ends a stuck run
first).
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_read", "serve_write", "engine_read")
RUN_TIMEOUT = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds pimbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out / "pimbench"


def run_once(binary, args, run_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(run_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.pool_lanes is not None:
        cmd += ["--pool-lanes", str(args.pool_lanes)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run killed after {RUN_TIMEOUT} s: workload={args.workload} seed={args.seed}")
        return 124, ""
    return proc.returncode, out


def smoke(binary, run_dir):
    """Short runs of every workload, untraced and traced, checks on."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace,
                                      smoke=True, pool_lanes=None)
            code, out = run_once(binary, args, run_dir)
            sys.stdout.write(out)
            last = out.strip().splitlines()[-1] if out.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            good = code == 0 and result.get("correct") is True and result.get("failed") == 0
            log(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} (exit {code})")
            ok = ok and good
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload briefly, untraced and traced, with checks on")
    p.add_argument("--pool-lanes", type=int,
                   help="override the one-lane pool pin (reproduces the multi-lane deadlock)")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    run_dir = out / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(binary, run_dir)
    code, text = run_once(binary, args, run_dir)
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
