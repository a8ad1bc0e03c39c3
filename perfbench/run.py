#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fb3_ff5_lz --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

A run builds the driver program (this directory, over the library in src/)
into .bench_build/perfbench, makes the workload's inputs from the seed
(cached per seed and build), runs the driver, checks that the exact counts
repeat those of earlier runs with the same build, seed and thread count,
prints a table of the metrics and, as its last line, the result:
{"correct", "attempted", "failed", "metrics"}. The metrics are the
end_to_end ones of BENCHMARK.json with --trace 0 and its per_layer ones with
--trace 1. README.md defines every workload and metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fb3_ff5_lz", "lattice_ffpr", "service_ff5")
BUILD_TIMEOUT_S = 880  # the first run in a checkout builds the library
STEP_TIMEOUT_S = 160   # generating inputs, or one measured run


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def call(cmd, env, timeout):
    """Runs cmd with its output on stderr. On a timeout or an interrupt the
    whole process group, cmake's compilers too, is killed."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise BenchError(f"{' '.join(map(str, cmd[:2]))} exited with status {code}")


def build(bdir, env):
    """Builds the driver; returns its path and a digest that keys caches."""
    if not (bdir / "CMakeCache.txt").exists():
        call(["cmake", "-S", str(HERE), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env, BUILD_TIMEOUT_S)
    jobs = str(len(os.sched_getaffinity(0)))
    call(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs],
         env, BUILD_TIMEOUT_S)
    exe = bdir / "perfbench"
    return exe, hashlib.sha256(exe.read_bytes()).hexdigest()[:16]


def inputs(exe, digest, bdir, env, workload, seed, tiny):
    """The workload's input files for this seed, generated once per build."""
    d = bdir / "inputs" / f"{workload}-seed{seed}{'-tiny' if tiny else ''}-{digest}"
    if not (d / "done").exists():
        d.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=".gen-", dir=d.parent))
        cmd = [str(exe), "gen", f"--workload={workload}", f"--seed={seed}",
               f"--out={tmp}"]
        call(cmd + (["--tiny"] if tiny else []), env, STEP_TIMEOUT_S)
        (tmp / "done").touch()
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
    return d


def measure(exe, bdir, env, workload, inputs_dir, seconds, trace, corrupt=False):
    out = bdir / f"result-{os.getpid()}.json"
    cmd = [str(exe), "run", f"--workload={workload}", f"--inputs={inputs_dir}",
           f"--seconds={seconds:g}", f"--trace={trace}", f"--out={out}"]
    if corrupt:
        cmd.append("--corrupt")
    try:
        call(cmd, env, STEP_TIMEOUT_S)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def name_problems(doc, trace):
    """The printed metrics must be exactly BENCHMARK.json's, unit for unit."""
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    problems = [f"metric {n} is in BENCHMARK.json but not printed" for n in sorted(set(want) - set(got))]
    problems += [f"metric {n} is printed but not in BENCHMARK.json" for n in sorted(set(got) - set(want))]
    problems += [f"metric {n}: unit {got[n]}, BENCHMARK.json says {want[n]}"
                 for n in sorted(set(want) & set(got)) if want[n] != got[n]]
    return problems


def exact_problems(doc, bdir, inputs_dir):
    """Exact counts must repeat across runs of one build, seed and thread count."""
    path = bdir / "exact" / f"{inputs_dir.name}-threads{int(doc['info']['executor_threads'])}.json"
    exact = doc["exact"]
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return [f"determinism: {k} = {exact.get(k)}, an earlier run had {earlier.get(k)}"
            for k in sorted(set(earlier) | set(exact)) if earlier.get(k) != exact.get(k)]


def report(doc, args, problems):
    info = doc["info"]
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={info['nproc']:g} "
          f"executor_threads={info['executor_threads']:g}")
    metrics = doc["metrics"]
    width = max(len(name) for name in list(metrics) + ["fail_ratio"])
    for name in sorted(metrics):
        print(f"  {name:<{width}}  {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  {'fail_ratio':<{width}}  {failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print("  " + "  ".join(f"{k}={v:g}" for k, v in sorted(info.items())))
    for p in problems:
        print(f"  problem: {p}")
    result = {
        "correct": attempted >= 1 and failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def selftest(exe, digest, bdir, env):
    """Tiny inputs for every workload: both runs print exactly the declared
    metrics and pass their checks, and one perturbed pair flow fails one op."""
    failures = []
    for workload in WORKLOADS:
        d = inputs(exe, digest, bdir, env, workload, 1, tiny=True)
        for trace in (0, 1):
            doc = measure(exe, bdir, env, workload, d, 1, trace)
            problems = name_problems(doc, trace) + doc["problems"]
            if doc["failed"] or doc["attempted"] < 1:
                problems.append(f"{doc['failed']} of {doc['attempted']} ops failed")
            failures += [f"{workload} --trace {trace}: {p}" for p in problems]
        doc = measure(exe, bdir, env, workload, d, 1, 0, corrupt=True)
        if doc["failed"] != 1:
            failures.append(f"{workload}: a perturbed pair_flow gave {doc['failed']} "
                            f"failed ops, not 1")
        print(f"{workload}: {'FAIL' if failures else 'ok'}", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources (src/) in this checkout, nothing to measure")
        return 2

    bdir = build_root()
    env = dict(os.environ)
    env["TMPDIR"] = str(bdir / "tmp")  # compiler temporaries stay in the checkout
    try:
        (bdir / "tmp").mkdir(parents=True, exist_ok=True)
        exe, digest = build(bdir, env)
        if args.selftest:
            return selftest(exe, digest, bdir, env)
        d = inputs(exe, digest, bdir, env, args.workload, args.seed, tiny=False)
        doc = measure(exe, bdir, env, args.workload, d, args.seconds, args.trace)
        problems = (doc["problems"] + name_problems(doc, args.trace) +
                    exact_problems(doc, bdir, d))
        report(doc, args, problems)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
