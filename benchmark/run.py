#!/usr/bin/env python3
"""Benchmark of record: builds benchmark/suite.cpp and runs its workloads.

One run of one workload (the last stdout line is the result object, the
line before it the machine block):
    python3 benchmark/run.py --workload engine-dense --seed 7 --seconds 20 --trace 0

A full set (every workload: one discarded warm-up process, then three
measured processes; prints median, q1, q3 and n per metric):
    python3 benchmark/run.py --seed=1            # end-to-end metrics
    python3 benchmark/run.py --seed=1 --trace    # per-layer metrics + spans

Harness checks:
    python3 benchmark/run.py --quick [--sanitize=address|thread]
    python3 benchmark/run.py --check

Only the standard library is used. Everything is built and written under
.bench_build/ in the checkout root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
OUT_DIR = ROOT / ".bench_build"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SUITE_TIMEOUT_S = 170
QUICK_SECONDS = 0.3
# --quick may run on a sanitizer build; every other mode refuses one.
SANITIZER_FLAGS = {
    "address": "-fsanitize=address,undefined -fno-omit-frame-pointer",
    "thread": "-fsanitize=thread -fno-omit-frame-pointer",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_declaration():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def declaration_errors(decl):
    """Problems with BENCHMARK.json itself: names, units and bounds."""
    errors = []
    seen = set()

    def check_name(kind, item):
        name = item.get("name")
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append(f"{kind} name {name!r} does not match {NAME_RE.pattern}")
        elif name in seen:
            errors.append(f"{kind} name {name!r} is used twice")
        seen.add(name)

    for w in decl.get("workloads", []):
        check_name("workload", w)
        if not w.get("why"):
            errors.append(f"workload {w.get('name')!r} has no why")
    for kind in ("end_to_end", "per_layer"):
        for m in decl.get(kind, []):
            check_name(kind, m)
            if not isinstance(m.get("unit"), str) or not UNIT_RE.match(m["unit"]):
                errors.append(f"{kind} metric {m.get('name')!r} has no valid unit")
            if m.get("better") not in ("higher", "lower"):
                errors.append(f"{kind} metric {m.get('name')!r} has no better")
    bounds = {}
    for m in decl.get("end_to_end", []):
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            errors.append(f"end_to_end metric {m.get('name')!r} has no bound in (0, 0.25]")
        else:
            bounds[m.get("name")] = bound
    if "setup_s" not in bounds:
        errors.append("end_to_end metric setup_s is not declared")
    elif bounds["setup_s"] < max(bounds.values()):
        errors.append("setup_s must carry the largest bound")
    if not decl.get("workloads"):
        errors.append("no workloads declared")
    return errors


def result_errors(decl, result, trace):
    """Disagreements between the declaration and one suite result."""
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in decl[kind]}
    emitted = result.get("metrics", {})
    errors = []
    for name, unit in declared.items():
        if name not in emitted:
            errors.append(f"{result.get('workload')}: declared {kind} metric {name} is missing")
        elif emitted[name].get("unit") != unit:
            errors.append(f"{result.get('workload')}: {name} unit {emitted[name].get('unit')!r}, declared {unit!r}")
        elif not isinstance(emitted[name].get("value"), (int, float)):
            errors.append(f"{result.get('workload')}: {name} has no numeric value")
    for name in emitted:
        if name not in declared:
            errors.append(f"{result.get('workload')}: undeclared metric {name} emitted")
        if not NAME_RE.match(name):
            errors.append(f"{result.get('workload')}: metric name {name!r} is malformed")
    return errors


def build(sanitize=None):
    """Configures and builds the suite; returns the binary's path."""
    build_dir = OUT_DIR / ("benchmark" if sanitize is None else f"benchmark-{sanitize}")
    # Configuring every time is cheap once cached, and recovers from a
    # configure step that failed half-way.
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)]
    if sanitize is None:
        cmd.append("-DCMAKE_BUILD_TYPE=Release")
    else:
        flags = SANITIZER_FLAGS[sanitize]
        cmd += ["-DCMAKE_BUILD_TYPE=Debug", f"-DCMAKE_CXX_FLAGS={flags}",
                f"-DCMAKE_EXE_LINKER_FLAGS={flags}"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(build_dir), "--target", "suite", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return build_dir / "suite"


def run_suite(binary, workload, seed, seconds, trace, quick=False):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}"]
    if quick:
        cmd.append("--quick")
    if trace:
        traces = OUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans-out={traces / f'{workload}-seed{seed}.json'}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=SUITE_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: suite exceeded {SUITE_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: suite exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"{workload}: suite printed no JSON result") from e


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_block(result):
    machine = dict(result["machine"])
    machine["git_sha"] = git_sha()
    machine["valid"] = result["valid"]
    return machine


def emit(obj):
    """Prints one strict JSON line (no NaN or Infinity) to stdout."""
    print(json.dumps(obj, allow_nan=False))


def require_valid(result):
    if not result["valid"]:
        raise BenchError(
            "refusing to summarise results from a build with assertions or "
            f"sanitizers enabled: {json.dumps(result['machine'])}")


def single_run(decl, args):
    """One run of one workload: machine line, then result line."""
    binary = build()
    result = run_suite(binary, args.workload, args.seed, args.seconds, args.trace)
    require_valid(result)
    errors = result_errors(decl, result, args.trace)
    if errors:
        raise BenchError("; ".join(errors))
    emit({"machine": machine_block(result)})
    emit({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    })
    return 0 if result["correct"] else 1


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def full_set(decl, args):
    """Every workload: one discarded warm-up process, three measured ones."""
    binary = build()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in decl[kind]}
    summary = {}
    machine = None
    failed_any = False
    start = time.monotonic()
    for w in decl["workloads"]:
        name = w["name"]
        log(f"== {name}: warm-up")
        run_suite(binary, name, args.seed, QUICK_SECONDS, False, quick=True)
        results = []
        for rep in range(3):
            log(f"== {name}: rep {rep + 1}/3")
            result = run_suite(binary, name, args.seed, args.seconds, args.trace)
            require_valid(result)
            errors = result_errors(decl, result, args.trace)
            if errors:
                raise BenchError("; ".join(errors))
            machine = machine or machine_block(result)
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        failed_any = failed_any or failed > 0
        metrics = {}
        for metric in units:
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = dict(summarise(values), unit=units[metric])
        steal = statistics.median(r["machine"]["steal_frac"] for r in results)
        summary[name] = {"metrics": metrics, "error_rate": failed / attempted,
                         "attempted": attempted, "steal_frac": steal}
    log(f"full set took {time.monotonic() - start:.0f} s")
    print_table(summary, units)
    emit({"machine": machine, "seed": args.seed, "seconds": args.seconds,
          "trace": bool(args.trace), "workloads": summary})
    return 1 if failed_any else 0


def print_table(summary, units):
    header = f"{'metric':<50} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}"
    for name, entry in summary.items():
        print(f"\n{name}  (error_rate {entry['error_rate']:.6g} over "
              f"{entry['attempted']} phases, steal_frac {entry['steal_frac']:.3f})")
        print(header)
        for metric in units:
            m = entry["metrics"][metric]
            print(f"{metric:<50} {m['unit']:>6} {m['median']:>14.6g} "
                  f"{m['q1']:>14.6g} {m['q3']:>14.6g} {m['n']:>3}")


def quick_runs(decl, binary, seed):
    """Every workload at ~1/50 length, untraced and traced; sinks checked."""
    results = []
    for w in decl["workloads"]:
        for trace in (False, True):
            result = run_suite(binary, w["name"], seed, QUICK_SECONDS, trace,
                               quick=True)
            log(f"{w['name']} trace={int(trace)}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"valid={result['valid']}")
            results.append((trace, result))
    return results


def quick(decl, args):
    """Validates the harness fast; the only mode a sanitizer build may run."""
    binary = build(args.sanitize)
    start = time.monotonic()
    ok = all(r["correct"] for _, r in quick_runs(decl, binary, args.seed))
    log(f"quick run took {time.monotonic() - start:.1f} s")
    emit({"quick": True, "correct": ok})
    return 0 if ok else 1


def check(decl, args):
    """Fails when BENCHMARK.json and the suite's output disagree."""
    errors = declaration_errors(decl)
    for trace, result in quick_runs(decl, build(), args.seed):
        errors += result_errors(decl, result, trace)
        if not result["correct"]:
            errors.append(f"{result['workload']}: sink output differs from the reference")
    for e in errors:
        log(f"check: {e}")
    emit({"check": not errors, "errors": len(errors)})
    return 1 if errors else 0


def main():
    decl = load_declaration()
    workloads = [w["name"] for w in decl["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     allow_abbrev=False)
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=decl["run_seconds"],
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="report per-layer metrics and write spans")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="all workloads at ~1/50 length, sink checks on")
    mode.add_argument("--check", action="store_true",
                      help="check BENCHMARK.json against the suite's output")
    parser.add_argument("--sanitize", choices=sorted(SANITIZER_FLAGS),
                        help="with --quick: build with a sanitizer")
    args = parser.parse_args()
    if args.sanitize and not args.quick:
        parser.error("--sanitize is only allowed with --quick")
    if args.workload and (args.quick or args.check):
        parser.error("--workload runs one measured run; drop --quick/--check")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    try:
        if args.quick:
            return quick(decl, args)
        if args.check:
            return check(decl, args)
        if args.workload:
            return single_run(decl, args)
        return full_set(decl, args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
