#!/usr/bin/env python3
"""Leopard end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --knee        # diagnostic rate ladder, not gated
    python3 perfbench/run.py --self-test   # the benchmark's own tests

Builds perfbench/main.exe with dune from the checkout it sits in, runs the
workload once in a fresh process and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end ones of
BENCHMARK.json; with --trace 1 they are the per_layer ones, from a traced
run, with trace.overhead taken against an untraced run made just before.
A per-layer metric of a layer the workload does not use reads 0.
--seconds is the load time of each TCP repetition; sim-scale always
simulates its fixed 30 s window.

Writes only inside the checkout: dune's _build/, and _perfbench/ for the
WAL directories and the recorded spans.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(ROOT, "_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    e = dict(os.environ)
    # Dune's shared cache lives outside the checkout.
    e["DUNE_CACHE"] = "disabled"
    return e


def build(target, *extra):
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found next to perfbench/: run from a full checkout" % need, 2)
    if shutil.which("dune") is None:
        fail("dune not found on PATH", 2)
    p = subprocess.run(["dune", "build", "--root", ".", target, *extra], cwd=ROOT, env=env(),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                       timeout=850)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")
    return p.stdout


def run_exe(args):
    """Runs main.exe once; returns (log lines, parsed JSON result)."""
    p = subprocess.run([EXE] + args, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        fail("main.exe %s exited with %d" % (" ".join(args), p.returncode))
    return lines[:-1], json.loads(lines[-1])


def value(result, name):
    m = result["metrics"].get(name)
    return None if m is None else m["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--knee", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    if a.self_test:
        sys.stdout.write(build("@perfbench/selftest", "--force"))
        return
    build("./perfbench/main.exe")
    os.makedirs(OUT, exist_ok=True)
    if a.knee:
        print("host: nproc %d" % os.cpu_count(), flush=True)
        sys.exit(subprocess.run([EXE, "--knee", "--seconds", "5"], cwd=ROOT, env=env()).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r (have %s)" % (a.workload, ", ".join(names)), 2)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]

    log, plain = run_exe(common + ["--trace", "0"])
    if a.trace == 0:
        result, wanted, default = plain, bench["end_to_end"], None
    else:
        spans = os.path.join(OUT, "spans-%s.tsv" % a.workload)
        log, result = run_exe(common + ["--trace", "1", "--spans", spans])
        base, traced = value(plain, "cpu_us_per_req"), value(result, "cpu_us_per_req")
        result["metrics"]["trace.overhead"] = {"value": traced / base - 1, "unit": "ratio"}
        result["correct"] = result["correct"] and plain["correct"]
        wanted, default = bench["per_layer"], 0.0

    metrics = {}
    for m in wanted:
        v = value(result, m["name"])
        if v is None:
            if default is None:
                fail("workload %s did not report %s" % (a.workload, m["name"]))
            v = default
        elif not math.isfinite(v):
            fail("workload %s reported a non-finite %s" % (a.workload, m["name"]))
        elif result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail("%s: unit %r, BENCHMARK.json says %r"
                 % (m["name"], result["metrics"][m["name"]]["unit"], m["unit"]))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    for line in log:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
