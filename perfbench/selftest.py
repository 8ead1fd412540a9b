#!/usr/bin/env python3
"""Self-test of the saSTA benchmark (smoke-size inputs, a few minutes).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
  1. every workload, untraced and traced, prints a last line with exactly
     the keys correct/attempted/failed/metrics, and every metric that
     BENCHMARK.json names for that mode, with the unit it declares;
  2. a deliberately broken correctness gate (a zero golden tolerance)
     raises the failure count and makes the run exit nonzero;
  3. in a directory holding only BENCHMARK.json and the benchmark's files,
     the benchmark exits nonzero without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def run(args, cwd=ROOT):
    r = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return r.returncode, last_json(r.stdout), r.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, res, _ = run(["--workload", w["name"], "--seed", "1",
                                "--seconds", "1", "--trace", str(trace),
                                "--smoke"])
            label = "%s --trace %d" % (w["name"], trace)
            check(code == 0 and res is not None and
                  sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"] and
                  res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, label + ": clean result")
            got = (res or {}).get("metrics", {})
            for m in spec[group]:
                v = got.get(m["name"])
                check(v is not None and v.get("unit") == m["unit"] and
                      isinstance(v.get("value"), (int, float)),
                      "%s: %s [%s]" % (label, m["name"], m["unit"]))
            check(set(got) == {m["name"] for m in spec[group]},
                  label + ": no metric outside BENCHMARK.json")

    code, res, _ = run(["--workload", "batch_iscas", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--smoke",
                        "--golden-tol-pct", "0"])
    check(code != 0 and res is not None and res["failed"] > 0 and
          not res["correct"],
          "zero golden tolerance: failures counted, nonzero exit")

    bare = os.path.join(ROOT, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        code, res, out = run(["--workload", "batch_iscas", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=bare)
        check(code != 0 and res is None,
              "bare benchmark directory: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
