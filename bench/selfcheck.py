"""Self-check of the benchmark harness (not of the package).

    python3 bench/selfcheck.py

1. Runs every workload of BENCHMARK.json in both modes on a 32-node mesh
   with nq = 16 and one task, and checks the result line: its keys, that it
   names exactly the metrics of the mode with their units, and that the
   failure count agrees with the failures listed by type.
2. Shows that the output checks are live: a line task with an impossible
   root tolerance must raise CheckFailed.
3. Copies BENCHMARK.json and the benchmark's own directories into an
   otherwise empty directory and checks that the benchmark refuses to run
   there (nonzero exit, no result line).

Exits 1 and lists the problems if any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_tiny_passes(spec, problems):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{wl['name']} --trace {trace}"
            done = _run(spec["command"] + [
                "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny"], ROOT)
            res = _last_json(done.stdout)
            if done.returncode != 0 or res is None:
                problems.append(f"{tag}: exit {done.returncode}\n{done.stderr}")
                continue
            info = json.loads(done.stdout.strip().splitlines()[-2])["info"]
            if set(res) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if info["tasks"] != 1 or res["attempted"] != info["operations"] \
                    or res["failed"] != sum(info["failures"].values()):
                problems.append(f"{tag}: attempted/failed {res['attempted']}"
                                f"/{res['failed']} vs {info['failures']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics differ: missing "
                                f"{sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}")
            bad = [k for k, v in res["metrics"].items()
                   if not (isinstance(v["value"], (int, float))
                           and math.isfinite(v["value"]))]
            if bad:
                problems.append(f"{tag}: non-finite values {bad}")
            print(f"{tag}: ran, failures {info['failures']}")


def check_checks_are_live(problems):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    workloads.F_ROOT_TOL = -1.0
    try:
        workloads.line_task((0.5, 0.5, (1.0,)), 0, None)
        problems.append("line task passed an impossible root tolerance")
    except workloads.CheckFailed as exc:
        print(f"impossible root tolerance rejected: {exc}")


def check_bare_directory(spec, problems):
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(spec["command"] + [
        "--workload", spec["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or _last_json(done.stdout) is not None:
        problems.append(f"bare directory: exit {done.returncode}, "
                        f"stdout {done.stdout[-200:]!r}")
    else:
        print(f"bare directory refused: exit {done.returncode}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    check_tiny_passes(spec, problems)
    check_checks_are_live(problems)
    check_bare_directory(spec, problems)
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
