"""Compare a parent and a change by the benchmark's own rule.

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR --claim wall_rel:pipeline

PARENT_DIR and CHANGE_DIR are checkouts of the two commits.  This copy of
the benchmark runs in both, so the two sides use identical benchmark code
and settings: every workload, ten pairs, BENCHMARK.json's run length.  Pair
``i`` runs seed ``i`` on both sides, the parent first in even pairs and the
change first in odd ones.  The records go to ``.perfbench/compare.json``.

The claimed metric and workload count as improved only when the change wins
at least nine tenths of the pairs (ties count for neither side), its median
beats the parent's by more than the distance between the parent's quartiles,
and no more operations failed than on the parent.  Every other metric and
workload is checked against the metric's bound from BENCHMARK.json and
reported as improved, unchanged, worse or unresolved; unresolved means the
parent's own spread is wider than the bound and not every change run beat
every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PAIRS = 10
WIN_SHARE = 0.9
OUT = Path(".perfbench") / "compare.json"


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_pairs(parent: Path, change: Path, workloads: list[str], seconds: int) -> list[dict]:
    records = []
    for seed in range(PAIRS):  # pair i runs seed i
        order = (("parent", parent), ("change", change))
        if seed % 2:
            order = order[::-1]
        for workload in workloads:
            for side, root in order:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    raise RuntimeError(f"{side} run failed ({workload}, seed {seed}):\n"
                                       + proc.stderr)
                records.append({"pair": seed, "seed": seed, "workload": workload, "side": side,
                                "summary": json.loads(lines[-1])})
                print(f"# pair {seed} {workload} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}"
                                  for k, v in records[-1]["summary"]["metrics"].items()),
                      flush=True)
    return records


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            claimed: bool, more_failures: bool) -> dict:
    """Compare paired runs of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    gain = sign * (p_med - c_med)  # positive when the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    strong = (wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1
              and not more_failures)
    if claimed:
        status = "improved" if strong else "not shown"
    elif all(sign * (p - c) > 0 for p in parent for c in change) and not more_failures:
        status = "improved"
    elif p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        status = "unresolved"
    elif p_med and -gain / abs(p_med) > bound:
        status = "worse"
    else:
        status = "improved" if strong else "unchanged"
    return {"status": status, "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "wins": wins, "pairs": len(parent)}


def analyse(records: list[dict], spec: list[dict], claim: tuple[str, str]) -> dict:
    """Verdicts per workload and metric."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        mine = [r for r in records if r["workload"] == workload]
        sides = {side: sorted((r for r in mine if r["side"] == side), key=lambda r: r["pair"])
                 for side in ("parent", "change")}
        failed = {side: sum(r["summary"]["failed"] for r in rs) for side, rs in sides.items()}
        row = {"failed": failed}
        for metric in spec:
            name = metric["name"]
            values = {side: [r["summary"]["metrics"][name]["value"] for r in rs]
                      for side, rs in sides.items()}
            row[name] = verdict(values["parent"], values["change"], metric["better"],
                                metric["bound"], (name, workload) == claim,
                                failed["change"] > failed["parent"])
        out[workload] = row
    return out


def print_table(result: dict, claim: tuple[str, str]) -> None:
    print(f"# claim: {claim[0]} on {claim[1]}")
    for workload, row in result.items():
        cells = [f"{name} {v['status']} ({v['parent_median']:.4g} [{v['parent_q1']:.4g}.."
                 f"{v['parent_q3']:.4g}] -> {v['change_median']:.4g}, wins {v['wins']}/"
                 f"{v['pairs']})" for name, v in row.items() if name != "failed"]
        print(f"{workload}: failed {row['failed']['parent']} -> {row['failed']['change']}; "
              + "; ".join(cells))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", required=True, metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    metric, _, workload = args.claim.partition(":")
    claim = (metric, workload)
    bench = load_spec(BENCH.parent)
    spec = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    if metric not in {m["name"] for m in spec} or workload not in names:
        parser.error(f"--claim names no end-to-end metric and workload: {args.claim!r}")
    records = run_pairs(args.parent.resolve(), args.change.resolve(), names,
                        bench["run_seconds"])
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"claim": args.claim, "records": records}, fh, indent=1)
    result = analyse(records, spec, claim)
    print_table(result, claim)
    print(json.dumps({w: {m: v["status"] for m, v in row.items() if m != "failed"}
                      for w, row in result.items()}))
    return 0
