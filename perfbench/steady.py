"""Steadiness mode: do two sets of runs of the same code agree?

    python3 perfbench/run.py --steady --workload cluster-warm --runs 10 \\
        --seconds 10 --seed 1 --held-out-seed 9001

Runs ``--runs`` seeds twice, interleaved run by run (A, B, A, B, ...),
each run a fresh ``run.py`` process.  For every end-to-end metric of the
workload it prints each set's median and quartiles, the spread (quartile
distance over median) and the worsening of B's median against A's, and
whether both stay within the metric's declared bound.  ``--held-out-seed``
adds one more A/B pair on a seed that was not used while tuning; the
pair's mean must fall inside the sets' pooled quartiles widened by the
bound, i.e. the unseen seed behaves like the tuned ones.  Exit code 0 when every
metric agrees and every run passed its output checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

from perfbench import metrics


def run_once(script: str, workload: str, seed: int, seconds: float,
             record_dir: str, label: str) -> Dict:
    record = os.path.join(record_dir, f"{label}-{seed}.json")
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--record", record]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"run {label} seed {seed} failed ({done.returncode})")
    with open(record) as fh:
        return json.load(fh)


def values(records: List[Dict], name: str) -> List[float]:
    return [r["end_to_end"][name]["value"] for r in records
            if name in r["end_to_end"]]


def main(args, script: str) -> int:
    workload = args.workload
    record_dir = os.path.join(os.path.dirname(os.path.dirname(script)),
                              ".perfbench", "steady")
    os.makedirs(record_dir, exist_ok=True)
    record_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=record_dir)
    sets: Dict[str, List[Dict]] = {"A": [], "B": []}
    for i in range(args.runs):
        for label in ("A", "B"):
            record = run_once(script, workload, args.seed + i, args.seconds,
                              record_dir, label)
            sets[label].append(record)
            print(f"  {label} seed {args.seed + i}: "
                  + ", ".join(f"{k}={v['value']:.5g}"
                              for k, v in record["end_to_end"].items()),
                  flush=True)

    print(f"\nsteadiness {workload}: {args.runs} runs per set, "
          f"seconds={args.seconds:g}")
    print(f"  {'metric':14s} {'bound':>6s} | {'A q1':>10s} {'A med':>10s} "
          f"{'A q3':>10s} {'A spr':>6s} | {'B q1':>10s} {'B med':>10s} "
          f"{'B q3':>10s} {'B spr':>6s} | {'B vs A':>7s}  agree")
    agree_all = True
    for name in metrics.metrics_for(workload):
        bound = metrics.END_TO_END[name][2]
        a, b = values(sets["A"], name), values(sets["B"], name)
        if not a or not b:
            continue
        qa, qb = metrics.quartiles(a), metrics.quartiles(b)
        if name == "fail_frac":
            agree = max(a + b) == 0
            spread_a = spread_b = worse = 0.0
        else:
            spread_a, spread_b = metrics.spread(a), metrics.spread(b)
            worse = metrics.worsening(name, qa[1], qb[1])
            agree = abs(worse) <= bound and max(spread_a, spread_b) <= bound
        agree_all &= agree
        print(f"  {name:14s} {bound:6.2f} | {qa[0]:10.5g} {qa[1]:10.5g} "
              f"{qa[2]:10.5g} {spread_a:6.3f} | {qb[0]:10.5g} {qb[1]:10.5g} "
              f"{qb[2]:10.5g} {spread_b:6.3f} | {worse:+7.3f}  "
              f"{'yes' if agree else 'NO'}")

    if args.held_out_seed is not None:
        print(f"\nheld-out seed {args.held_out_seed}: one more A, B pair")
        pooled = sets["A"] + sets["B"]
        held = [run_once(script, workload, args.held_out_seed, args.seconds,
                         record_dir, f"held-{label}") for label in ("A", "B")]
        for name in metrics.metrics_for(workload):
            if name not in held[0]["end_to_end"]:
                continue
            a, b = (r["end_to_end"][name]["value"] for r in held)
            bound = metrics.END_TO_END[name][2]
            q1, _, q3 = metrics.quartiles(values(pooled, name))
            mean = (a + b) / 2
            ok = q1 * (1 - bound) <= mean <= q3 * (1 + bound)
            agree_all &= ok
            print(f"  {name:14s} A {a:12.5g}  B {b:12.5g}  pooled quartiles "
                  f"[{q1:.5g}, {q3:.5g}]  {'inside' if ok else 'OUTSIDE'}")
    print(f"\nrecords in {os.path.relpath(record_dir)}")
    return 0 if agree_all else 1
