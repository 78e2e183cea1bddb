#!/usr/bin/env python3
"""Termination verdicts and fresh-process analysis times of the
benchmark's constraint sets (the figures recorded in manifest.json).

    python3 perfbench/analyze_mappings.py

Each set is analyzed in its own interpreter, because ``analyze`` and
the precedence oracle memoize across calls: in one process, a second
overlapping set would look almost free.  The stratified mapping is
also tried with the key EGD the benchmark leaves out, under a
timeout of ``TIMEOUT_S`` seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import bibgen as B  # noqa: E402

#: Seconds one set's analysis may take before it is reported as
#: unfinished.
TIMEOUT_S = 60


def constraint_sets() -> dict:
    sets = dict(B.MAPPINGS)
    sets.update(B.KB_SIGMAS)
    sets["stratified+key_egd"] = (B.MAPPINGS["stratified"] + ";\n"
                                  + B.EXCLUDED_EGD)
    return sets


def analyze_one(name: str) -> dict:
    sys.path.insert(0, SRC)
    from repro.lang.parser import parse_constraints
    from repro.termination.report import analyze
    sigma = parse_constraints(constraint_sets()[name])
    started = time.perf_counter()
    report = analyze(sigma)
    return {"analyze_s": round(time.perf_counter() - started, 3),
            "verdict": report.as_row(),
            "every_sequence_bounded": report.guarantees_all_sequences,
            "scheduler_strategy": ("stratified"
                                   if report.recommended_strategy()
                                   else "round_robin")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(analyze_one(args.one)))
        return 0
    out = {}
    for name in constraint_sets():
        try:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", name],
                stdout=subprocess.PIPE, timeout=TIMEOUT_S, check=True)
            out[name] = json.loads(done.stdout)
        except subprocess.TimeoutExpired:
            out[name] = {"analyze_s": None,
                         "note": f"did not finish within {TIMEOUT_S} s"}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
