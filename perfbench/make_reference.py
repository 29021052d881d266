"""Regenerate the headline reference record, ``perfbench/reference.json``.

    python3 perfbench/make_reference.py --seeds 0-99 [--size full]

Runs every workload once per seed, untraced, with every gate checked, and
merges the headline outputs into the record (``spectral`` ignores the seed
and is stored once, under ``"*"``).  Each record comes from a repetition
started as ``run.py`` starts it: a fresh interpreter with one thread, so the
Mittag-Leffler ray cache starts cold.  Refuses to write if any gate fails.
Only regenerate it when a change is meant to alter the outputs, and say so.
"""

import argparse
import json
import sys

from run import HERE, SIZES, WORKLOADS, RepetitionError, spawn


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    ap.add_argument("--size", choices=SIZES, default="full")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    path = HERE / "reference.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    for name in WORKLOADS:
        table = record.setdefault(args.size, {}).setdefault(name, {})
        seeds = [0] if name == "spectral" else range(first, last + 1)
        for seed in seeds:
            try:
                rep = spawn(name, seed, args.size, trace=False, reference="")
            except RepetitionError as exc:
                sys.exit(f"{name} seed {seed}: {exc}")
            if rep["failed"] or not rep["attempted"]:
                sys.exit(f"{name} seed {seed}: {rep['failed']} of "
                         f"{rep['attempted']} gates failed: {rep['failures'][:5]}")
            table["*" if name == "spectral" else str(seed)] = rep["headline"]
            print(f"{name} seed {seed}: {rep['attempted']} gates passed",
                  flush=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
