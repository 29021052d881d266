"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh single-threaded
interpreter (so the Mittag-Leffler ray cache starts cold, as it does for
every CLI invocation), until the next one would end after ``--seconds``;
at least three are always run.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics, the tracing overhead, and
the raw (not normalised) end-to-end times and calibration probe time of
its untraced repetitions.
The last stdout line is one JSON object; the full record, the run manifest
and the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PROBE_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# the keys of workloads.WORKLOADS and workloads.SIZES; this process does not
# import NumPy or the program, so it names them here
WORKLOADS = ("memory1d", "rough2d", "ensemble", "spectral")
SIZES = ("full", "tiny")
MIN_REPS = 3
REP_TIMEOUT_S = 150
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# tail percentile: the highest on this ladder that has at least ten samples
# beyond it; with ten or fewer samples, the maximum
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

LAYERS = (
    "solver.solve_subdiffusion",
    "solver.supersolution_residual",
    "solver.solve_scalar_relaxation",
    "kernels.ml_on_negative_axis",
    "kernels.mittag_leffler",
    "kernels.yosida_kernels",
    "kernels.yosida_l1_distance",
    "fundsol.optimality_experiment",
    "fundsol.spatial_mass",
    "fundsol.FundamentalSolutionEvaluator.profile",
    "fracops.fundamental_identity_residual",
    "fracops.commutation_residual_1",
    "fracops.commutation_residual_2",
    "harnack.harnack_ratio_sweep",
    "harnack.oscillation_decay",
    "harnack.max_principle_check",
    "harnack.weighted_poincare_check",
)
COMPUTED = (
    ("solver.solve_subdiffusion.node_levels", "count"),
    ("solver.solve_subdiffusion.history_pairs", "count"),
    ("solver.solve_subdiffusion.u_bytes", "bytes"),
    ("fundsol.FundamentalSolutionEvaluator.profile.radii", "count"),
)


class RepetitionError(RuntimeError):
    pass


def spawn(workload: str, seed: int, size: str, trace: bool,
          reference: str) -> dict:
    """Run one repetition (``rep.py``) in a fresh single-threaded
    interpreter and return its record.  ``reference`` is the path of the
    reference record, or "" to compare with none."""
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace)),
           "--reference", reference, "--spawn", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(f"repetition exited with {proc.returncode}:\n"
                              f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    """Linear-interpolated q-th percentile."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q
    return 100.0


def layer_stats(rep: dict) -> dict:
    """Busy time, self time, calls and failures per layer for one traced
    repetition; self time subtracts the direct child spans."""
    spans = rep["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    root = 0.0
    for (name, start, end, parent, failed), inner in zip(spans, child):
        st = out.setdefault(name, {"s": 0.0, "self": 0.0, "calls": 0, "failed": 0})
        st["s"] += end - start
        st["self"] += end - start - inner
        st["calls"] += 1
        st["failed"] += int(failed)
        if parent < 0:
            root += end - start
    out["bench.unattributed"] = {"self": rep["wall_s"] - root}
    return out


def _cache_info() -> list:
    """Cache levels of cpu0, read-only from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    caches = []
    for idx in sorted(base.glob("index*")):
        try:
            size = (idx / "size").read_text().strip()
            caches.append({"level": int((idx / "level").read_text()),
                           "type": (idx / "type").read_text().strip(),
                           "bytes": int(size.rstrip("K")) * 1024})
        except (OSError, ValueError):
            continue
    return caches


def manifest(args, reps: list) -> dict:
    caches = _cache_info()
    llc = max((c for c in caches if c["type"] != "Instruction"),
              key=lambda c: c["level"], default=None)
    l2 = next((c for c in caches if c["level"] == 2), None)
    sizes = reps[0]["sizes"]
    state = sizes.get("state_bytes", 0)
    return {
        "versions": reps[0]["versions"],
        "threads": THREAD_ENV,
        "processes": 1,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "seed": args.seed,
        "seed_used": sizes.get("seed_used", True),
        "workload": args.workload,
        "size": args.size,
        "sizes": sizes,
        "state_bytes_over_l2": state / l2["bytes"] if l2 else None,
        "state_bytes_over_llc": state / llc["bytes"] if llc else None,
        "reference_used": reps[0]["reference_used"],
    }


def per_layer(traced: list) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    stats = [layer_stats(r) for r in traced]
    metrics = {}
    for layer in LAYERS + ("bench.unattributed",):
        per = [s.get(layer, {}) for s in stats]
        if layer != "bench.unattributed":
            for key, unit in (("s", "s"), ("calls", "count"), ("failed", "count")):
                metrics[f"{layer}.{key}"] = (
                    statistics.median(p.get(key, 0) for p in per), unit)
        metrics[f"{layer}.self_share"] = (statistics.median(
            p.get("self", 0.0) / r["wall_s"] for p, r in zip(per, traced)), "ratio")
    for name, unit in COMPUTED:
        metrics[name] = (traced[0]["counts"].get(name, 0), unit)
    return metrics


def end_to_end(plain: list):
    """End-to-end metrics at nominal speed, and the same raw ("raw.*").

    Each problem's median over the repetitions is taken first; the sum and
    the percentiles are then over the problems, so the sample count of the
    percentiles is the number of problems."""
    n_problems = len(plain[0]["problem_ms"])
    q_tail = tail_percentile(n_problems)
    metrics = {}
    for suffix, key in (("", "problem_norm_ms"), ("raw.", "problem_ms")):
        per_problem = [statistics.median(r[key][i] for r in plain)
                       for i in range(n_problems)]
        metrics[f"{suffix}wall_s"] = (sum(per_problem) / 1e3, "s")
        metrics[f"{suffix}setup_s"] = (statistics.median(
            r["setup_norm_s" if not suffix else "setup_s"] for r in plain), "s")
        metrics[f"{suffix}problem_ms_p50"] = (statistics.median(per_problem), "ms")
        metrics[f"{suffix}problem_ms_tail"] = (quantile(per_problem, q_tail), "ms")
    metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    speed = "at the probe's nominal speed"
    notes = {
        "wall_s": f"sum of {n_problems} per-problem medians over "
                  f"{len(plain)} repetitions, {speed}",
        "setup_s": f"interpreter, imports, inputs; median, {speed}",
        "problem_ms_p50": f"median of {n_problems} per-problem medians, {speed}",
        "problem_ms_tail": f"p{q_tail:g} of {n_problems} per-problem medians, {speed}",
    }
    notes.update({f"raw.{k}": "the same, raw" for k in notes})
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "subharnack" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    min_reps = 2 * MIN_REPS if args.trace else MIN_REPS
    reps = []
    t0 = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - t0
            if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > args.seconds:
                break
            # a traced run alternates untraced and traced repetitions
            reps.append(spawn(args.workload, args.seed, args.size,
                              bool(args.trace) and len(reps) % 2 == 1,
                              str(args.reference)))
    except RepetitionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    plain = [r for k, r in enumerate(reps) if not (args.trace and k % 2 == 1)]
    traced = [r for k, r in enumerate(reps) if args.trace and k % 2 == 1]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    # every repetition of one seed must give identical gated outputs
    for k, r in enumerate(reps[1:], start=1):
        attempted += 1
        if r["headline"] != reps[0]["headline"]:
            failed += 1
            failures.append(f"repetition {k}: headline outputs differ from "
                            f"repetition 0")
    if attempted == 0 or any(r["attempted"] == 0 for r in reps):
        print("perfbench: a repetition attempted no gated operation",
              file=sys.stderr)
        return 1

    probe_ms = 1e3 * statistics.median(p for r in plain for p in r["probe_s"])
    metrics, notes = end_to_end(plain)
    metrics["bench.probe_ms"] = (probe_ms, "ms")
    notes["bench.probe_ms"] = (f"median calibration probe, untraced "
                               f"(nominal {1e3 * PROBE_NOMINAL_S:g} ms)")
    if args.trace:
        overhead = end_to_end(traced)[0]["wall_s"][0] - metrics["wall_s"][0]
        # the raw end-to-end values and the probe time go out with the
        # per-layer metrics, so a change at nominal speed can be checked
        # against them
        extra = {k: v for k, v in metrics.items() if k.startswith(("raw.", "bench."))}
        metrics = {**per_layer(traced), "trace.overhead_s": (overhead, "s"), **extra}
        notes["trace.overhead_s"] = "traced minus untraced wall_s"
    lines = [f"{name:58s} {value:14.6g} {unit:6s} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    if not args.trace:
        metrics = {k: v for k, v in metrics.items()
                   if not k.startswith(("raw.", "bench."))}
    lines.append(f"{'fail_ratio':58s} {failed / attempted:14.6g} {'ratio':6s} "
                 f"failed {failed} / attempted {attempted}")
    ref = "compared" if reps[0]["reference_used"] else "none for this seed"
    lines.append(f"reference record: {ref}; threads pinned to 1; "
                 f"{len(reps)} repetitions in {time.monotonic() - t0:.1f} s")
    for f in failures[:10]:
        lines.append(f"FAILED {f}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {"result": result, "fail_ratio": failed / attempted,
              "failures": failures, "manifest": manifest(args, reps),
              "repetitions": [{k: v for k, v in r.items() if k != "spans"}
                              for r in reps]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            [[rep_id, *span] for rep_id, r in enumerate(reps) if r["spans"]
             for span in r["spans"]]))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
