"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
Set-up time runs from the parent's spawn timestamp (``--spawn``, a
``time.monotonic`` reading, which is system-wide on Linux) to the end of
input generation and ``ProblemSpec`` construction, so it covers interpreter
start and imports.  It is also reported at the calibration probe's nominal
speed, from probes taken at the start of the interpreter and after set-up
(their own time is excluded).
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import PROBE_NOMINAL_S, Gates, Tracer, probe  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Import subharnack from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import subharnack
    if Path(subharnack.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"subharnack imported from {subharnack.__file__}, "
                         f"not from {SRC}")


def _reference(path, size, workload, seed):
    """The headline record for this workload and seed, or None; an empty
    path means no record."""
    if not path or not Path(path).exists():
        return None
    table = json.loads(Path(path).read_text()).get(size, {}).get(workload, {})
    return table.get("*", table.get(str(seed)))


def _blas_info():
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name") for k in ("blas", "lapack") if k in deps}
    except (KeyError, TypeError, AttributeError):
        return {}


def main():
    probe_start = probe()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawn", type=float, default=T_START)
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    args = ap.parse_args()

    _import_program()
    import numpy
    import scipy

    from workloads import REFERENCE_RTOL, WORKLOADS

    setup, run = WORKLOADS[args.workload]
    reference = _reference(args.reference, args.size, args.workload,
                           args.seed)
    gates = Gates(reference, REFERENCE_RTOL[args.workload])
    tracer = Tracer(bool(args.trace), gates)
    state = setup(args.seed, args.size)
    setup_s = time.monotonic() - args.spawn - probe_start
    probe_setup = (probe_start + probe()) / 2.0

    t0 = time.perf_counter()
    run(state, tracer, gates)
    timing = tracer.finish()
    # wall time of the timed region without the probes in it
    wall_s = time.perf_counter() - t0 - sum(timing["probe_s"])

    out = {
        "setup_s": setup_s,
        "setup_norm_s": setup_s * PROBE_NOMINAL_S / probe_setup,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **timing,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "failures": gates.failures[:20],
        "headline": gates.headline,
        "reference_used": reference is not None,
        "counts": tracer.counts,
        "spans": tracer.spans,
        "sizes": state["sizes"],
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": _blas_info()},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
