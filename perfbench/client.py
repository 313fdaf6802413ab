"""Closed-loop client: one serial caller of the public vfunc API.

Protocol on stdin/stdout, one line each:

  <- {"p", "n", "pipeline", "pairs"}   the generated pairs as job dicts
  -> ready                             vfunc imported, field built, pairs
                                       validated (the set-up point)
  <- run START COUNT TRACED            run pairs[START:START+COUNT] one
  -> {"times", "rows", "failed", ...}  after another, each once; TRACED 1
                                       installs the layer tracer meanwhile;
                                       "maxrss_kb" is the peak RSS so far
  <- done (or end of input)
  -> {"layers", "leftover_wrappers"}

Library calls go through the ``vfunc`` package attributes, so the tracer's
wrappers are seen while installed.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _sweep(vfunc, pair):
    rf = vfunc.v_formula(pair)
    ro = vfunc.v_oracle(pair)
    fingerprint = vfunc.filtration_fingerprint(vfunc.upper_filtration(pair))
    ok = rf.value == ro.value and rf.s == ro.s
    return ok, [rf.value, rf.s, ro.value, ro.s, fingerprint]


def _filtration(vfunc, pair):
    upper = vfunc.upper_filtration(pair)
    lower = vfunc.lower_filtration(pair)
    compat = vfunc.quotient_compat_check(pair)
    return compat, [vfunc.filtration_fingerprint(upper),
                    vfunc.filtration_fingerprint(lower), compat]


PIPELINES = {"sweep": _sweep, "filtration": _filtration}


def timed_pass(vfunc, pipeline, pairs, tracer=None):
    """Run each pair once, in order.

    Returns per-pair seconds, result rows and the number of failed pairs.
    A pair fails when it raises or its own check does not hold.
    """
    run = PIPELINES[pipeline]
    root = tracer.root("pair") if tracer is not None else None
    times, rows, failed = [], [], 0
    for pair in pairs:
        t0 = time.perf_counter()
        span = tracer.begin(root) if tracer is not None else None
        try:
            ok, row = run(vfunc, pair)
        except Exception as exc:  # a failing pair must not end the run
            ok, row = False, ["error", type(exc).__name__, str(exc)]
        finally:
            if tracer is not None:
                tracer.end(span)
        times.append(time.perf_counter() - t0)
        rows.append(row)
        failed += not ok
    return {"times": times, "rows": rows, "failed": failed}


def load(data):
    import vfunc

    field = vfunc.FieldParams(data["p"], data["n"])
    pairs = [vfunc.validate_pair(field, field.parse(job["a"]),
                                 vfunc.LaurentPoly.from_pairs(field, job["g1"]),
                                 vfunc.LaurentPoly.from_pairs(field, job["g2"]))
             for job in data["pairs"]]
    return vfunc, pairs


def main() -> int:
    data = json.loads(sys.stdin.readline())
    vfunc, pairs = load(data)
    print("ready", flush=True)
    tr = None
    for line in sys.stdin:
        cmd = line.split()
        if cmd[0] == "done":
            break
        start, count, traced = int(cmd[1]), int(cmd[2]), cmd[3] == "1"
        chosen = pairs[start:start + count]
        if traced:
            if tr is None:
                import tracer

                tr = tracer.Tracer()
            with tr:
                result = timed_pass(vfunc, data["pipeline"], chosen, tr)
        else:
            result = timed_pass(vfunc, data["pipeline"], chosen)
        result["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result), flush=True)
    final = {"layers": None, "leftover_wrappers": 0}
    if tr is not None:
        final["layers"] = tr.summary()
        final["leftover_wrappers"] = len(tracer.installed_wrappers())
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
