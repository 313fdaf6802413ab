"""Layered benchmark of vfunc: end-to-end figures, or per-layer traced costs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-p5 --seed 1 --seconds 34 --trace 0

One run generates the workload's pairs from the seed (see workloads.py):
a few warm-up pairs, then the timed pairs.  It then measures in rounds,
for --seconds in all and at least MIN_ROUNDS rounds.  Each round

1. starts a fresh closed-loop client process (client.py), which imports
   vfunc, builds the field and validates the pairs (one set-up sample),
   runs the warm-up pairs untimed and then times each timed pair once;
   with --trace 1 a second fresh client does the same under the layer
   tracer (tracer.py);
2. runs the CLI serially and with two workers: one ``vfunc sweep`` call
   for sweep workloads, and for filtration-p5 one ``vfunc filtration``
   process per pair, one or two at a time.

Every round repeats the same work, so each figure is a mean over all
rounds: the speed of a shared host drifts by tens of percent over tens of
seconds, and a figure taken from one stretch of the run would measure that
drift.  A fresh client per round keeps the library's per-pair caches cold,
as they are for every pair of a real sweep.

Every pair is checked (formula against oracle, or quotient compatibility),
the CLI rows likewise; every round must reproduce the first round's results
and CLI output byte for byte, and both CLI batches must print the same
bytes.  The digests of the first round's results and CLI output are
compared with golden.json when it holds this workload and seed.
Human-readable lines come first; the last line of stdout is the JSON result
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).  Exit code 2, with no result, when the checkout has no vfunc
sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import tracer
from workloads import (WORKLOADS, GeneratorExhausted, digest_bytes,
                       digest_rows, generate)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
MIN_ROUNDS = 3
JOBS = 2
RUN_BUDGET_S = 170.0  # a run must end well inside three minutes
# Above the 90th percentile, per-pair times on a shared host measure
# preemption by other tenants more than the program.
TAIL_CAP = 90.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 1:
            raise BenchError("run exceeded its time budget")
        return left


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _kill_group(proc) -> None:
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def _reap(proc) -> None:
    """Kill the child's process group if it still runs; wait; close pipes."""
    _kill_group(proc)
    proc.wait()
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()


def run_process(cmd, deadline: Deadline) -> tuple[int, bytes]:
    """(exit code, stdout) of a child that must end by the deadline."""
    # Own process group, so a timeout also ends any worker the child forked.
    proc = subprocess.Popen(
        [str(c) for c in cmd], cwd=ROOT, env=_child_env(),
        start_new_session=True, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from exc
    finally:
        _reap(proc)
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode, out


class Client:
    """A client.py process; its start to "ready" is one set-up sample."""

    def __init__(self, payload: bytes, deadline: Deadline):
        t0 = time.perf_counter()
        # stderr is inherited, so a failing client explains itself.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "client.py")], cwd=ROOT,
            env=_child_env(), start_new_session=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.watchdog = threading.Timer(deadline.left(), _kill_group,
                                        (self.proc,))
        self.watchdog.start()
        try:
            self._send(payload)
            if self.proc.stdout.readline().strip() != b"ready":
                raise BenchError("client failed to set up")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _send(self, line: bytes) -> None:
        try:
            self.proc.stdin.write(line + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BenchError("client exited early") from exc

    def request(self, line: str) -> dict:
        self._send(line.encode())
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"client gave no answer to {line!r}")
        return json.loads(reply)

    def run(self, start: int, count: int, traced: bool) -> dict:
        return self.request(f"run {start} {count} {int(traced)}")

    def finish(self) -> dict:
        try:
            return self.request("done")
        finally:
            self.close()

    def close(self) -> None:
        self.watchdog.cancel()
        _reap(self.proc)


def client_round(workload, payload: bytes, traced: bool,
                 deadline: Deadline) -> dict:
    """One fresh client: set up, warm up, time each timed pair once.

    Returns the set-up seconds, the rows of every pair in pool order, the
    timed pairs' seconds, the failed pairs, the peak RSS and, when traced,
    the layer summary and the count of wrappers left installed.
    """
    client = Client(payload, deadline)
    try:
        warm = client.run(0, workload.warmup, False)
        timed = client.run(workload.warmup, workload.timed_pairs, traced)
        final = client.finish()
    finally:
        client.close()
    return {"setup_s": client.setup_s,
            "rows": warm["rows"] + timed["rows"],
            "times": timed["times"],
            "failed": warm["failed"] + timed["failed"],
            "maxrss_kb": timed["maxrss_kb"],
            "layers": final["layers"],
            "leftover_wrappers": final["leftover_wrappers"]}


# -- CLI ---------------------------------------------------------------------

def _cli(*args) -> list:
    return [sys.executable, "-m", "vfunc.cli", *args]


def cli_commands(workload, seed: int, jobs: list[dict], workdir: Path):
    """(serial commands, two-worker commands, how many run at once); every
    round runs the same commands."""
    count = workload.cli_pairs
    if workload.pipeline == "sweep":
        base = _cli("sweep", "--p", workload.p, "--n", 2, "--max-degree",
                    workload.max_degree, "--seed", seed, "--count", count)
        return [base], [base + ["--jobs", JOBS]], 1
    cmds = []
    for i in range(count):
        path = workdir / f"job{i}.json"
        path.write_text(json.dumps(jobs[i]))
        cmds.append(_cli("filtration", "--input", path))
    return cmds, cmds, JOBS


def run_batch(cmds, width: int, deadline: Deadline):
    """(wall seconds, [(exit code, stdout)]) running ``width`` at a time."""
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=width) as pool:
        results = list(pool.map(lambda c: run_process(c, deadline), cmds))
    return time.perf_counter() - t0, results


def check_cli(workload, outputs, rows) -> int:
    """Failed CLI pairs in one batch's outputs; ``rows`` are the in-process
    results of the leading pairs (filtration only)."""
    count = workload.cli_pairs
    if workload.pipeline == "sweep":
        (code, out), = outputs
        csv_rows = list(csv.reader(io.StringIO(out.decode())))[1:]
        if code not in (0, 4) or len(csv_rows) != count:
            return count
        return sum(row[4] != "true" for row in csv_rows)
    failed = 0
    for (code, out), row in zip(outputs, rows):
        try:
            report = json.loads(out) if code == 0 else {}
        except json.JSONDecodeError:
            report = {}
        failed += not (report.get("quotient_compat") is True
                       and report.get("fingerprint") == row[0])
    return failed


def digests(jobs, rows, cli_outputs) -> dict:
    """Digests of the pairs with their in-process results, and of the
    serial CLI output."""
    return {"pairs": digest_rows(zip(jobs, rows)),
            "cli": digest_bytes(out for _, out in cli_outputs)}


def load_golden(workload, seed: int) -> dict | None:
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text()).get(workload.name, {}).get(str(seed))


# -- result ------------------------------------------------------------------

def environment(workload, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "workload": workload.name, "seed": seed}


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile up to
    TAIL_CAP with at least ten samples above it, or the maximum when that
    percentile would not even reach the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    beyond = max(10, math.ceil(n * (1 - TAIL_CAP / 100)))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def pair_means(rounds: list[dict]) -> list[float]:
    """Each timed pair's mean seconds over the rounds."""
    return [statistics.fmean(ts) for ts in zip(*(r["times"] for r in rounds))]


def end_to_end(plain: list[dict], cli_walls, cli_pairs: int) -> dict:
    means = pair_means(plain)
    return {
        "pairs_per_s": (1 / statistics.fmean(means), "1/s"),
        "pair_ms_p50": (statistics.median(means) * 1e3, "ms"),
        "pair_ms_tail": (tail(means)[0] * 1e3, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in plain)
                        / 1024, "MB"),
        "cli_pairs_per_s": (cli_pairs / cli_walls[0], "1/s"),
        "cli_jobs2_pairs_per_s": (cli_pairs / cli_walls[1], "1/s"),
    }


def merge_layers(summaries) -> dict:
    """Sum the traced clients' layer summaries; a missing target stays None."""
    out: dict = {}
    for summary in summaries:
        for name, data in summary.items():
            if data is None:
                out.setdefault(name, None)
            elif out.get(name) is None:
                out[name] = dict(data)
            else:
                for key, value in data.items():
                    out[name][key] += value
    return out


def per_layer(plain: list[dict], traced: list[dict], cli_walls) -> dict:
    """Per traced pair: self ms and calls of each target, plus extras."""
    n = sum(len(r["times"]) for r in traced)
    layers = merge_layers(r["layers"] for r in traced)

    def per_pair(metric, key, scale=1.0):
        data = layers.get(metric)
        return None if data is None else data[key] * scale / n

    out = {}
    for target in tracer.TARGETS:
        name = target.metric
        if target.timed:
            out[name + "_ms"] = (per_pair(name, "self_s", 1e3), "ms")
        out[name + "_calls"] = (per_pair(name, "calls"), "count")
        if target.weight is not None:
            out[name + "_n3_sum"] = (per_pair(name, "weight"), "count")
    out["vfunction.v_oracle_total_ms"] = (
        per_pair("vfunction.v_oracle", "total_s", 1e3), "ms")
    out["cli.jobs2_speedup"] = (cli_walls[0] / cli_walls[1], "ratio")
    plain_s = sum(sum(r["times"]) for r in plain)
    traced_s = sum(sum(r["times"]) for r in traced)
    out["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    return out


def measure(workload, seed: int, seconds: float, trace: int,
            min_rounds: int = MIN_ROUNDS) -> dict:
    """Run every round and return the result record."""
    deadline = Deadline(RUN_BUDGET_S)
    jobs = generate(workload, seed)
    payload = json.dumps({"p": workload.p, "n": 2,
                          "pipeline": workload.pipeline,
                          "pairs": jobs}).encode()
    plain, traced, cli_walls, cli_out = [], [], [0.0, 0.0], []
    cli_failed = mismatched_rounds = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as workdir:
        serial_cmds, jobs2_cmds, width = cli_commands(workload, seed, jobs,
                                                      Path(workdir))
        began = time.perf_counter()
        while True:
            plain.append(client_round(workload, payload, False, deadline))
            if trace:
                traced.append(client_round(workload, payload, True,
                                           deadline))
            serial_wall, serial_out = run_batch(serial_cmds, 1, deadline)
            jobs2_wall, jobs2_out = run_batch(jobs2_cmds, width, deadline)
            cli_walls[0] += serial_wall
            cli_walls[1] += jobs2_wall
            rows = plain[0]["rows"]
            cli_failed += (check_cli(workload, serial_out, rows)
                           + check_cli(workload, jobs2_out, rows))
            if not cli_out:
                cli_out = serial_out
            # Every round must print the first round's bytes, in both
            # batches, and compute the first round's rows.
            mismatched_rounds += (serial_out != cli_out
                                  or jobs2_out != cli_out
                                  or any(r["rows"] != rows
                                         for r in (plain[-1], *traced[-1:])))
            done = len(plain)
            spent = time.perf_counter() - began
            # Stop before a round that would end past --seconds.
            if done >= min_rounds and spent * (done + 1) / done > seconds:
                break

    found = digests(jobs, plain[0]["rows"], cli_out)
    golden = load_golden(workload, seed)
    mismatched = [k for k in found if golden and golden.get(k) != found[k]]

    # Operations: every pair run in-process or by the CLI, plus the checks
    # that each round reproduces the first one's results and CLI output,
    # that the digests match golden.json and that the tracer left no
    # wrapper behind.
    rounds = plain + traced
    attempted = (sum(len(r["rows"]) for r in rounds)
                 + 2 * workload.cli_pairs * len(plain) + len(plain))
    failed = (sum(r["failed"] for r in rounds) + cli_failed
              + mismatched_rounds)
    if golden:
        attempted += len(found)
        failed += len(mismatched)
    if trace:
        attempted += len(traced)
        failed += sum(r["leftover_wrappers"] > 0 for r in traced)
    cli_pairs = workload.cli_pairs * len(plain)
    metrics = (per_layer(plain, traced, cli_walls) if trace else
               end_to_end(plain, cli_walls, cli_pairs))
    _, pct, beyond = tail(pair_means(plain))
    return {
        "env": environment(workload, seed),
        "rounds": len(plain),
        "measured_s": round(time.perf_counter() - began, 3),
        "tail": {"percentile": pct, "pairs": workload.timed_pairs,
                 "beyond": beyond},
        "failed_frac": failed / attempted,
        "failures": {"pairs": sum(r["failed"] for r in rounds),
                     "cli_pairs": cli_failed,
                     "rounds_not_reproduced": mismatched_rounds,
                     "digest_mismatch": mismatched},
        "first_failing_rows": [r for r in plain[0]["rows"]
                               if r[0] == "error"][:3],
        "digests": found,
        "golden_checked": golden is not None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the finally
    # blocks stop the children and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (SRC / "vfunc" / "__init__.py").is_file():
            raise BenchError(f"no vfunc sources under {SRC}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        sys.path.insert(0, str(SRC))
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(WORKLOADS)}")
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         args.trace)
    except (BenchError, GeneratorExhausted, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value} {unit}")
    summary = {k: v for k, v in record.items()
               if k not in ("correct", "attempted", "failed", "metrics")}
    print("record " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
