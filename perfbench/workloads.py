"""Workload table, the bounded pair generator and the golden-output digest.

Every workload draws dense random J-series the way ``vfunc sweep`` does:
each exponent in -D..-1 prime to p gets a uniformly random F_q coefficient
(zero coefficients drop out), and ``a`` is uniform on F_q minus F_p.  Fields
are F_{p^2} with the library's built-in modulus.  Pairs are emitted in the
JSON job format that ``vfunc v --input`` and ``vfunc filtration --input``
read, so the program under test receives only generated data.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

N = 2  # extension degree of every workload field

# Resampling caps.  Random dense series are valid with overwhelming
# probability, so hitting a cap means the generator or the library's
# validation changed, and the run stops with an error instead of spinning.
MAX_SERIES_TRIES = 64
MAX_PAIR_TRIES = 256


class GeneratorExhausted(RuntimeError):
    """No valid pair was found within the retry cap."""


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    max_degree: int
    # "sweep": v_formula, v_oracle, agreement and the upper fingerprint, as
    # one row of ``vfunc sweep``.  "filtration": the ``vfunc filtration``
    # report (upper, lower, fingerprint, quotient compatibility).
    pipeline: str
    # Leading pairs each client runs untimed, so that lazy set-up and the
    # interpreter's specialisation are done before timing starts.
    warmup: int
    # Pairs each client times, each once.  Every round runs the same pairs
    # in a fresh client, so no pair is ever served from the library's
    # per-pair caches, as in a real sweep.
    timed_pairs: int
    # Pairs the CLI runs per round: one ``vfunc sweep --count`` call for
    # sweep workloads, one ``vfunc filtration`` process per pair (the
    # leading pairs of the pool, whose in-process rows they must match)
    # otherwise.
    cli_pairs: int
    why: str

    @property
    def pool(self) -> int:
        """Distinct pairs generated per run: warm-up pairs, then timed."""
        return self.warmup + self.timed_pairs


WORKLOADS = {w.name: w for w in (
    Workload("sweep-p3", 3, 10, "sweep", warmup=4, timed_pairs=48,
             cli_pairs=16,
             why="many cheap pairs with 9x9 dets on narrow blocks: the "
                 "call-overhead regime where batching can lose and the "
                 "per-job cost of --jobs shows"),
    Workload("sweep-p5", 5, 10, "sweep", warmup=1, timed_pairs=6,
             cli_pairs=2,
             why="kernel, the conditions matrix and 25x25 dets dominate: "
                 "where a faster theta kernel or batched det must show"),
    Workload("filtration-p5", 5, 60, "filtration", warmup=8,
             timed_pairs=128, cli_pairs=4,
             why="filtration report only, no exact_linalg: measures "
                 "ramification and is the control any linalg change must "
                 "leave unchanged"),
)}


def _random_series(rng: random.Random, p: int, max_degree: int) -> list:
    for _ in range(MAX_SERIES_TRIES):
        terms = []
        for e in range(-max_degree, 0):
            if e % p == 0:
                continue
            c = [rng.randrange(p) for _ in range(N)]
            if any(c):
                terms.append([e, ",".join(map(str, c))])
        if terms:
            return terms
    raise GeneratorExhausted(f"no nonzero series in {MAX_SERIES_TRIES} tries")


def generate(workload: Workload, seed: int) -> list[dict]:
    """The run's pairs as job dicts; the same seed gives the same list.

    Each candidate is checked with the library's ``validate_pair`` and
    redrawn on ``InputError``, at most MAX_PAIR_TRIES times per pair.
    """
    from vfunc import FieldParams, InputError, LaurentPoly, validate_pair

    p = workload.p
    field = FieldParams(p, N)
    outside_prime = [c for c in field.elements() if not c.is_in_prime_field()]
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    jobs = []
    for _ in range(workload.pool):
        for _ in range(MAX_PAIR_TRIES):
            a = rng.choice(outside_prime)
            g1 = _random_series(rng, p, workload.max_degree)
            g2 = _random_series(rng, p, workload.max_degree)
            try:
                validate_pair(field, a, LaurentPoly.from_pairs(field, g1),
                              LaurentPoly.from_pairs(field, g2))
            except InputError:
                continue
            jobs.append({"p": p, "n": N, "a": str(a), "g1": g1, "g2": g2})
            break
        else:
            raise GeneratorExhausted(
                f"no valid pair in {MAX_PAIR_TRIES} tries")
    return jobs


def digest_rows(rows) -> str:
    """sha256 over ordered result rows, one canonical JSON line each."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(list(row), separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def digest_bytes(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
