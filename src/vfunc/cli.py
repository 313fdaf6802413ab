"""Command-line front end: evaluate pairs, report filtrations, run sweeps.

Four subcommands:

  v              both value routes for one pair read from a JSON job file
  filtration     upper and lower break data, fingerprint, quotient check
  counterexample the fixed family g1 = t^-(p^2-1), g2 = c*t^-(p^2-1) + t^-1
                 swept over c outside the prime field
  sweep          randomized formula-versus-oracle cross-check, CSV output

Job files look like

  {"p": 2, "n": 2, "a": "0,1",
   "g1": [[-3, "1,0"]],
   "g2": [[-3, "0,1"], [-1, "1,0"]]}

with an optional "modulus" key ([c0, ..., cn] or "c0,...,cn") overriding
the built-in choice.  Exit codes: 0 success; 2 a usage error or a job file
that cannot be read, is not a JSON object or lacks a key; 3 invalid input,
any value the library rejects; 4 cross-check disagreement, failed internal
check or any other internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from .errors import (
    AInPrimeField,
    InputError,
    InternalCheckFailed,
    SamplingExhausted,
    TooManyTerms,
    VfuncError,
)
from .extension_algebra import MAX_TERMS, ExtensionPair, validate_pair
from .finite_field import FieldParams, FqElem
from .laurent import LaurentPoly
from .ramification import (
    Filtration,
    filtration_fingerprint,
    filtration_report,
    upper_filtration,
)
from .vfunction import VResult, v_formula, v_oracle

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_MISMATCH = 4


class _ParseFailure(Exception):
    """A bad option value, or a job file that is not a readable JSON
    object with every key; the library checks the values themselves."""


def _load_job(path: str) -> ExtensionPair:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # also bytes that are not UTF-8, too deep nesting, too long an int
        raise _ParseFailure(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _ParseFailure("job file must contain a JSON object")
    missing = [k for k in ("p", "n", "a", "g1", "g2") if k not in data]
    if missing:
        raise _ParseFailure(f"job file missing keys: {', '.join(missing)}")
    # The library checks every value, raising InputError on a bad one.
    field = FieldParams(data["p"], data["n"], data.get("modulus"))
    return validate_pair(field, field.parse(data["a"]),
                         LaurentPoly.from_pairs(field, data["g1"]),
                         LaurentPoly.from_pairs(field, data["g2"]))


def _both_routes(pair: ExtensionPair) -> tuple[VResult, VResult, bool]:
    """(formula, oracle, whether they agree on both v and s)."""
    rf = v_formula(pair)
    ro = v_oracle(pair)
    return rf, ro, rf.value == ro.value and rf.s == ro.s


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def cmd_v(args) -> int:
    rf, ro, agree = _both_routes(_load_job(args.input))
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["v_formula", "v_oracle", "agree", "s_formula",
                         "s_oracle"])
        writer.writerow([rf.value, ro.value, str(agree).lower(), rf.s, ro.s])
    else:
        _emit_json({"formula": rf._asdict(), "oracle": ro._asdict(),
                    "agree": agree})
    return EXIT_OK if agree else EXIT_MISMATCH


def _breaks_json(filt: Filtration) -> list[dict]:
    out = []
    for u, sub in filt.breaks:
        out.append({
            "height": u,
            "order": sub.order,
            "generators": [f"s{i}t{j}" for i, j in sub.gens],
        })
    return out


def cmd_filtration(args) -> int:
    upper, lower, compat = filtration_report(_load_job(args.input))
    _emit_json({
        "upper": _breaks_json(upper),
        "lower": _breaks_json(lower),
        "fingerprint": filtration_fingerprint(upper),
        "quotient_compat": compat,
    })
    return EXIT_OK


def _counterexample_family(field: FieldParams, c: FqElem) -> ExtensionPair:
    p = field.p
    depth = p * p - 1
    g1 = LaurentPoly.t_pow(field, -depth)
    g2 = LaurentPoly.t_pow(field, -depth, c) + LaurentPoly.t_pow(field, -1)
    return validate_pair(field, field.gen(), g1, g2)


def cmd_counterexample(args) -> int:
    field = FieldParams(args.p, args.n, args.modulus)
    if field.n < 2:
        raise AInPrimeField("counterexample needs n >= 2: with n = 1 the "
                            "generator a lies in the prime field")
    p = field.p
    a = field.gen()
    rows = []
    all_agree = True
    for c in field.elements():
        if c.is_in_prime_field():
            continue
        pair = _counterexample_family(field, c)
        rf, ro, agree = _both_routes(pair)
        all_agree = all_agree and agree
        rows.append({
            "c": str(c),
            "v": rf.value,
            "v_oracle": ro.value,
            "agree": agree,
            "fingerprint": filtration_fingerprint(upper_filtration(pair)),
        })
    fingerprints = {row["fingerprint"] for row in rows}
    values = {row["v"] for row in rows}
    exceptional = sorted(row["c"] for row in rows if row["v"] == 1)
    minus_ap = -(a ** p)
    minus_a2 = -(a * a)
    expected = (
        all_agree
        and len(fingerprints) == 1
        and len(values) == 2
        and len(exceptional) == 1
        and exceptional[0] == str(minus_ap)
        and all(row["v"] == p for row in rows if row["c"] != exceptional[0])
    )
    _emit_json({
        "p": p,
        "n": field.n,
        "a": str(a),
        "rows": rows,
        "filtration_constant": len(fingerprints) == 1,
        "v_constant": len(values) == 1,
        "exceptional_c": exceptional,
        "minus_a_pow_p": str(minus_ap),
        "minus_a_squared": str(minus_a2),
        "exceptional_matches_minus_a_pow_p":
            exceptional == [str(minus_ap)],
        "exceptional_matches_minus_a_squared":
            exceptional == [str(minus_a2)],
        "all_routes_agree": all_agree,
        "expected_pattern": expected,
    })
    return EXIT_OK if expected else EXIT_MISMATCH


# Rejected draws allowed per series and per pair.  For n >= 2 a draw is
# accepted with probability at least 1/3, so the cap is reached only when
# no valid draw exists.
_MAX_DRAWS = 1000


def _random_series(field: FieldParams, rng: random.Random,
                   max_degree: int) -> LaurentPoly:
    for _ in range(_MAX_DRAWS):
        terms = []
        for e in range(-max_degree, 0):
            if e % field.p == 0:
                continue
            c = field.random_element(rng)
            if not c.is_zero():
                terms.append((e, c))
        if terms:
            return LaurentPoly(field, terms)
    raise SamplingExhausted(f"no nonzero series in {_MAX_DRAWS} draws")


def _random_pair(field: FieldParams, rng: random.Random,
                 max_degree: int) -> ExtensionPair:
    for _ in range(_MAX_DRAWS):
        g1 = _random_series(field, rng, max_degree)
        g2 = _random_series(field, rng, max_degree)
        a = field.random_element(rng)
        try:
            return validate_pair(field, a, g1, g2)
        except InputError:
            continue
    raise SamplingExhausted(f"no valid pair in {_MAX_DRAWS} draws")


def _sweep_jobs(field: FieldParams, seed: int, count: int,
                max_degree: int) -> list[ExtensionPair]:
    rng = random.Random(seed)
    return [_random_pair(field, rng, max_degree) for _ in range(count)]


def _json_series(g: LaurentPoly) -> str:
    return json.dumps(g.to_pairs(), separators=(",", ":"))


def _sweep_row(pair: ExtensionPair) -> tuple:
    """One CSV row of a sweep."""
    rf, ro, agree = _both_routes(pair)
    return (_json_series(pair.g1), _json_series(pair.g2), rf.value,
            ro.value, str(agree).lower(), rf.s,
            filtration_fingerprint(upper_filtration(pair)))


def _sweep_rows(pairs: list[ExtensionPair], start: int, seed: int) -> list:
    """The rows of pairs start + 1, start + 2, ... of a sweep, in this
    process or a --jobs worker.  A VfuncError keeps its type and gains
    "pair i (seed S): " in front of its message; pair i counts from 1, so
    the same sweep with --count i ends on it."""
    rows = []
    for i, pair in enumerate(pairs, start + 1):
        try:
            rows.append(_sweep_row(pair))
        except VfuncError as exc:
            exc.args = (f"pair {i} (seed {seed}): {exc}",)
            raise
    return rows


def _forked_rows(pairs: list[ExtensionPair], share: int, seed: int) -> list:
    """_sweep_rows of every pair, one forked child per contiguous share.

    A child reads its share and the field's tables from the memory it
    inherits, so nothing is pickled on the way in; it fills its own θ
    caches.  It pickles (True, rows) or (False, exception) into its pipe
    and leaves by os._exit.  The parent reads the pipes in input order
    and re-raises a worker's exception, so the run fails as the serial
    one would; a child that wrote nothing raises InternalCheckFailed.
    Every child is reaped before this returns or raises, and those whose
    rows are no longer wanted are killed first.  The command line starts
    no thread, so no lock can be held across the fork.
    """
    import pickle  # only --jobs pays for it at start-up

    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (first pair's index, pid, read end of its pipe)
    read = 0
    try:
        for start in range(0, len(pairs), share):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        result = (True, _sweep_rows(
                            pairs[start:start + share], start, seed))
                    except Exception as exc:
                        result = (False, exc)
                    # pickled whole first, so a failure writes nothing
                    result = pickle.dumps(result)
                    with open(writer, "wb") as pipe:
                        pipe.write(result)
                finally:
                    os._exit(0)
            os.close(writer)
            children.append((start, pid, reader))
        rows = []
        for start, _, reader in children:
            with open(reader, "rb", closefd=False) as pipe:
                payload = pipe.read()
            read += 1
            if not payload:
                raise InternalCheckFailed(
                    f"the --jobs worker for pairs {start + 1} to "
                    f"{min(start + share, len(pairs))} (seed {seed}) ended "
                    f"without a result")
            ok, result = pickle.loads(payload)
            if not ok:
                raise result
            rows += result
        return rows
    finally:
        for _, _, reader in children:
            os.close(reader)
        if read < len(children):
            import signal
            for _, pid, _ in children[read:]:
                os.kill(pid, signal.SIGKILL)
        for _, pid, _ in children:
            os.waitpid(pid, 0)


def cmd_sweep(args) -> int:
    if args.count < 1:
        raise _ParseFailure("count must be positive")
    if args.max_degree < 1:
        raise _ParseFailure("max-degree must be positive")
    if args.jobs < 1:
        raise _ParseFailure("jobs must be positive")
    field = FieldParams(args.p, args.n, args.modulus)
    if field.n < 2:
        raise AInPrimeField("sweep needs n >= 2: with n = 1 every a lies "
                            "in the prime field")
    # Exponents -D..-1 prime to p: the most terms a drawn series can have.
    terms = args.max_degree - args.max_degree // field.p
    if terms > MAX_TERMS:
        raise TooManyTerms(f"--max-degree {args.max_degree} allows {terms} "
                           f"terms, more than MAX_TERMS = {MAX_TERMS}")
    pairs = _sweep_jobs(field, args.seed, args.count, args.max_degree)
    workers = (min(args.jobs, len(pairs), os.cpu_count() or 1)
               if hasattr(os, "fork") else 1)
    if workers > 1:
        # Shares of at most ceil(count / workers) pairs, one child each.
        results = _forked_rows(pairs, -(-len(pairs) // workers), args.seed)
    else:
        results = _sweep_rows(pairs, 0, args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["g1", "g2", "v_formula", "v_oracle", "agree", "s",
                     "fingerprint"])
    writer.writerows(results)
    ok = all(row[4] == "true" for row in results)
    return EXIT_OK if ok else EXIT_MISMATCH


#: argparse reads a value that starts with "-" as an option, so a modulus
#: with a negative first coordinate must be joined to the flag by "=".
_MODULUS_HELP = ('override modulus, constant term first, e.g. "1,1,1"; '
                 'write one whose first coordinate is negative as '
                 '--modulus=-2,0,1')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfunc",
        description="Exact v-values and ramification data for (Z/p)^2 "
                    "extensions of F_q((t)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_v = sub.add_parser("v", help="evaluate both value routes on one pair")
    p_v.add_argument("--input", required=True, help="path to a JSON job file")
    p_v.add_argument("--format", choices=("json", "csv"), default="json")
    p_v.set_defaults(func=cmd_v)

    p_f = sub.add_parser("filtration", help="ramification filtration report")
    p_f.add_argument("--input", required=True, help="path to a JSON job file")
    p_f.set_defaults(func=cmd_filtration)

    p_c = sub.add_parser("counterexample",
                         help="sweep the fixed family over c outside F_p")
    p_c.add_argument("--p", type=int, required=True)
    p_c.add_argument("--n", type=int, required=True)
    p_c.add_argument("--modulus", default=None, help=_MODULUS_HELP)
    p_c.set_defaults(func=cmd_counterexample)

    p_s = sub.add_parser("sweep",
                         help="random formula-versus-oracle cross-check")
    p_s.add_argument("--p", type=int, required=True)
    p_s.add_argument("--n", type=int, required=True)
    p_s.add_argument("--modulus", default=None, help=_MODULUS_HELP)
    p_s.add_argument("--max-degree", type=int, required=True,
                     help="largest pole order allowed in g1, g2")
    p_s.add_argument("--seed", type=int, required=True)
    p_s.add_argument("--count", type=int, required=True)
    p_s.add_argument("--jobs", type=int, default=1,
                     help="worker processes, forked after the pairs are "
                          "drawn and validated; at most one per CPU and per "
                          "pair, and 1 where os.fork does not exist "
                          "(default 1)")
    p_s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalCheckFailed as exc:
        print(f"internal check failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:
        # A bug, not bad input: one line and the internal-failure code.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
