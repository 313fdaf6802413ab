"""Checks of the benchmark's own machinery; none asserts a wall-clock bound."""

import json

import pytest

import client
import run
import tracer
import vfunc
import workloads
from vfunc.extension_algebra import LElement
from vfunc.laurent import LaurentPoly

SMALL = workloads.Workload("small-p3", 3, 5, "sweep", warmup=2, timed_pairs=4,
                           cli_pairs=1, why="test")


def _payload(workload, seed):
    return {"p": workload.p, "n": workloads.N, "pipeline": workload.pipeline,
            "pairs": workloads.generate(workload, seed)}


def test_generator_is_deterministic_per_seed():
    first = workloads.generate(SMALL, 7)
    assert workloads.generate(SMALL, 7) == first
    assert workloads.generate(SMALL, 8) != first
    assert len(first) == SMALL.pool
    for job in first:
        assert job["a"].split(",")[1] != "0"  # outside the prime field
        for key in ("g1", "g2"):
            assert all(e < 0 and e % SMALL.p for e, _ in job[key])


def test_generator_gives_up_after_capped_retries(monkeypatch):
    def always_invalid(*_args):
        raise vfunc.G1Zero("rejected")

    monkeypatch.setattr(vfunc, "validate_pair", always_invalid)
    with pytest.raises(workloads.GeneratorExhausted):
        workloads.generate(SMALL, 1)


def test_mutated_result_row_trips_the_digest():
    payload = _payload(SMALL, 3)
    lib, pairs = client.load(payload)
    result = client.timed_pass(lib, "sweep", pairs)
    assert result["failed"] == 0
    jobs, rows = payload["pairs"], result["rows"]
    cli = [(0, b"g1,g2,v_formula\n")]
    found = run.digests(jobs, rows, cli)
    assert run.digests(jobs, json.loads(json.dumps(rows)), cli) == found
    mutated = [list(row) for row in rows]
    mutated[-1][0] += 1  # v_formula of the last pair
    assert run.digests(jobs, mutated, cli)["pairs"] != found["pairs"]
    assert run.digests(jobs, rows, [(0, b"g1,g2,v_oracle\n")])[
        "cli"] != found["cli"]


def _bindings():
    return {
        "vfunction.kernel": vfunc.vfunction.kernel,
        "extension_algebra.det": vfunc.extension_algebra.det,
        "ramification.reduce_to_J": vfunc.ramification.reduce_to_J,
        "package.v_oracle": vfunc.v_oracle,
        "LElement.__rmul__": LElement.__dict__["__rmul__"],
        "LaurentPoly.__mul__": LaurentPoly.__dict__["__mul__"],
    }


def test_wrappers_cover_every_binding_and_are_removed():
    before = _bindings()
    _, pairs = client.load(_payload(SMALL, 4))
    with tracer.Tracer() as tr:
        inside = _bindings()
        assert all(inside[k] is not before[k] for k in before)
        assert tracer.installed_wrappers()
        client.timed_pass(vfunc, "sweep", pairs[:1], tr)
    assert _bindings() == before
    assert tracer.installed_wrappers() == []
    layers = tr.summary()
    assert layers["exact_linalg.kernel"]["calls"] == 1
    assert layers["exact_linalg.det"]["weight"] == 2 * 9 ** 3
    assert layers["finite_field.mul"]["calls"] > 0
    oracle = layers["vfunction.v_oracle"]
    assert 0 <= oracle["self_s"] <= oracle["total_s"]


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            raise ZeroDivisionError
    assert _bindings() == before
    assert tracer.installed_wrappers() == []


def test_missing_target_reads_none():
    gone = tracer.Target("exact_linalg.gone", "vfunc.exact_linalg",
                         "no_such_function")
    with tracer.Tracer((gone,)) as tr:
        pass
    assert tr.summary()["exact_linalg.gone"] is None


def test_self_time_subtracts_children():
    tr = tracer.Tracer(())
    outer, inner = tr.root("outer"), tr.root("inner")
    a = tr.begin(outer)
    b = tr.begin(inner)
    tr.end(b)
    tr.end(a)
    layers = tr.summary()
    total = layers["outer"]["total_s"]
    assert layers["outer"]["self_s"] == pytest.approx(
        total - layers["inner"]["total_s"])
    assert tr.span_parent[b] == a and tr.span_parent[a] == -1


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    fake = {t.metric: {"calls": 1, "self_s": 1.0, "total_s": 1.0, "weight": 1}
            for t in tracer.TARGETS}
    plain = [{"times": [1.0, 2.0], "setup_s": 1.0, "maxrss_kb": 1024}]
    layers = run.per_layer(plain, [{"times": [1.0, 2.0], "layers": fake}],
                           (1.0, 1.0))
    e2e = run.end_to_end(plain, (1.0, 1.0), 8)
    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: unit for name, (_, unit) in metrics.items()}
    for w in workloads.WORKLOADS.values():
        # The CLI's filtration reports are checked against the in-process
        # rows of the leading pairs of the pool.
        assert w.pipeline == "sweep" or w.pool >= w.cli_pairs


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run.signal, "signal", lambda *_: None)
    assert run.main(["--workload", "sweep-p3", "--seed", "1",
                     "--seconds", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no vfunc sources" in err


def test_pair_times_are_means_over_rounds():
    rounds = [{"times": [1.0, 4.0]}, {"times": [3.0, 2.0]}]
    assert run.pair_means(rounds) == [2.0, 3.0]


def test_layer_summaries_add_up_and_missing_targets_stay_none():
    first = {"a": {"calls": 1, "self_s": 0.5}, "gone": None}
    second = {"a": {"calls": 2, "self_s": 0.25}, "gone": None}
    assert run.merge_layers([first, second]) == {
        "a": {"calls": 3, "self_s": 0.75}, "gone": None}
    assert first["a"] == {"calls": 1, "self_s": 0.5}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(1, 31)]
    assert run.tail(times) == (20.0, pytest.approx(100 * 20 / 30), 10)
    assert run.tail(times[:19]) == (19.0, 100.0, 0)
    # Past 100 samples the tail stays at the 90th percentile.
    many = [float(i) for i in range(1, 201)]
    assert run.tail(many) == (180.0, 90.0, 20)
