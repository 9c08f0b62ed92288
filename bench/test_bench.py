"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import copy
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import rbakit  # noqa: E402


@pytest.fixture(scope="module")
def screen():
    return workloads.make("rank7_screen", ROOT)


def _report(x, force_float=False) -> dict:
    pipeline = run.Pipeline(rbakit, force_float)
    _, text, exc = pipeline.run(x)
    assert exc is None, exc
    return json.loads(text)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    w = workloads.make(name, ROOT)
    a = [(x.id, x.text) for x in w.pass_inputs(3, 1)]
    b = [(x.id, x.text) for x in workloads.make(name, ROOT).pass_inputs(3, 1)]
    assert a == b
    other = [(x.id, x.text) for x in w.pass_inputs(4, 1)]
    assert [i for i, _ in other] == [i for i, _ in a]   # same algebras, same order
    assert other != a                                   # relabelled differently


def test_seed_only_relabels_and_rescales(screen):
    """Which screen inputs are perturbed, and where, does not depend on the seed."""
    for seed in (0, 7):
        inputs = screen.pass_inputs(seed, 0)
        broken = [n for n, x in enumerate(inputs) if x.expect["family"] == "invalid"]
        assert broken == [n for n in range(len(inputs)) if n % 4 == 3]


def test_family_formulas_match_the_cayley_tables():
    c2 = workloads.cyclic(2)
    groups = [workloads.cyclic(9), workloads.dihedral(6), workloads.dicyclic(3),
              workloads.dicyclic(4), workloads.alternating4(), workloads.symmetric4(),
              workloads.product(c2, workloads.dicyclic(2))]
    for g in groups:
        workloads.group_expect(g, g.table())     # raises on a contradiction
    c4 = workloads.cyclic(4)
    wrong = workloads.Group("C4, all indicators 1", c4.elements, c4.mul, [(1, 1)] * 4)
    with pytest.raises(AssertionError):
        workloads.group_expect(wrong, wrong.table())


def test_relabelled_and_rescaled_inputs_pass_the_oracle(screen):
    inputs = screen.one_each(screen.pass_inputs(5, 0))
    inputs += [x for x in screen.pass_inputs(5, 0)[:8]]
    for x in inputs:
        assert oracle.check(x.expect, _report(x)) == [], x.id


def test_perturbed_inputs_fail_on_associativity_only(screen):
    for x in screen.pass_inputs(2, 0)[3:48:4]:
        report = _report(x)
        failing = [c["name"] for c in report["validation"]["checks"] if not c["passed"]]
        assert failing == ["associativity"], x.id


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(overall_pass=not r["overall_pass"]),
    lambda r: r["rba"].update(order="14"),
    lambda r: r["character_table"].update(order="14"),
    lambda r: r["character_table"]["characters"][-1].update(nu=1),
    lambda r: r["character_table"]["characters"][1].update(multiplicity="53/45"),
    lambda r: r["character_table"]["characters"][1].update(degree=2),
    lambda r: r["character_table"]["characters"].pop(),
    lambda r: r["indicators"].update(s_predicted=3),
    lambda r: r["integrality"]["two_adic"].update(verdict="no-obstruction"),
    lambda r: r.pop("character_table"),
    lambda r: r["integrality"].pop("two_adic"),
])
def test_oracle_rejects_a_corrupted_report(screen, corrupt):
    x = next(x for x in screen.pass_inputs(0, 0) if x.id.startswith("rank7_h#"))
    report = _report(x)
    assert oracle.check(x.expect, report) == []
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert oracle.check(x.expect, bad) != []


def test_oracle_rejects_an_invalid_input_reported_valid(screen):
    x = screen.pass_inputs(0, 0)[3]
    report = _report(x)
    assert oracle.check(x.expect, report) == []
    for check in report["validation"]["checks"]:
        check["passed"] = True
    report["validation"]["passed"] = True
    assert oracle.check(x.expect, report) != []


def test_an_omitted_2adic_verdict_is_declined_only_with_an_inexact_linear_row(screen):
    x = next(x for x in screen.pass_inputs(0, 0) if x.expect["family"] == "rank7")
    report = _report(x)
    report["integrality"].pop("two_adic")
    assert oracle.check(x.expect, report) != []
    assert oracle.declined(x.expect, report) is None
    linear = next(c for c in report["character_table"]["characters"][1:] if c["degree"] == 1)
    linear["exact"] = False
    assert oracle.check(x.expect, report) == []
    assert oracle.declined(x.expect, report)


def test_oracle_matches_characters_as_a_multiset():
    expect = {"family": "scheme", "order": 4, "s": 2, "overall_pass": True,
              "chars": [(1, 1, 0), (1, 1, 1)]}
    report = {"overall_pass": True, "validation": {"passed": True, "checks": []},
              "rba": {"order": "4"}, "indicators": {"s_actual": 2, "s_predicted": 2},
              "character_table": {"order": 4.0, "characters": [
                  {"degree": 1, "multiplicity": 0.9999999990, "nu": 1},
                  {"degree": 1, "multiplicity": "1", "nu": 0}]}}
    assert oracle.check(expect, report) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 100, 150, 999, 1000, 5000):
        rng = random.Random(n)
        values = [rng.random() for _ in range(n)]
        _, p, beyond = run.tail(values)
        assert beyond >= 10 or p == 50.0
        assert sum(v > run.percentile(sorted(values), p) for v in values) >= min(beyond, 10)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_patches_every_namespace_and_restores_it(screen):
    import rbakit.quaternion
    import rbakit.report
    originals = (rbakit.report.validate, rbakit.quaternion.character_table,
                 rbakit.RBA.__dict__["from_text"])
    tracer = spans.Tracer()
    x = next(x for x in screen.pass_inputs(0, 0) if x.expect["family"] == "rank7")
    with tracer.installed():
        patched = (rbakit.report.validate, rbakit.quaternion.character_table,
                   rbakit.RBA.__dict__["from_text"])
        assert all(p is not o for p, o in zip(patched, originals))
        pipeline = run.Pipeline(rbakit, False)
        run.run_pass(pipeline, [x], tracer)
    assert (rbakit.report.validate, rbakit.quaternion.character_table,
            rbakit.RBA.__dict__["from_text"]) == originals
    summary = spans.summarize(tracer.spans)
    assert summary["report.analyze"]["calls"] == 1
    assert summary["core.validate"]["calls"] == 1
    assert summary["core.degree_map"]["calls"] == 2          # input is not standard
    assert summary["core.degree_map"]["attempts"] >= 2
    roots = [s for s in tracer.spans if s[spans.PARENT] == -1]
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(sum(s[spans.END] - s[spans.START] for s in roots))


def test_rescale_keeps_the_axioms():
    lam, star = workloads.group_tensor(workloads.dihedral(3).table())
    t = np.array([1.0, 1.5, 0.5, 0.7, 2.0, 0.9])
    t = (t + t[star]) / 2
    out = workloads.rescale(lam.astype(float), t)
    assert np.allclose(out, out[star][:, star][:, :, star].transpose(1, 0, 2))


def test_calibration_uses_the_samples_nearest_an_input():
    c = calib.Calibrator()
    c.midpoints = [0.0, 1.0, 1.01, 3.0, 3.02, 9.0]
    c.seconds = [5e-3, 2e-3, 2e-3, 1e-3, 1e-3, 5e-3]
    # the samples just before and just after [1.02, 2.99] are all 1 or 2 ms
    assert c.factor(1.02, 2.99) == pytest.approx(calib.KERNEL_NOMINAL_S / 1.5e-3)
    # nothing within the window: the nearest samples in time
    assert c.factor(6.0, 6.1) == pytest.approx(calib.KERNEL_NOMINAL_S / 3e-3)
    assert c.factor(3.01, 3.01) == pytest.approx(calib.KERNEL_NOMINAL_S / 1e-3)


def test_calibration_samples_stay_outside_the_input_timings(screen):
    c = calib.Calibrator()
    c.sample()
    pipeline = run.Pipeline(rbakit, False)
    res = run.run_pass(pipeline, screen.pass_inputs(0, 0)[:30], calib=c)
    assert len(c.seconds) > 1
    for start, seconds in zip(res.starts, res.latencies):
        assert not any(start < m < start + seconds for m in c.midpoints)
    latencies, factors = run.calibrated([res], c)
    assert latencies == [t * f for t, f in zip(res.cpu, factors)]


def test_calibration_catches_up_at_most_a_burst():
    c = calib.Calibrator()
    c.catch_up()  # nothing sampled yet: owes far more than a burst
    assert len(c.seconds) == calib.MAX_BURST
