"""Tests of the benchmark itself: each workload runs a few cases and passes
its checks, and every check rejects a deliberately corrupted result.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from affopers import integrate  # noqa: E402
from affopers.coeffs import EXACT, RationalFunction, Scalar  # noqa: E402
from affopers.oper_core import QuasiCanonicalForm  # noqa: E402
from tracer import Tracer  # noqa: E402


def _ready(cls, n):
    wl = cls(seed=7, n_cases=n)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def reduce_wl():
    return _ready(workloads.Reduce, 5)


@pytest.fixture(scope="module")
def bethe_wl():
    return _ready(workloads.Bethe, 2)


@pytest.fixture(scope="module")
def periods_wl():
    return _ready(workloads.Periods, 2)


def _replace_v(qc, j, f):
    v = dict(qc.v)
    v[j] = f
    return QuasiCanonicalForm(qc.model, qc.phi, v, qc.gauge, qc.truncated)


# ---------------------------------------------------------------- reduce


def test_reduce_cases_pass_their_checks(reduce_wl):
    kinds = {c.kind for c in reduce_wl.cases}
    assert kinds == {"real", "complex", "mobius"}
    for case in reduce_wl.cases:
        reduce_wl.check(case, reduce_wl.run(case))


def test_reduce_rejects_a_perturbed_v1(reduce_wl):
    for case in reduce_wl.cases:
        qc = reduce_wl.run(case)
        bad = _replace_v(qc, 1, qc.v[1] + RationalFunction.from_scalar(
            Scalar.exact(1, 3)))
        with pytest.raises(workloads.CheckFailed):
            reduce_wl.check(case, bad)


def test_reduce_rejects_a_pole_off_the_data(reduce_wl):
    case = next(c for c in reduce_wl.cases if c.kind == "real")
    qc = reduce_wl.run(case)
    j = max(qc.v)
    stray = RationalFunction.simple_pole(Scalar.exact(1), Scalar.exact(1, 7))
    with pytest.raises(workloads.CheckFailed, match="pole"):
        reduce_wl.check(case, _replace_v(qc, j, qc.v[j] + stray))


def test_reduce_rejects_a_pole_above_order_j_plus_one(reduce_wl):
    case = next(c for c in reduce_wl.cases if c.kind == "real")
    qc = reduce_wl.run(case)
    z0 = case.data.points[0][0]
    j = max(qc.v)
    deep = RationalFunction.from_split(
        RationalFunction.one(EXACT).num, {z0: j + 2})
    with pytest.raises(workloads.CheckFailed, match="pole"):
        reduce_wl.check(case, _replace_v(qc, j, qc.v[j] + deep))


def test_reduce_rejects_a_moved_form_that_does_not_commute(reduce_wl):
    case = next(c for c in reduce_wl.cases if c.kind == "mobius")
    qc = reduce_wl.run(case)
    j = max(qc.v)
    bad = _replace_v(qc, j, qc.v[j] + RationalFunction.from_scalar(
        Scalar.exact(2)))
    with pytest.raises(workloads.CheckFailed, match="commute"):
        reduce_wl.check(case, bad)


# ----------------------------------------------------------------- bethe


def test_bethe_cases_pass_their_checks(bethe_wl):
    assert [c.on_shell for c in bethe_wl.cases] == [True, False]
    for case in bethe_wl.cases:
        bethe_wl.check(case, bethe_wl.run(case))


def test_bethe_rejects_a_flipped_verdict(bethe_wl):
    for case in bethe_wl.cases:
        rows = bethe_wl.run(case)
        rows[0]["regular"] = not rows[0]["regular"]
        with pytest.raises(workloads.CheckFailed, match="verdict"):
            bethe_wl.check(case, rows)


def test_bethe_rejects_a_wrong_residual(bethe_wl):
    for case in bethe_wl.cases:
        rows = bethe_wl.run(case)
        rows[0]["bethe_residual"] = rows[0]["bethe_residual"] \
            + Scalar.exact(1, 5)
        with pytest.raises(workloads.CheckFailed, match="residual"):
            bethe_wl.check(case, rows)


def test_bethe_rejects_a_wrong_residue_of_v1(bethe_wl, monkeypatch):
    case = next(c for c in bethe_wl.cases if not c.on_shell)
    rows = bethe_wl.run(case)
    real = workloads.oper_core.quasi_canonicalize

    def skewed(conn):
        qc = real(conn)
        return _replace_v(qc, 1, qc.v[1] + RationalFunction.simple_pole(
            Scalar.exact(1), case.data.roots[0][0]))

    monkeypatch.setattr(workloads.oper_core, "quasi_canonicalize", skewed)
    with pytest.raises(workloads.CheckFailed, match="res_w"):
        bethe_wl.check(case, rows)


# --------------------------------------------------------------- periods


def _shifted(res, delta):
    return integrate.IntegralResult(res.value + delta, res.err,
                                    res.multiplier, res.segments, res.panels,
                                    res.valid)


def test_periods_cases_pass_their_checks(periods_wl):
    for case in periods_wl.cases:
        periods_wl.check(case, periods_wl.run(case))


def test_periods_rejects_a_shifted_period(periods_wl):
    case = periods_wl.cases[0]
    q, periods = periods_wl.run(case)
    key = (periods_wl.pairs(case)[0], 1)
    periods[key] = _shifted(periods[key], 1e-6)
    with pytest.raises(workloads.CheckFailed, match="gauge"):
        periods_wl.check(case, (q, periods))


def test_periods_rejects_an_open_branch(periods_wl):
    case = periods_wl.cases[0]
    q, periods = periods_wl.run(case)
    key = next(iter(periods))
    r = periods[key]
    periods[key] = integrate.IntegralResult(r.value, r.err, -1 + 0j,
                                            r.segments, r.panels, False)
    with pytest.raises(workloads.CheckFailed, match="branch"):
        periods_wl.check(case, (q, periods))


def test_periods_rejects_a_nonzero_exact_period(periods_wl, monkeypatch):
    case = periods_wl.cases[0]
    result = periods_wl.run(case)
    real = integrate.stokes_check
    monkeypatch.setattr(integrate, "stokes_check",
                        lambda *a, **k: _shifted(real(*a, **k), 1e-6))
    with pytest.raises(workloads.CheckFailed, match="exact"):
        periods_wl.check(case, result)


def test_periods_rejects_a_wrong_beta_value(periods_wl, monkeypatch):
    case = periods_wl.cases[0]
    result = periods_wl.run(case)
    real = integrate.twisted_integral

    def skewed(d, q, r, gamma, *args, **kwargs):
        res = real(d, q, r, gamma, *args, **kwargs)
        unit = list(q.v) == [1] and q.v[1] == RationalFunction.one(EXACT)
        return _shifted(res, 1e-6) if unit else res

    monkeypatch.setattr(integrate, "twisted_integral", skewed)
    with pytest.raises(workloads.CheckFailed, match="Beta"):
        periods_wl.check(case, result)


def test_beta_closed_form_at_the_integer_limits():
    # a = 1 - k/2 is an integer for even k; the Pochhammer integral of
    # z^-1 (z-1)^(-1/2) around (0, 1) is continuous in the exponent there
    s = -0.5
    exact = workloads.pochhammer_beta(0j, 1 + 0j, 2.0, 1.0, s)
    near = workloads.pochhammer_beta(0j, 1 + 0j, 2.0 - 2e-7, 1.0, s)
    assert abs(exact - near) < 1e-5 * max(1.0, abs(exact))
    assert workloads.pochhammer_beta(0j, 1 + 0j, 0.0, 1.0, s) == 0


# -------------------------------------------------------------- hostspeed


def test_host_scale_cancels_a_change_of_host_speed():
    # the host slows by 1.5x halfway through 80 cases; a case's CPU time
    # grows by the same factor, and its scale must undo it exactly wherever
    # the window around it lies in one phase
    slowdown = [1.0] * 40 + [1.5] * 40
    samples = [hostspeed.REFERENCE_S * s for s in slowdown]
    scales = hostspeed.local_scales(samples, 5)
    away = list(range(35)) + list(range(45, 80))
    for i in away:
        assert 0.1 * slowdown[i] * scales[i] == pytest.approx(0.1)


def test_host_sample_is_a_positive_cpu_time():
    samples = [hostspeed.sample() for _ in range(5)]
    assert all(0 < s < 1 for s in samples)
    assert hostspeed.scale(samples) > 0


# ----------------------------------------------------------------- tracer


def test_traced_counts_repeat_exactly(bethe_wl):
    tracer = Tracer()
    tracer.install()
    try:
        rounds = []
        for _ in range(2):
            before = dict(tracer.counts)
            tracer.on = True
            for case in bethe_wl.cases:
                bethe_wl.run(case)
            tracer.on = False
            rounds.append({k: v - before.get(k, 0)
                           for k, v in tracer.counts.items()})
    finally:
        tracer.uninstall()
    assert rounds[0] == rounds[1]
    assert rounds[0]["miura.regularity_check"] == len(bethe_wl.cases)
    assert rounds[0]["coeffs.rf_mul"] > 0
    assert workloads.miura.regularity_check.__name__ == "regularity_check"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cfg = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(cfg["command"] + ["--workload", "bethe",
                                            "--seed", "1", "--seconds", "1",
                                            "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
