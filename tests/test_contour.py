"""Path geometry, branch continuation, and closure multipliers."""

import cmath
import json
import math
import random

import pytest

from affopers.affine_algebra import build_algebra
from affopers.coeffs import RationalFunction, Scalar
from affopers.contour import (Arc, Contour, ContourError, Line, advance_logs,
                              default_clearance, loop_around, pochhammer,
                              segment_chain, start_logs)
from affopers.integrate import integrate_twisted_form, twisted_integral
from affopers.miura import MiuraData, build_miura
from affopers.oper_core import quasi_canonicalize


@pytest.fixture(scope="module")
def a1():
    return build_algebra({"type": "A", "rank": 1, "cutoff": 3})


def point_data(model, pairs):
    """MiuraData with given (position, level) pairs and zero weights."""
    pts = [(z, ["0"] * model.rank, k, "0") for z, k in pairs]
    return MiuraData.make(model, pts, [])


# ---------------------------------------------------------------- geometry


def test_line_parameterization():
    seg = Line(1 + 1j, 3 + 2j)
    assert seg.point(0) == 1 + 1j
    assert seg.point(1) == 3 + 2j
    assert seg.derivative(0.3) == 2 + 1j
    assert seg.reversed().point(0) == 3 + 2j


def test_arc_parameterization():
    seg = Arc(1j, 2.0, 0.0, math.pi)
    assert abs(seg.point(0) - (2 + 1j)) < 1e-15
    assert abs(seg.point(1) - (-2 + 1j)) < 1e-15
    assert abs(seg.point(0.5) - 3j) < 1e-15
    # derivative is tangent, counterclockwise
    assert abs(seg.derivative(0.0) - 2j * math.pi) < 1e-12
    rev = seg.reversed()
    assert abs(rev.point(0) - seg.point(1)) < 1e-15


def test_point_to_line_distance():
    seg = Line(0, 2)
    assert abs(seg.distance_to(1 + 1j) - 1.0) < 1e-15
    assert abs(seg.distance_to(-3 + 4j) - 5.0) < 1e-15  # clamps to start
    assert abs(seg.distance_to(2.5) - 0.5) < 1e-15      # clamps to end


def test_point_to_arc_distance():
    seg = Arc(0, 1.0, 0.0, math.pi / 2)  # quarter circle in first quadrant
    inside = cmath.exp(1j * math.pi / 4)
    assert abs(seg.distance_to(2 * inside) - 1.0) < 1e-12
    assert abs(seg.distance_to(0.5 * inside) - 0.5) < 1e-12
    # angularly outside: nearest endpoint wins
    p = -2.0 + 0j
    expect = min(abs(p - seg.point(0)), abs(p - seg.point(1)))
    assert abs(seg.distance_to(p) - expect) < 1e-12


def test_contour_gluing():
    with pytest.raises(ContourError):
        Contour([Line(0, 1), Line(2, 3)])
    c = segment_chain(0, 1, 1 + 1j)
    assert not c.is_closed
    closed = Contour([Line(0, 1), Line(1, 1j), Line(1j, 0)])
    assert closed.is_closed
    rev = closed.reversed()
    assert rev.is_closed
    assert abs(rev.segments[0].start - 0) < 1e-15


def test_basepoint_is_the_chain_start():
    base = -1.0 + 0.5j
    loops = loop_around(0.0, 0.3, base) + loop_around(1.0, 0.25, base)
    for c, want in (
            (pochhammer((0, 1), radius="1/4"), 0.5),
            (pochhammer((2 - 1j, -1 + 3j), radius=0.3, basepoint=0.5 + 1j),
             0.5 + 1j),
            (loop_around(0, 0.5, 2.0), 2.0),
            (segment_chain(1, 2, 2 + 1j), 1),
            (loops, base),
            (loops.reversed(), base),
            (segment_chain(1, 2).reversed(), 2),
            (segment_chain(3j, 1) + segment_chain(1, 2), 3j)):
        assert c.basepoint == c.segments[0].start
        assert abs(c.basepoint - want) < 1e-12


# the keys an earlier to_json wrote beside the segments of the Pochhammer
# cycle around 0 and 1; from_json ignores them
_EARLIER_KEYS = {"basepoint": [0.5, 0.0],
                 "windings": [[[0.0, 0.0], 0], [[1.0, 0.0], 0]]}


def test_contour_json_roundtrip(a1):
    c = pochhammer((0, 1), radius="1/4")
    blob = c.to_json()
    assert list(blob) == ["segments"]
    d = MiuraData.make(a1, [("0", ["1/2"], "1/2", "0"),
                            ("1", ["-1/3"], "1/3", "0")])
    q = quasi_canonicalize(build_miura(d))
    want = twisted_integral(d, q, 1, c)
    assert abs(want.value) > 0.1
    for extra in ({}, _EARLIER_KEYS):
        c2 = Contour.from_json({**blob, **extra})
        assert len(c2.segments) == len(c.segments)
        assert c2.is_closed
        # float reprs round-trip, so equal dumps are equal bits
        assert json.dumps(c2.to_json()) == json.dumps(blob)
        got = twisted_integral(d, q, 1, c2)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    # spec-style exact strings parse too
    blob = {"segments": [
        {"kind": "arc", "center": "0", "radius": "1/4",
         "from_angle": 0, "to_angle": 6.283185307179586},
    ], "basepoint": "1/4"}
    c3 = Contour.from_json(blob)
    assert abs(c3.segments[0].point(0) - 0.25) < 1e-15


# -------------------------------------------------------------- pochhammer


def test_pochhammer_shape():
    c = pochhammer((0, 1), radius="1/4")
    assert c.is_closed
    assert len(c.segments) == 12
    assert abs(c.basepoint - 0.5) < 1e-15


def test_pochhammer_validation():
    with pytest.raises(ContourError):
        pochhammer((0, 1), radius="1/2")
    with pytest.raises(ContourError):
        pochhammer((0, 0))
    with pytest.raises(ContourError):
        pochhammer((0, 1), basepoint=2.0)       # off the segment
    with pytest.raises(ContourError):
        pochhammer((0, 1), basepoint=0.5 + 1j)  # off the axis


def test_pochhammer_general_position():
    z0, z1 = 2 - 1j, -1 + 3j
    c = pochhammer((z0, z1), radius=0.3)
    assert c.is_closed
    # circles actually wind around the two points at the right radius
    dists = [seg.distance_to(z0) for seg in c.segments
             if isinstance(seg, Arc) and abs(seg.center - z0) < 1e-12]
    assert dists and all(abs(d - 0.0) < 1e-9 or d >= 0 for d in dists)


def test_loop_around_validation():
    with pytest.raises(ContourError):
        loop_around(0, 2.0, 1.0)   # radius beyond the basepoint
    with pytest.raises(ContourError):
        loop_around(0, 0.5, 1.0, turns=0)


# ---------------------------------------------------------------- tracking


def closure(d, s, contour):
    """The integral of P^s along the contour, whose ``multiplier`` and
    ``valid`` report the branch closure; r = -s h puts P^s in the
    integrand, and the zero integrand leaves only the branch threading."""
    r = s * Scalar.exact(-d.model.dual_coxeter)
    return integrate_twisted_form(d, r, RationalFunction.zero(), contour)


def log_changes(points, contour, steps=16):
    """End minus start of each puncture's log, threaded in ``steps`` equal
    parameter steps per segment (one step would see only its endpoints,
    which coincide on a full circle)."""
    logs = start_logs(points, contour.segments[0].point(0.0))
    start = list(logs)
    for seg in contour.segments:
        for i in range(steps):
            logs = advance_logs(points, logs, seg, i / steps, (i + 1) / steps)
    return [b - a for a, b in zip(start, logs)]


def test_empty_product_track(a1):
    d = MiuraData(a1, [], [])
    c = pochhammer((0, 1), radius="1/4")
    res = closure(d, Scalar.parse("-1/2"), c)
    assert res.multiplier == 1
    assert res.valid


def test_single_loop_winding(a1):
    d = point_data(a1, [("0", "4")])
    c = loop_around(0, 0.5, 2.0)
    # winding +1 around the only puncture
    (change,) = log_changes([0j], c)
    assert abs(change - 2j * math.pi) < 1e-12
    # s k = -2, so the discrepancy is -4 pi i and the multiplier is 1
    res = closure(d, Scalar.parse("-1/2"), c)
    assert abs(res.multiplier - 1) < 1e-12
    assert res.valid
    # generic exponent: multiplier e^{2 pi i s k}
    res2 = closure(d, Scalar.parse("1/3"), c)
    expect = cmath.exp(2j * math.pi * (4 / 3))
    assert abs(res2.multiplier - expect) < 1e-12
    assert not res2.valid


def test_double_turns():
    c = loop_around(0, 0.5, 2.0, turns=-2)
    (change,) = log_changes([0j], c)
    assert abs(change.imag / (2 * math.pi) + 2.0) < 1e-12


def test_commutator_trivial_monodromy(a1):
    rng = random.Random(41)
    for _ in range(5):
        k0 = Scalar.parse([f"{rng.randint(-5, 5)}/3", f"{rng.randint(-3, 3)}/2"])
        k1 = Scalar.parse([f"{rng.randint(-5, 5)}/2", f"{rng.randint(-3, 3)}/5"])
        d = point_data(a1, [("0", k0), ("1", k1)])
        s = Scalar.parse([f"{rng.randint(-9, 9)}/7", f"{rng.randint(-4, 4)}/3"])
        c = pochhammer((0, 1), radius="1/4")
        res = closure(d, s, c)
        assert res.valid
        assert abs(res.multiplier - 1) < 1e-12


def test_reversal_negates_discrepancy():
    base = -1.0 + 0.5j  # off-axis so no connecting line grazes a puncture
    c = loop_around(0.0, 0.3, base) + loop_around(1.0, 0.25, base)
    fwd = log_changes([0j, 1 + 0j], c)
    bwd = log_changes([0j, 1 + 0j], c.reversed())
    assert all(abs(f + b) < 1e-12 for f, b in zip(fwd, bwd))


def test_refinement_invariance(a1):
    # the quadrature threads the branch through its panels' nodes; equal
    # steps of advance_logs reach the same multiplier
    d = point_data(a1, [("0", "2"), ("1", "3")])
    base = -1.0 + 0.5j
    c = loop_around(0.0, 0.3, base) + loop_around(1.0, 0.25, base, turns=2)
    changes = log_changes([0j, 1 + 0j], c)
    finer = log_changes([0j, 1 + 0j], c, steps=64)
    assert all(abs(a - b) < 1e-12 for a, b in zip(changes, finer))
    threaded = cmath.exp((2 * changes[0] + 3 * changes[1]) / 7)
    got = closure(d, Scalar.parse("1/7"), c).multiplier
    assert abs(got - threaded) < 1e-12
    assert abs(got - cmath.exp(2j * math.pi * 8 / 7)) < 1e-12


def test_clearance_enforced(a1):
    d = point_data(a1, [("0", "1"), ("1", "1")])
    grazing = segment_chain(-1 - 1e-8j, 2 - 1e-8j)  # runs through both
    with pytest.raises(ContourError):
        closure(d, Scalar.exact(1), grazing)


def test_open_path_closure(a1):
    d = point_data(a1, [("0", "1")])
    path = segment_chain(1, 2)
    assert not closure(d, Scalar.exact(1), path).valid


def test_default_clearance_scales():
    assert abs(default_clearance([0, 1]) - 1e-3) < 1e-18
    assert abs(default_clearance([0, 100]) - 0.1) < 1e-12
    assert default_clearance([5]) > 0