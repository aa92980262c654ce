"""Piecewise-smooth paths in the punctured plane and continuous branch
tracking of products prod_i (z - z_i)^{k_i} along them.

Contours are built from two analytic primitives, straight segments and
circular arcs, each parameterized over [0, 1], so downstream quadrature can
work panel-by-panel on smooth data.  Branch continuity is maintained by
accumulating principal-log increments per puncture with adaptive bisection
until every increment has modulus below pi/4; that bound rules out hopping
a branch cut between consecutive sample points.

``start_logs`` and ``advance_logs`` thread the per-puncture logs
unweighted; the exponents k_i (possibly complex) and the overall power s
are applied afterward, by the quadrature of ``integrate``.

Every coordinate, radius and angle must be finite, and an arc may sweep
at most 64 full turns (``_MAX_TURNS``, 128 pi radians): the quadrature's
work grows with the sweep, so a larger one is refused with a
``ContourError`` that names the field.
"""

from __future__ import annotations

import cmath
import json
import math

from .coeffs import Scalar

__all__ = [
    "ContourError",
    "Line",
    "Arc",
    "Contour",
    "pochhammer",
    "loop_around",
    "segment_chain",
    "advance_logs",
    "start_logs",
    "default_clearance",
    "clearance_violations",
]

_GLUE_TOL = 1e-9          # endpoint matching tolerance, relative to span
_BRANCH_STEP = math.pi / 4
_MAX_DEPTH = 48           # adaptive bisection depth cap per step
_MAX_TURNS = 64           # the largest arc sweep, in full turns


class ContourError(ValueError):
    pass


def _finite(x, field):
    """The float or complex x, refused unless finite."""
    if not cmath.isfinite(x):
        raise ContourError(f"{field} must be finite, got {x!r}")
    return x


def _cnum(obj) -> complex:
    """Positions in JSON: exact strings, [re, im] pairs, or plain numbers."""
    if isinstance(obj, complex):
        return obj
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, Scalar):
        return obj.as_complex()
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise ContourError(f"position pair must have two entries: {obj!r}")
        return complex(_cnum(obj[0]).real, _cnum(obj[1]).real)
    if isinstance(obj, str):
        try:
            return Scalar.parse(obj).as_complex()
        except ZeroDivisionError:
            raise ContourError(f"cannot read {obj!r} as a position") from None
    raise ContourError(f"cannot read {obj!r} as a position")


class Line:
    """Straight segment, z(t) = start + t (end - start)."""

    __slots__ = ("start", "end")
    kind = "line"

    def __init__(self, start, end):
        self.start = _finite(_cnum(start), "'from'")
        self.end = _finite(_cnum(end), "'to'")

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def derivative(self, t: float) -> complex:
        return self.end - self.start

    def reversed(self) -> "Line":
        return Line(self.end, self.start)

    def distance_to(self, p: complex) -> float:
        d = self.end - self.start
        L2 = (d.real * d.real + d.imag * d.imag)
        if L2 == 0.0:
            return abs(p - self.start)
        t = ((p - self.start).real * d.real
             + (p - self.start).imag * d.imag) / L2
        t = min(1.0, max(0.0, t))
        return abs(p - self.point(t))

    def to_json(self):
        return {"kind": "line",
                "from": [self.start.real, self.start.imag],
                "to": [self.end.real, self.end.imag]}

    def __repr__(self):
        return f"Line({self.start:g} -> {self.end:g})"


class Arc:
    """Circular arc, z(t) = center + radius * exp(i theta(t)) with theta
    running linearly from from_angle to to_angle (radians; decreasing means
    clockwise), at most 64 full turns (``_MAX_TURNS``) apart."""

    __slots__ = ("center", "radius", "from_angle", "to_angle")
    kind = "arc"

    def __init__(self, center, radius, from_angle, to_angle):
        self.center = _finite(_cnum(center), "'center'")
        self.radius = _finite(float(_cnum(radius).real), "'radius'")
        if self.radius <= 0:
            raise ContourError("arc radius must be positive")
        self.from_angle = _finite(float(from_angle), "'from_angle'")
        self.to_angle = _finite(float(to_angle), "'to_angle'")
        sweep = abs(self.to_angle - self.from_angle)
        if sweep > _MAX_TURNS * 2 * math.pi:
            raise ContourError(
                f"arc sweep |'to_angle' - 'from_angle'| = {sweep:g} exceeds "
                f"{_MAX_TURNS} turns ({_MAX_TURNS * 2 * math.pi:g} radians)")

    def _theta(self, t: float) -> float:
        return self.from_angle + t * (self.to_angle - self.from_angle)

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * self._theta(t))

    def derivative(self, t: float) -> complex:
        sweep = self.to_angle - self.from_angle
        return self.radius * sweep * 1j * cmath.exp(1j * self._theta(t))

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.to_angle, self.from_angle)

    def distance_to(self, p: complex) -> float:
        rel = p - self.center
        rho = abs(rel)
        sweep = self.to_angle - self.from_angle
        if abs(sweep) >= 2 * math.pi or rho == 0.0:
            return abs(rho - self.radius)
        ang = math.atan2(rel.imag, rel.real)
        if sweep >= 0:
            u = (ang - self.from_angle) % (2 * math.pi)
            inside = u <= sweep
        else:
            u = (self.from_angle - ang) % (2 * math.pi)
            inside = u <= -sweep
        if inside:
            return abs(rho - self.radius)
        return min(abs(p - self.start), abs(p - self.end))

    def to_json(self):
        return {"kind": "arc",
                "center": [self.center.real, self.center.imag],
                "radius": self.radius,
                "from_angle": self.from_angle,
                "to_angle": self.to_angle}

    def __repr__(self):
        return (f"Arc(c={self.center:g}, r={self.radius:g}, "
                f"{self.from_angle:g} -> {self.to_angle:g})")


def _parse_segment(obj, where):
    if not isinstance(obj, dict):
        raise ContourError(f"{where} must be an object, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "line":
            return Line(obj["from"], obj["to"])
        if kind == "arc":
            return Arc(obj["center"], obj["radius"],
                       float(obj["from_angle"]), float(obj["to_angle"]))
    except KeyError as exc:
        raise ContourError(f"{where} lacks the key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ContourError(f"{where}: {exc}") from None
    raise ContourError(f"{where}: unknown segment kind {kind!r}")


class Contour:
    """Ordered chain of segments; consecutive endpoints must coincide.
    Its basepoint is the start of the first segment."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        self.segments = list(segments)
        if not self.segments:
            raise ContourError("a contour needs at least one segment")
        scale = max(1.0, max(abs(s.start) for s in self.segments),
                    max(abs(s.end) for s in self.segments))
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.end - b.start) > _GLUE_TOL * scale:
                raise ContourError(
                    f"segments do not join: {a!r} ends at {a.end:g}, "
                    f"next starts at {b.start:g}")

    @property
    def basepoint(self) -> complex:
        return self.segments[0].start

    @property
    def is_closed(self) -> bool:
        scale = max(1.0, abs(self.segments[0].start))
        return abs(self.segments[-1].end
                   - self.segments[0].start) <= _GLUE_TOL * scale

    def reversed(self) -> "Contour":
        return Contour([s.reversed() for s in reversed(self.segments)])

    def __add__(self, other: "Contour") -> "Contour":
        return Contour(self.segments + other.segments)

    def to_json(self):
        return {"segments": [s.to_json() for s in self.segments]}

    @staticmethod
    def from_json(obj) -> "Contour":
        """Read ``{"segments": [...]}``; other keys, such as those that
        earlier files carry beside the segments, are ignored."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ContourError(f"contour JSON must be an object, got {obj!r}")
        segs = obj.get("segments")
        if not isinstance(segs, list):
            raise ContourError(f"contour JSON: 'segments' must be a list, "
                               f"got {segs!r}")
        return Contour(_parse_segment(s, f"segment {k}")
                       for k, s in enumerate(segs, 1))

    def __repr__(self):
        state = "closed" if self.is_closed else "open"
        return f"Contour({len(self.segments)} segments, {state})"


# ------------------------------------------------------------ constructions


def segment_chain(*points) -> Contour:
    """Polyline through the given points."""
    pts = [_cnum(p) for p in points]
    if len(pts) < 2:
        raise ContourError("need at least two points")
    return Contour([Line(a, b) for a, b in zip(pts, pts[1:])])


def _unit_loop(center: float, radius: float, basepoint: float):
    """In normalized coordinates: from basepoint on the real axis, walk to
    the circle of given radius around center (0 or 1), go around once
    counterclockwise, walk back."""
    if center == 0.0:
        entry = radius
        th0 = 0.0
    else:
        entry = 1.0 - radius
        th0 = math.pi
    return [Line(basepoint, entry),
            Arc(complex(center), radius, th0, th0 + 2 * math.pi),
            Line(entry, basepoint)]


def pochhammer(points, radius=None, basepoint=None) -> Contour:
    """Commutator loop around two punctures: once counterclockwise around
    the first, once around the second, then both again clockwise.  Net
    winding around each puncture is zero, so products (z-p)^k return to
    their starting branch for every exponent.  Each clockwise loop is the
    exact ``reversed()`` of its counterclockwise one, segment by segment,
    so the cycle has four pieces, two lines and two circles, that the
    quadrature integrates once each."""
    p0, p1 = (_cnum(p) for p in points)
    span = p1 - p0
    dist = abs(span)
    if dist == 0.0:
        raise ContourError("the two punctures coincide")
    if radius is None:
        rho = 0.25
    else:
        rho = float(_cnum(radius).real) / dist
    if not 0.0 < rho < 0.5:
        raise ContourError(
            "radius must be positive and below half the puncture distance")
    if basepoint is None:
        bt = 0.5
    else:
        rel = (_cnum(basepoint) - p0) / span
        if abs(rel.imag) > 1e-12 or not rho < rel.real < 1.0 - rho:
            raise ContourError(
                "basepoint must lie on the segment strictly between the "
                "two circles")
        bt = rel.real
    segs = _unit_loop(0.0, rho, bt) + _unit_loop(1.0, rho, bt)
    # map the normalized picture onto the actual pair of punctures
    rot = cmath.phase(span)
    out = []
    for s in segs:
        if isinstance(s, Line):
            out.append(Line(p0 + span * s.start, p0 + span * s.end))
        else:
            out.append(Arc(p0 + span * s.center, s.radius * dist,
                           s.from_angle + rot, s.to_angle + rot))
    for loop in (out[:3], out[3:]):
        out += [s.reversed() for s in reversed(loop)]
    return Contour(out)


def loop_around(point, radius, basepoint, turns=1) -> Contour:
    """Simple loop: straight to the circle around the point, the given
    number of counterclockwise turns (negative for clockwise), straight
    back to the basepoint."""
    p = _cnum(point)
    b = _cnum(basepoint)
    r = float(_cnum(radius).real)
    d = abs(b - p)
    if r <= 0 or d <= r:
        raise ContourError("need 0 < radius < distance(basepoint, point)")
    if turns == 0:
        raise ContourError("zero turns is not a loop")
    th = cmath.phase(b - p)
    entry = p + r * cmath.exp(1j * th)
    segs = [Line(b, entry),
            Arc(p, r, th, th + 2 * math.pi * turns),
            Line(entry, b)]
    return Contour(segs)


# --------------------------------------------------------- branch tracking


def start_logs(points, z0: complex):
    """Principal log of (z0 - p) for every puncture p."""
    out = []
    for p in points:
        rel = z0 - p
        if rel == 0:
            raise ContourError("path starts on a puncture")
        out.append(cmath.log(rel))
    return out


def _log_increment(points, z0, z1):
    """Per-puncture principal increments, or None if any moved too far."""
    out = []
    for p in points:
        a, b = z0 - p, z1 - p
        if b == 0:
            raise ContourError("path passes through a puncture")
        d = cmath.log(b / a)
        if abs(d) >= _BRANCH_STEP:
            return None
        out.append(d)
    return out


def advance_logs(points, logs, seg, ta, tb, depth=0, za=None, zb=None):
    """Continue all per-puncture logs along seg from parameter ta to tb.

    ``za`` and ``zb``, when given, must be ``seg.point(ta)`` and
    ``seg.point(tb)``; a caller that already holds them saves recomputing
    them, and each bisection computes only its midpoint."""
    if za is None:
        za = seg.point(ta)
    if zb is None:
        zb = seg.point(tb)
    inc = _log_increment(points, za, zb)
    if inc is not None:
        return [L + d for L, d in zip(logs, inc)]
    if depth >= _MAX_DEPTH:
        raise ContourError(
            "branch continuation cannot resolve the step; the path runs "
            "too close to a puncture")
    tm = 0.5 * (ta + tb)
    zm = seg.point(tm)
    half = advance_logs(points, logs, seg, ta, tm, depth + 1, za, zm)
    return advance_logs(points, half, seg, tm, tb, depth + 1, zm, zb)


# --------------------------------------------------------------- clearance


def default_clearance(points) -> float:
    """One thousandth of the closest puncture spacing (or of the scale,
    for a single puncture)."""
    pts = [_cnum(p) for p in points]
    if len(pts) >= 2:
        gap = min(abs(a - b)
                  for i, a in enumerate(pts) for b in pts[i + 1:])
        if gap > 0:
            return 1e-3 * gap
    scale = max(1.0, max(abs(p) for p in pts))
    return 1e-3 * scale


def clearance_violations(contour: Contour, points, eps: float):
    """All (point, distance) pairs closer to the contour than eps."""
    out = []
    for p in (_cnum(q) for q in points):
        dist = min(seg.distance_to(p) for seg in contour.segments)
        if dist < eps:
            out.append((p, dist))
    return out