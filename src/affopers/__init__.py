"""Affine opers on the projective line: quasi-canonical forms, Bethe
equations, and twisted contour integrals of the canonical coefficients.

The main entry points:

* :func:`affopers.miura.MiuraData.from_json` / ``.make`` — describe a
  connection by weighted marked points and colored roots.
* :func:`affopers.oper_core.quasi_canonicalize` — gauge away everything
  except the coefficients along the principal exponents.
* :func:`affopers.miura.regularity_check` — pole-free coefficients at a
  root exactly when the Bethe equation there is satisfied.
* :func:`affopers.integrate.twisted_integral` — numerically integrate
  P^(-r/h) v_r over a contour with the branch threaded along the path.
* :func:`affopers.verify.run_suite` — deterministic self-check suites.

``python -m affopers.cli --help`` (installed as ``affopers``) drives the
same machinery from the command line.
"""

from .affine_algebra import build_algebra, exponents
from .coeffs import Polynomial, RationalFunction, Scalar
from .contour import Contour, ContourError, loop_around, pochhammer, segment_chain
from .integrate import IntegralResult, stokes_check, twisted_integral
from .miura import (MiuraData, bethe_residuals, build_miura, is_on_shell,
                    regularity_check)
from .oper_core import (QuasiCanonicalForm, change_coordinate,
                        quasi_canonicalize, residual_gauge)
from .verify import run_suite, summary_lines

__version__ = "0.1.0"

__all__ = [
    "Scalar", "Polynomial", "RationalFunction",
    "build_algebra", "exponents",
    "MiuraData", "build_miura", "bethe_residuals", "is_on_shell",
    "regularity_check",
    "QuasiCanonicalForm", "quasi_canonicalize", "residual_gauge",
    "change_coordinate",
    "Contour", "ContourError", "segment_chain", "loop_around", "pochhammer",
    "IntegralResult", "twisted_integral", "stokes_check",
    "run_suite", "summary_lines",
]
