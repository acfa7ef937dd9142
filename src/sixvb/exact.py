"""Exact rational scalars over Q.

Scalars are ``fractions.Fraction``, which already guarantees the canonical
form the rest of the package relies on (positive denominator, gcd-reduced
after every operation).  This module adds the ``"p/q"`` text form used by
every file format and report.  There is no matrix type: a chain state is
a :class:`sixvb.monodromy.QuantumState`, one ``Fraction`` scale times a
sparse vector of coprime ``int`` entries, and every operator, the local
weights included, is a kernel applied to such vectors.  No floating point
appears anywhere: every public function takes its rational arguments
through the one gate :func:`rational`, which accepts ``int`` and
``Fraction`` only.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_FORM = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def _strict(value, kinds: tuple, what: str):
    """``value`` unchanged if its type is one of ``kinds``; a bool is not an int."""
    if type(value) not in kinds:
        raise ValueError(f"{what} must be {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def rational(value, what: str) -> Fraction:
    """An int or Fraction ``value`` as a Fraction; any other type (bool too) raises ValueError."""
    if type(value) is Fraction:
        return value
    return Fraction(_strict(value, (int, Fraction), what))


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with decimal integers and an optional sign on p."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational literal, got {type(text).__name__}")
    body = text.strip()
    if not _RATIONAL_FORM.match(body):
        raise ValueError(f"malformed rational literal: {text!r}")
    num, _, den = body.partition("/")
    if den and int(den) == 0:
        raise ZeroDivisionError(f"zero denominator in rational literal {text!r}")
    return Fraction(int(num), int(den or 1))


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers render without ``/q``."""
    return str(rational(x, "rational"))
