"""Exact rational arithmetic: scalars and dense matrices over Q.

Scalars are ``fractions.Fraction``, which already guarantees the canonical
form the rest of the package relies on (positive denominator, gcd-reduced
after every operation).  This module adds the ``"p/q"`` text form used by
every file format and report, plus one small immutable dense matrix for
the local identities of :mod:`sixvb.weights` (a vector there is a
one-column matrix).  Chain states are not dense: a
:class:`sixvb.monodromy.QuantumState` is one ``Fraction`` scale times a
sparse vector of coprime ``int`` entries.  No floating point appears
anywhere: every public function takes its rational arguments through the
one gate :func:`rational`, which accepts ``int`` and ``Fraction`` only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix of rationals, stored row-major."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is Fraction else rational(x, "matrix entry") for x in row)
            for row in self.entries
        )
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows in matrix literal")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return ExactMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = rational(c, "scale factor")
        return ExactMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        rhs = other.entries
        ncols = other.cols
        out = []
        for arow in self.entries:
            acc = [_ZERO] * ncols
            for k, a in enumerate(arow):
                if a:
                    brow = rhs[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return ExactMatrix(tuple(out))

    def tensor(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; the left factor owns the most significant index.

        Entry (i*n + k, j*m + l) equals A[i, j] * B[k, l] for B of shape n x m.
        """
        rows = []
        for i in range(self.rows):
            for k in range(other.rows):
                rows.append(
                    tuple(
                        self.entries[i][j] * other.entries[k][l]
                        for j in range(self.cols)
                        for l in range(other.cols)
                    )
                )
        return ExactMatrix(tuple(rows))
