"""Exact rational arithmetic, backed by the standard library's Fraction.

Fraction already guarantees the representation we rely on everywhere:
lowest terms, strictly positive denominator, zero stored as 0/1.  This
module adds the strict text format used in all reports and CLI output
("p/q" in lowest terms, or just "p" when the denominator is 1).
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional sign on p); reject anything else."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    """Lowest-terms "p/q", or "p" when the denominator is 1."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

