"""Constructors for the extremal unicyclic families and their closed forms.

U(k,t,i,j) is the cycle C_k with one pendant vertex on each of t
consecutive cycle vertices, plus i pendant vertices and j two-vertex
paths attached to a central vertex of the chosen t.  Unm(n,m) is the
hub family U(5, 1, n-2m, m-3).  Labels are fixed so every constructor
is reproducible byte for byte:

* cycle vertices 0..k-1, the chosen vertices being 0..t-1;
* the pendant of chosen vertex c is k + c;
* the central vertex is (t-1)//2 for t >= 1 and cycle vertex 0 for
  t = 0 (for even t the other central candidate gives an isomorphic
  graph);
* the i pendants are k+t .. k+t+i-1; each two-vertex path contributes
  (near, far) = (k+t+i+2p, k+t+i+2p+1) with the near vertex on the
  central vertex.

``FamilySpec.code`` reads a member's canonical code off its parameters,
so ``family_label`` names a class by comparing codes, building no graph.

Above n = ``LAST_SPECIAL_N`` each prediction is one family member with a
value polynomial in the family's parameters.  ``BRANCH_FORMS`` states
those branches, and ``GIRTH_FORM`` the girth bound, as ``ClosedForm``s,
which ``verification`` proves on a few small members each.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add
from typing import Callable, NamedTuple

from .enumeration import CanonicalCode, canonical_code, dihedral_min
from .graph import Graph, is_connected
from .rational import format_rational
from .resistance import kf_cycle


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, frozenset([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]))


def make_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def central_vertex(k: int, t: int) -> int:
    """The attachment vertex of U(k,t,i,j): (t-1)//2, or 0 when t = 0."""
    return (t - 1) // 2 if t >= 1 else 0


def _check_ukt(k: int, t: int, i: int, j: int) -> None:
    if k < 3:
        raise ValueError("cycle length must be at least 3")
    if not 0 <= t <= k:
        raise ValueError(f"pendant arc length t={t} must satisfy 0 <= t <= k")
    if i < 0 or j < 0:
        raise ValueError("pendant and path counts must be non-negative")


def make_ukt(k: int, t: int, i: int, j: int) -> Graph:
    """Build U(k,t,i,j) on k+t+i+2j vertices with the canonical labels."""
    _check_ukt(k, t, i, j)
    hub = central_vertex(k, t)
    paths = range(k + t + i, k + t + i + 2 * j, 2)
    edges = [(c, c + 1) for c in range(k - 1)] + [(0, k - 1)]
    edges += [(c, k + c) for c in range(t)] + [(hub, v) for v in range(k + t, k + t + i)]
    edges += [(hub, near) for near in paths] + [(near, near + 1) for near in paths]
    return Graph(k + t + i + 2 * j, frozenset(edges))


def _unm_ukt(n: int, m: int) -> tuple[int, int, int, int]:
    """The U(k,t,i,j) parameters of Unm(n,m): (5, 1, n-2m, m-3)."""
    if m < 3 or n < 2 * m:
        raise ValueError(f"Unm needs 3 <= m <= n/2, got n={n}, m={m}")
    return 5, 1, n - 2 * m, m - 3


def make_unm(n: int, m: int) -> Graph:
    """Build Unm(n,m) = U(5, 1, n-2m, m-3)."""
    return make_ukt(*_unm_ukt(n, m))


def ukt_central_vertex_sum(k: int, t: int) -> Fraction:
    """Resistance row sum at the central vertex of U(k,t) in closed form."""
    if k < 3 or not 1 <= t <= k:
        raise ValueError(f"invalid parameters k={k}, t={t}")
    if t % 2 == 1:
        return Fraction(2 * k * k + 3 * t * t + 12 * t - 5, 12) - Fraction(t**3 - t, 12 * k)
    return Fraction(2 * k * k + 3 * t * t + 12 * t - 2, 12) - Fraction(t**3 + 2 * t, 12 * k)


def ukt_kf_closed_form(k: int, t: int) -> Fraction:
    """Kirchhoff index of U(k,t) = U(k,t,0,0) in closed form."""
    if k < 3 or not 0 <= t <= k:
        raise ValueError(f"invalid parameters k={k}, t={t}")
    poly = k**3 + 2 * k * k * t + 12 * k * t - k + 2 * t**3 + 12 * t * t - 16 * t
    return Fraction(poly, 12) + Fraction(t * t - t**4, 12 * k)


def girth_min_kf(n: int, k: int) -> Fraction:
    """Minimum Kirchhoff index of an n-vertex unicyclic graph with cycle
    length k, attained exactly at U(k,1,n-k-1,0)."""
    if not 3 <= k <= n - 1:
        raise ValueError(f"need 3 <= k <= n-1, got n={n}, k={k}")
    poly = -(k**3) + 2 * n * k * k - (12 * n - 13) * k + 12 * n * n - 14 * n
    return Fraction(poly, 12)


def unm_kf_closed_form(n: int, m: int) -> Fraction:
    """Kirchhoff index of Unm(n,m): n^2 + nm - 5n - 3m + 4."""
    _unm_ukt(n, m)
    return Fraction(n * n + n * m - 5 * n - 3 * m + 4)


# a verbose pattern, compiled (and cached by re) on the first
# parse_family_spec, so that commands that parse no family do not pay for
# it at start-up
_FAMILY_RE = r"""
    (?:C(?P<cn>\d+))
    | (?:P(?P<pn>\d+))
    | (?:U\(\s*(?P<k>\d+)\s*,\s*(?P<t>\d+)\s*,\s*(?P<i>\d+)\s*,\s*(?P<j>\d+)\s*\))
    | (?:Unm\(\s*(?P<n>\d+)\s*,\s*(?P<m>\d+)\s*\))
"""


class FamilySpec(NamedTuple):
    """Symbolic description of a constructed graph.

    Textual forms: "C{n}", "P{n}", "U({k},{t},{i},{j})", "Unm({n},{m})".
    """

    kind: str
    params: tuple[int, ...]

    def text(self) -> str:
        if self.kind in ("C", "P"):
            return f"{self.kind}{self.params[0]}"
        inner = ",".join(str(p) for p in self.params)
        return f"{self.kind}({inner})"

    def order(self) -> int:
        """The vertex count of the graph that ``build`` returns."""
        if self.kind == "U":
            k, t, i, j = self.params
            return k + t + i + 2 * j
        return self.params[0]

    def build(self) -> Graph:
        if self.kind == "C":
            return make_cycle(*self.params)
        if self.kind == "P":
            return make_path(*self.params)
        if self.kind == "U":
            return make_ukt(*self.params)
        if self.kind == "Unm":
            return make_unm(*self.params)
        raise ValueError(f"unknown family kind {self.kind!r}")

    def code(self) -> CanonicalCode:
        """The canonical code of ``build()``, from the parameters alone: in
        U(k,t,i,j) each chosen cycle vertex carries a pendant, "(())", the
        hub its children's sorted codes, paths first, and any other cycle
        vertex none, "()".  C_n is U(n,0,0,0)."""
        if self.kind in ("C", "Unm"):
            params = (*self.params, 0, 0, 0) if self.kind == "C" else _unm_ukt(*self.params)
            return FamilySpec("U", params).code()
        if self.kind != "U":
            raise ValueError(f"{self.text()} is not unicyclic")
        k, t, i, j = self.params
        _check_ukt(k, t, i, j)
        seq = ["(())"] * t + ["()"] * (k - t)
        seq[central_vertex(k, t)] = "(" + "(())" * j + "()" * (i + (t >= 1)) + ")"
        return CanonicalCode(k, dihedral_min(tuple(seq)))


def parse_family_spec(text: str) -> FamilySpec:
    m = re.fullmatch(_FAMILY_RE, text.strip(), re.VERBOSE)
    if m is None:
        raise ValueError(f"not a family spec: {text!r}")
    if m.group("cn") is not None:
        return FamilySpec("C", (int(m.group("cn")),))
    if m.group("pn") is not None:
        return FamilySpec("P", (int(m.group("pn")),))
    if m.group("k") is not None:
        return FamilySpec("U", tuple(int(m.group(x)) for x in ("k", "t", "i", "j")))
    return FamilySpec("Unm", (int(m.group("n")), int(m.group("m"))))


class ExtremalPrediction(NamedTuple):
    """A predicted set of Kirchhoff minimizers with the exact minimum value."""

    minimizers: tuple[FamilySpec, ...]
    value: Fraction

    def texts(self) -> tuple[str, ...]:
        return tuple(sorted(s.text() for s in self.minimizers))

    def describe(self) -> str:
        return "{" + ", ".join(self.texts()) + "} = " + format_rational(self.value)


def _pred(specs, value) -> ExtremalPrediction:
    return ExtremalPrediction(tuple(specs), Fraction(value))


def _u(k, t, i, j) -> FamilySpec:
    return FamilySpec("U", (k, t, i, j))


# The last n at which predicted_min or predicted_min_perfect has a special
# case: above it every cell lies on one of the BRANCH_FORMS.
LAST_SPECIAL_N = 14


def predicted_min_perfect(m: int) -> ExtremalPrediction:
    """Minimum Kirchhoff index over unicyclic graphs on 2m vertices with
    a perfect matching, with its unique minimizer."""
    if m < 2:
        raise ValueError("perfect-matching classes need m >= 2")
    if m <= 4:
        return _pred([FamilySpec("C", (2 * m,))], kf_cycle(2 * m))
    if m == 5:
        return _pred([_u(8, 2, 0, 0)], Fraction(655, 8))
    if m == 6:
        return _pred([_u(8, 4, 0, 0)], Fraction(271, 2))
    if m == 7:
        return _pred([_u(7, 7, 0, 0)], Fraction(203))
    return _pred([FamilySpec("Unm", (2 * m, m))], Fraction(6 * m * m - 13 * m + 4))


def predicted_min(n: int, m: int) -> ExtremalPrediction:
    """Minimum Kirchhoff index over unicyclic graphs with n vertices and
    matching number m, with the exact minimizer set."""
    if not 2 <= m <= n // 2:
        raise ValueError(f"need 2 <= m <= n/2, got n={n}, m={m}")
    if n == 2 * m:
        return predicted_min_perfect(m)
    unm = FamilySpec("Unm", (n, m))
    if m == 2:
        if n == 5:
            return _pred([FamilySpec("C", (5,))], kf_cycle(5))
        if n <= 11:
            return _pred([_u(4, 1, n - 5, 0)], Fraction(2 * n * n - 5 * n - 2, 2))
        if n == 12:
            return _pred([_u(3, 1, 8, 0), _u(4, 1, 7, 0)], Fraction(113))
        return _pred([_u(3, 1, n - 4, 0)], Fraction(3 * n * n - 8 * n + 3, 3))
    if m == 3:
        if n == 7:
            return _pred([FamilySpec("C", (7,))], kf_cycle(7))
        return _pred([unm], unm_kf_closed_form(n, 3))
    if m == 4:
        if n == 9:
            return _pred([_u(7, 1, 1, 0), FamilySpec("C", (9,))], Fraction(60))
        if n == 10:
            return _pred([_u(7, 1, 2, 0)], Fraction(79))
        if n == 11:
            return _pred([_u(6, 2, 3, 0), _u(7, 1, 3, 0)], Fraction(100))
        if n in (12, 13):
            return _pred([_u(6, 2, n - 8, 0)], Fraction(3 * n * n - n - 52, 3))
        if n == 14:
            return _pred([unm, _u(6, 2, 6, 0)], Fraction(174))
        return _pred([unm], unm_kf_closed_form(n, 4))
    if m == 5:
        if n <= 13:
            return _pred([_u(7, 3, n - 10, 0)], Fraction(7 * n * n + 12 * n - 245, 7))
        if n == 14:
            return _pred([unm, _u(6, 2, 4, 1), _u(7, 3, 4, 0)], Fraction(185))
        return _pred([unm], unm_kf_closed_form(n, 5))
    if m == 6:
        if n == 13:
            return _pred([_u(8, 4, 1, 0)], Fraction(4 * n * n + 19 * n - 262, 4))
        if n == 14:
            return _pred([unm, _u(6, 2, 2, 2), _u(7, 3, 2, 1)], Fraction(196))
        return _pred([unm], unm_kf_closed_form(n, 6))
    return _pred([unm], unm_kf_closed_form(n, m))


class ClosedForm(NamedTuple):
    """A closed form that holds for every point p of its range.  There
    ``predict(*p)`` names ``family(*p)`` alone, with a value that, like Kf
    of that member, is a polynomial of at most ``degree`` in p.  Two such
    polynomials that agree on the principal lattice of that degree, the
    points ``origin`` + a with a >= 0 and sum(a) <= degree, agree
    everywhere, since the lattice is unisolvent (Chung and Yao 1977);
    ``guard`` is one more point, off the lattice.  ``case`` names the range
    and ``claim`` the identity, in the ``variables`` of p."""

    case: str
    claim: str
    variables: str
    family: Callable[..., FamilySpec]
    predict: Callable[..., ExtremalPrediction]
    degree: int
    origin: tuple[int, ...]
    guard: tuple[int, ...]

    def points(self) -> list[tuple[int, ...]]:
        """The lattice points, in ascending order, then the guard."""
        steps = product(range(self.degree + 1), repeat=len(self.origin))
        lattice = [tuple(map(add, self.origin, a)) for a in steps if sum(a) <= self.degree]
        return lattice + [self.guard]


def _unm_member(i: int, j: int) -> FamilySpec:
    """Unm(n,m) = U(5,1,i,j): n = 2m + i and m = j + 3."""
    return FamilySpec("Unm", (i + 2 * j + 6, j + 3))


# The closed forms call the functions they state by their global names, so
# that a test or a tracer may swap them for mutated or wrapped copies.
# BRANCH_FORMS are the three branches of predicted_min above
# LAST_SPECIAL_N, U(3,1,n-4,0) for m = 2, Unm(n,m) for n > 2m and
# Unm(2m,m), which is predicted_min_perfect's, for n = 2m.
PERFECT_FORM = ClosedForm(
    "closed-form:n=2m>=16",
    "Kf(Unm(2m,m)) = predicted_min_perfect(m)",
    "m",
    lambda m: FamilySpec("Unm", (2 * m, m)),
    lambda m: predicted_min_perfect(m),
    2,
    (8,),
    (11,),
)
BRANCH_FORMS = (
    ClosedForm(
        "closed-form:n>=13,m=2",
        "Kf(U(3,1,n-4,0)) = predicted_min(n, 2)",
        "n",
        lambda n: _u(3, 1, n - 4, 0),
        lambda n: predicted_min(n, 2),
        2,
        (13,),
        (16,),
    ),
    ClosedForm(
        "closed-form:n>=2m>=6",
        "Kf(U(5,1,i,j)) = unm_kf_closed_form(2j+i+6, j+3)",
        "(i,j)",
        _unm_member,
        lambda i, j: _pred([_unm_member(i, j)], unm_kf_closed_form(i + 2 * j + 6, j + 3)),
        2,
        (0, 0),
        (3, 3),
    ),
    PERFECT_FORM,
)
GIRTH_FORM = ClosedForm(
    "closed-form:n>k>=3",
    "Kf(U(k,1,i,0)) = girth_min_kf(k+i+1, k)",
    "(k,i)",
    lambda k, i: _u(k, 1, i, 0),
    lambda k, i: _pred([_u(k, 1, i, 0)], girth_min_kf(k + i + 1, k)),
    3,
    (3, 0),
    (7, 1),
)


@lru_cache(maxsize=4096)
def family_label(code: CanonicalCode) -> str:
    """The family name of a class given by its canonical code, or the code
    itself when no family fits; memoized, as reports repeat classes."""
    fam = _family_of(code)
    return fam.text() if fam is not None else str(code)


def _family_of(code: CanonicalCode) -> FamilySpec | None:
    """The cycle, or the first U(k,t,i,j) in ascending t, t = 0 last, whose
    ``FamilySpec.code`` is code; else None.  U(k,t,i,j) has t + i + j
    leaves, each a "()" inside a branch code's outer brackets, on
    k + t + i + 2j vertices, two characters of code each."""
    k = code.cycle_length
    n = sum(map(len, code.branch_codes)) // 2
    if n == k:
        return FamilySpec("C", (n,))
    j = n - k - sum(c[1:-1].count("()") for c in code.branch_codes)
    # t = 0 goes last: U(k,0,i,j) with i >= 1 duplicates U(k,1,i-1,j),
    # and the t >= 1 form is the conventional one
    for t in (*range(1, min(k, n - k) + 1), 0):
        i = n - k - t - 2 * j
        cand = FamilySpec("U", (k, t, i, j))
        if i >= 0 and cand.code() == code:
            return cand
    return None


def recognize_family(g: Graph) -> FamilySpec | None:
    """The named family of a graph up to isomorphism, a path, a cycle or
    ``family_label``'s U(k,t,i,j) for its canonical code; else None, as for
    every disconnected graph."""
    n = g.n
    if g.edge_count not in (n - 1, n) or not is_connected(g):
        return None
    degs = [g.degree(v) for v in range(n)]
    if g.edge_count == n - 1:
        path = n == 1 or (sorted(degs)[:2] == [1, 1] and all(d <= 2 for d in degs))
        return FamilySpec("P", (n,)) if path else None
    if all(d == 2 for d in degs):
        return FamilySpec("C", (n,))
    return _family_of(canonical_code(g))
