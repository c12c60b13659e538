"""Exact rational scalars, small dense matrices and polynomials, and the library's number readers.

Everything here is exact: scalars are ``fractions.Fraction``, matrix and
polynomial arithmetic never rounds.  One fraction-free integer elimination
gives the determinant and the adjugate together: :meth:`RationalMatrix.det`,
:meth:`RationalMatrix.inverse` and :func:`det_poly`, which interpolates the
determinant of a matrix polynomial from its values at integer points, all call
it; a matrix product multiplies the two integer forms.  Squarefree parts and Sturm chains are primitive integer coefficient lists
from one pseudo-remainder routine, scaled by positive factors only (Collins'
primitive remainder sequence).  Floats appear only as outputs:
:meth:`RationalMatrix.to_float`, and :func:`real_roots`, which decides every
sign exactly and rounds each root once, to one of the two floats around it.

Each number a caller passes is read by one of five readers here: rat (exact),
_number (a real scalar), _integer (an integer; every size, such as k, n, N or a
seed, is read and range-checked by one _integer call), _float_rows (float
arrays) and _rows (integer rows).  Booleans, text (but rat's "p/q"), what else a
reader cannot read and a size outside its range raise PreconditionViolation, a
ValueError; rat raises TypeError for a float or a boolean.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionViolation, SingularMatrix, reading_json

MAX_DIM = 8


def rat(x) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational; ``"p/0"`` raises PreconditionViolation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):  # JSON's true and false are not numbers
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise PreconditionViolation(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} ({type(x).__name__}) as a rational; pass an int, Fraction or \"p/q\"")


_NOT_NUMBERS = (bool, np.bool_, str, bytes)  # float() and int() would read True as 1 and parse "0.5"


def _number(x):
    """x as a real scalar: an int or Fraction as a Fraction, any other number (numpy's included) as a float.
    A boolean, text, NaN or an infinity raises PreconditionViolation; an exact value of any size is read."""
    if isinstance(x, _NOT_NUMBERS):
        raise PreconditionViolation(f"{x!r}: a boolean or text where a number belongs")
    if isinstance(x, (int, Fraction)):
        return x if isinstance(x, Fraction) else Fraction(x)
    x = float(x)
    if not math.isfinite(x):
        raise PreconditionViolation(f"{x} where a finite number belongs")
    return x


def _integer(c, lo: int | None = None, hi: int | None = None, name: str = "") -> int:
    """c as a Python int in [lo, hi] (no bound where lo or hi is None; hi needs lo): a Python or numpy integer,
    or a number with an integer value such as 2.0.  Anything else, a boolean or text included, and a value
    outside [lo, hi] raise PreconditionViolation, whose message starts with name."""
    head = f"{name} " if name else ""
    try:
        if isinstance(c, _NOT_NUMBERS) or (v := int(c)) != c:  # int() reads True as 1, 2.5 as 2 and "3" as 3
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # also: not a real number; NaN; an infinity
        raise PreconditionViolation(f"{head}{c!r} is not an integer") from None
    if not (lo is None or lo <= v) or not (hi is None or v <= hi):
        bounds = f"be at least {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        raise PreconditionViolation(f"{head}must {bounds}, got {v}")
    return v


def _float_rows(values, d: int | None = None) -> np.ndarray:
    """values as a float64 array: with d, rows of d finite coordinates; without, a number or numbers whose
    range the caller checks.  A boolean or text (told by an array's dtype, else by the values' types, before
    any conversion), a value past the float range and, with d, a NaN or an infinity raise
    PreconditionViolation; with d, a row whose length is not d raises ValueError."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        kinds = {values.dtype.type}
    elif d is None:
        kinds = set(map(type, np.array(values, dtype=object).flat))
    else:
        try:
            kinds = set(map(type, itertools.chain.from_iterable(values)))
        except TypeError:  # a number where a row belongs
            raise ValueError(f"expected rows of length {d}") from None
    if any(issubclass(t, _NOT_NUMBERS) for t in kinds):
        raise PreconditionViolation("a boolean or text where a number belongs")
    try:
        a = np.array(values, dtype=float)
    except OverflowError:
        raise PreconditionViolation("a value past the float range") from None
    if d is not None:
        a = a.reshape(0, d) if a.shape == (0,) else a
        if a.ndim != 2 or a.shape[1] != d:
            raise ValueError(f"expected rows of length {d}, got an array of shape {a.shape}")
        if not np.isfinite(a).all():
            raise PreconditionViolation("coordinates must be finite")
    return a


def _rows(points: Iterable, dim: int) -> np.ndarray:
    """(n, dim) int64 array of the points, or object array of Python ints past int64; a point whose length
    is not dim raises PreconditionViolation.  Coordinates are read by _integer unless all are integers, so
    nothing is converted unchecked: ``np.array(..., dtype=np.int64)`` would read True as 1 and 1.5 as 1."""
    pts = list(points)
    if any(len(p) != dim for p in pts):
        raise PreconditionViolation("point dimension mismatch")
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, itertools.chain(*pts)))):
        pts = [[_integer(c) for c in p] for p in pts]
    try:
        rows = np.array(pts, dtype=np.int64)
    except OverflowError:
        rows = np.array([[int(c) for c in p] for p in pts], dtype=object)
    return rows.reshape(len(pts), dim)


def _rat_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, list | None]:
    """(det M, adj M) of a square integer matrix M; (0, None) when M is singular.

    Fraction-free Gauss-Jordan (Bareiss's elimination in Montante's form) on the rows [M | I]: with pivot
    p at step k and the previous pivot q, every other row i becomes (p row_i - m_ik row_k) / q, an exact
    division.  At the end every pivot is det M and the right half is adj M, times the swaps' sign."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    q, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        p, top = m[k][k], m[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * a - f * b) // q for a, b in zip(m[i], top)]
        q = p
    return sign * q, [[sign * e for e in r[n:]] for r in m]


class RationalMatrix:
    """Immutable square matrix over the rationals, dimension at most 8."""

    __slots__ = ("dim", "rows", "_memo")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(rat(e) for e in row) for row in rows)
        dim = len(rows)
        if dim == 0 or any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square and non-empty")
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the supported maximum {MAX_DIM}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_memo", {})  # the inverse and the integer form, each derived once

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, dim: int) -> "RationalMatrix":
        dim = _integer(dim, 1, MAX_DIM, name=f"dimension (supported maximum {MAX_DIM})")
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def zero(cls, dim: int) -> "RationalMatrix":
        return 0 * cls.identity(dim)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RationalMatrix":
        d = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(d)] for i in range(d)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RationalMatrix({[[str(e) for e in r] for r in self.rows]})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_dim(other)
        return RationalMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-e for e in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):  # on the integer forms: (L, A)(K, B) = AB / (LK)
            self._check_dim(other)
            (L, A), (K, B) = self.integer_form(), other.integer_form()
            cols = list(zip(*B))
            return RationalMatrix([[Fraction(sum(map(operator.mul, r, c)), L * K) for c in cols] for r in A])
        s = rat(other)
        return RationalMatrix([[s * e for e in r] for r in self.rows])

    __rmul__ = __mul__

    def _check_dim(self, other: "RationalMatrix"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def mat_vec(self, v: Sequence) -> tuple:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(operator.mul, r, v)) for r in self.rows)

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.rows for e in r)

    def is_diagonal(self) -> bool:
        return all(e == 0 for i, r in enumerate(self.rows) for j, e in enumerate(r) if i != j)

    def power(self, p: int) -> "RationalMatrix":
        out = RationalMatrix.identity(self.dim)
        for _ in range(_integer(p, 0, name="power p")):
            out = out * self
        return out

    def det(self) -> Fraction:
        L, rows = self.integer_form()
        return Fraction(_eliminate(rows)[0], L**self.dim)

    def integer_form(self) -> tuple[int, tuple]:
        """(L, L * rows): L the lcm of the entries' denominators, the scaled rows as tuples of ints."""
        if "integer" not in self._memo:
            L = math.lcm(*(e.denominator for r in self.rows for e in r))
            self._memo["integer"] = L, tuple(tuple(e.numerator * (L // e.denominator) for e in r) for r in self.rows)
        return self._memo["integer"]

    def inverse(self) -> "RationalMatrix":
        """The exact inverse L adj(L M) / det(L M), derived once; :class:`SingularMatrix` when the determinant is 0."""
        if "inverse" not in self._memo:
            L, rows = self.integer_form()
            det, adj = _eliminate(rows)
            if not det:
                raise SingularMatrix("matrix has zero determinant")
            self._memo["inverse"] = RationalMatrix([[Fraction(L * e, det) for e in r] for r in adj])
        return self._memo["inverse"]

    def to_float(self) -> np.ndarray:
        return np.array([[float(e) for e in r] for r in self.rows], dtype=float)

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": [[_rat_to_json(e) for e in r] for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        with reading_json("matrix"):
            m = cls(obj["entries"])
            m.to_float()  # OverflowError for an entry past the float range
            dim = _integer(obj.get("dim", m.dim), name="declared dimension")
        if m.dim != dim:
            raise ValueError("declared dimension does not match entries")
        return m


class Polynomial:
    """Univariate polynomial with exact rational coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = [f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Polynomial(" + " + ".join(terms) + ")"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial([])
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        s = rat(other)
        return Polynomial([s * c for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def order_at_zero(self):
        """Index of the lowest non-zero coefficient; ``None`` for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None


def det_poly(parts: Sequence[RationalMatrix]) -> Polynomial:
    """det(A_0 + t A_1 + t^2 A_2 + ...) for ``parts = [A_0, A_1, ...]``, exactly.

    Its degree is at most D = dim * (len(parts) - 1), so its values at t = 0, 1, ..., D fix it.
    Each value is the determinant of the integer matrix L * A(t), L the lcm of every entry's
    denominator; Newton's forward differences on these nodes then give D! L^dim times the
    polynomial in integers.
    """
    dim = parts[0].dim
    if any(a.dim != dim for a in parts):
        raise ValueError("dimension mismatch")
    forms = [a.integer_form() for a in parts]
    L = math.lcm(*(l for l, _ in forms))
    scaled = [[[e * (L // l) for e in row] for row in rows] for l, rows in forms]
    D = dim * (len(parts) - 1)
    ys = [_eliminate([[sum(t**k * a[i][j] for k, a in enumerate(scaled)) for j in range(dim)] for i in range(dim)])[0]
          for t in range(D + 1)]
    for k in range(1, D + 1):  # in place: ys[k] becomes the k-th forward difference at t = 0
        for t in range(D, k - 1, -1):
            ys[t] -= ys[t - 1]
    # Horner on the Newton form sum_k ys[k] / k! * t (t - 1) ... (t - k + 1), times D!
    out, scale = [], 1
    for k in range(D, -1, -1):
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= k * out[i + 1]
        out[0] += ys[k] * scale
        scale *= k
    den = math.factorial(D) * L**dim
    return Polynomial([Fraction(c, den) for c in out])


def companion(poly_coeffs: Sequence) -> RationalMatrix:
    """Companion matrix with coefficients c_1..c_l down the first column and a
    superdiagonal of ones."""
    l = len(poly_coeffs)
    return RationalMatrix([[poly_coeffs[i] if j == 0 else int(j == i + 1) for j in range(l)] for i in range(l)])


def nilpotency(c: RationalMatrix) -> tuple[bool, int | None]:
    """Whether ``c`` is nilpotent, and if so the least power that vanishes."""
    power = RationalMatrix.identity(c.dim)
    for k in range(1, c.dim + 1):
        power = power * c
        if power.is_zero():
            return True, k
    return False, None


def char_poly(c: RationalMatrix) -> Polynomial:
    """Exact characteristic polynomial det(c - t*I)."""
    return det_poly([c, -RationalMatrix.identity(c.dim)])


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by its positive content, the gcd of its entries."""
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _prem(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with c a = q b + r for an integer c > 0 and deg r < deg b; coefficient lists low degree first.

    Each step multiplies by |lc b| and subtracts sign(lc b) lc r x^k b, so c is a power of |lc b|."""
    s, lb = (1 if b[-1] > 0 else -1), abs(b[-1])
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):  # [0] * k + b is x^k b, as long as r; their top terms cancel
        k, f = len(r) - len(b), s * r[-1]
        q = [lb * c + f * (i == k) for i, c in enumerate(q)]
        r = [lb * c - f * d for c, d in zip(r, [0] * k + b)]
        while r and not r[-1]:
            r.pop()
    return q, r


def _chain(a: list[int]) -> list[list[int]]:
    """a, a' and the negated remainders, each divided by its positive content (Collins' primitive sequence).

    Up to positive factors this is a Sturm chain of a when a is squarefree; its last entry is gcd(a, a')."""
    chain, b = [a], [k * c for k, c in enumerate(a)][1:]
    while b:
        chain.append(_primitive(b))
        b = [-c for c in _prem(chain[-2], chain[-1])[1]]
    return chain


def _squarefree(p: Polynomial) -> list[int]:
    """p / gcd(p, p') up to a nonzero factor, as a primitive integer list: p's distinct roots, each simple."""
    d = math.lcm(*(c.denominator for c in p.coeffs))
    a = _primitive([c.numerator * (d // c.denominator) for c in p.coeffs])
    return _primitive(_prem(a, _chain(a)[-1])[0])


def _squarefree_part(p: Polynomial) -> Polynomial:
    return Polynomial(_squarefree(p))


def _scaled_at(cs: list[int], x) -> int:
    """sum(cs[i] x^i) d^deg at x = n/d, a float or a rational: an integer with the sign of the value."""
    n, d = x.as_integer_ratio()
    v, pw = cs[-1], 1
    for c in reversed(cs[:-1]):
        pw *= d
        v = v * n + c * pw
    return v


def _sign_changes(chain: list[list[int]], x) -> int:
    signs = [v for v in (_scaled_at(cs, x) for cs in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_real_roots(p: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of ``p`` in the closed interval [lo, hi], exactly."""
    if p.is_zero():
        raise ValueError("zero polynomial has infinitely many roots")
    lo, hi = rat(lo), rat(hi)
    if lo > hi:
        raise ValueError("empty interval")
    chain = _chain(_squarefree(p))
    # Sturm counts roots in (lo, hi]; add lo back if it is a root.
    return _sign_changes(chain, lo) - _sign_changes(chain, hi) + (_scaled_at(chain[0], lo) == 0)


def _ordinal(x: float) -> int:
    """x's place in the order of the floats: its bit pattern as a signed integer, negated for negative floats."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def _float_at(i: int) -> float:
    """The float whose ordinal is i."""
    return math.copysign(struct.unpack("<d", struct.pack("<q", abs(i)))[0], i)


def real_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """The distinct real roots of ``p`` in the open interval (lo, hi), increasing, each as a float.

    Bisects (lo, hi) over the floats' ordinals (at most 64 steps), counting the roots in each part with
    the Sturm chain of p's squarefree part evaluated exactly; a part that holds one root is halved by the
    squarefree part's sign alone.  Once a root's bracket is two adjacent floats, the one where the squarefree
    part is smaller in absolute value is returned, the lower on a tie.  A root that is a float is returned exactly.
    """
    if p.is_zero() or not lo < hi:
        raise ValueError("need a nonzero polynomial and lo < hi")
    chain = _chain(_squarefree(p))
    sf, ends = chain[0], (_ordinal(lo), _ordinal(hi))
    # V(x) - V(y) counts the roots in (x, y]; each interval carries V at its left end, and its ends as ordinals
    v_lo = _sign_changes(chain, lo)
    roots, todo = [], [(*ends, v_lo, v_lo - _sign_changes(chain, hi) - (_scaled_at(sf, hi) == 0))]
    while todo:
        a, b, v_a, n = todo.pop()  # n: the number of roots in the open interval (a, b)
        m = (a + b) // 2 if n and b - a > 1 else None
        if n == 1:  # the root is simple: just right of a, sf has the sign of sf(a), or of sf'(a) if a is a root
            up = (_scaled_at(sf, x := _float_at(a)) or _scaled_at(chain[1], x)) > 0
            while m is not None and (v := _scaled_at(sf, _float_at(m))):
                a, b = (m, b) if (v > 0) == up else (a, m)
                m = (a + b) // 2 if b - a > 1 else None
        if n and m is None:  # n roots between adjacent floats; at x = u/d, |sf(x)| = |_scaled_at(sf, x)| / d^deg
            xs = [_float_at(o) for o in (a, b) if ends[0] < o < ends[1]] or [_float_at(a), _float_at(b)]
            q = [x.as_integer_ratio()[1] ** (len(sf) - 1) for x in xs]
            roots += [xs[-1] if abs(_scaled_at(sf, xs[-1])) * q[0] < abs(_scaled_at(sf, xs[0])) * q[-1] else xs[0]] * n
        elif n == 1:  # sf vanishes at m
            roots.append(_float_at(m))
        elif n:
            v_m, hit = _sign_changes(chain, x := _float_at(m)), _scaled_at(sf, x) == 0
            left = v_a - v_m - hit
            roots += [x] * hit
            todo += [(a, m, v_a, left), (m, b, v_m, n - left - hit)]
    return sorted(roots)
