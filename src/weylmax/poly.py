"""Integer multivariate polynomial symbols.

A symbol is stored as a map from exponent vectors to non-zero integer
coefficients. Only the axis split, the built-in families and the JSON
form are provided;
there is deliberately no general polynomial arithmetic here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import InputError


@dataclass(frozen=True)
class IntPolynomial:
    dim: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"dimension must be >= 1, got {self.dim}")
        cleaned = {}
        for expo, coeff in self.terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.dim:
                raise InputError(f"exponent vector {expo} has length {len(expo)}, expected {self.dim}")
            if any(e < 0 for e in expo):
                raise InputError(f"negative exponent in {expo}")
            coeff = int(coeff)
            if coeff != 0:
                cleaned[expo] = coeff
        object.__setattr__(self, "terms", cleaned)

    def degree(self) -> int:
        """Maximum total degree over stored terms; 0 for the empty polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)



def axis_parts(poly: IntPolynomial) -> tuple[IntPolynomial, ...] | None:
    """One-variable parts P_1, ..., P_d with P(r) = sum_i P_i(r_i), or None.

    Each part is a d=1 polynomial; the constant term goes to the first
    axis. Returns None when a monomial mixes two or more variables. A
    d=1 symbol is its own single part.
    """
    parts: list[dict[tuple[int], int]] = [{} for _ in range(poly.dim)]
    for expo, coeff in poly.terms.items():
        axes = [i for i, e in enumerate(expo) if e]
        if len(axes) > 1:
            return None
        i = axes[0] if axes else 0
        parts[i][(expo[i],)] = coeff
    return tuple(IntPolynomial(1, t) for t in parts)


def distinct_parts(parts) -> tuple[tuple[IntPolynomial, ...], tuple[int, ...]]:
    """The distinct entries of parts in first-seen order, and for each
    entry of parts its index into them; equal axis parts share one
    one-dimensional computation."""
    distinct: list[IntPolynomial] = []
    index = []
    for part in parts:
        if part not in distinct:
            distinct.append(part)
        index.append(distinct.index(part))
    return tuple(distinct), tuple(index)


def family_diagonal(d: int, k: int) -> IntPolynomial:
    """Sum of k-th powers of the coordinates, degree k >= 2."""
    if d < 1:
        raise InputError(f"dimension must be >= 1, got {d}")
    if k < 2:
        raise InputError(f"diagonal family needs degree >= 2, got {k}")
    terms = {}
    for i in range(d):
        e = [0] * d
        e[i] = k
        terms[tuple(e)] = 1
    return IntPolynomial(d, terms)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def family_power_laplacian(d: int, k: int) -> IntPolynomial:
    """Multinomial expansion of (X_1^2 + ... + X_d^2)^k, degree 2k."""
    if d < 1 or k < 1:
        raise InputError(f"need d >= 1 and k >= 1, got ({d}, {k})")
    terms = {}
    kfact = math.factorial(k)
    for comp in _compositions(k, d):
        coeff = kfact
        for a in comp:
            coeff //= math.factorial(a)
        terms[tuple(2 * a for a in comp)] = coeff
    return IntPolynomial(d, terms)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse the JSON form {"d": d, "terms": [{"e": [...], "c": int}, ...]}.

    Duplicate exponent vectors are summed; zero coefficients are dropped.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"polynomial JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("polynomial JSON must be an object")
    if "d" not in obj or "terms" not in obj:
        raise InputError('polynomial JSON needs keys "d" and "terms"')
    d = obj["d"]
    if not isinstance(d, int) or d < 1:
        raise InputError(f'"d" must be a positive integer, got {d!r}')
    raw = obj["terms"]
    if not isinstance(raw, list):
        raise InputError('"terms" must be an array')
    terms: dict[tuple[int, ...], int] = {}
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "e" not in item or "c" not in item:
            raise InputError(f'term {i}: expected an object with keys "e" and "c"')
        e, c = item["e"], item["c"]
        if not isinstance(e, list) or len(e) != d:
            raise InputError(f"term {i}: exponent vector must have length {d}")
        if not all(isinstance(v, int) and v >= 0 for v in e):
            raise InputError(f"term {i}: exponents must be non-negative integers")
        if not isinstance(c, int):
            raise InputError(f"term {i}: coefficient must be an integer")
        key = tuple(e)
        terms[key] = terms.get(key, 0) + c
    return IntPolynomial(d, terms)


def to_json(poly: IntPolynomial) -> str:
    """Canonical serialization (sorted exponent vectors)."""
    items = [{"e": list(e), "c": c} for e, c in sorted(poly.terms.items())]
    return json.dumps({"d": poly.dim, "terms": items}, separators=(",", ":"))
