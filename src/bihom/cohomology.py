"""Cochain complex of a BiHom-pre-Lie algebra with coefficients in a
representation.

An n-cochain (n >= 1) is a multilinear map ``f: A^n -> V`` that is
skew-symmetric in its first n-1 arguments and intertwines the twists:

    phi . f = f . alpha^(x n)      and      psi . f = f . beta^(x n).

A :class:`Cochain` stores the full value tensor ``t[i_1]...[i_n][k]``.
The computations work on the free coordinates S^n instead: the values on
canonical tuples (strictly increasing first n-1 indices), one per carrier
index.  Two sparse maps act on them: the equivariance system ``E_n``,
whose kernel basis ``K_n`` spans C^n, and the four-sum coboundary
``D_n: S^n -> S^(n+1)``

  (d f)(x_1, ..., x_{n+1}) =
      sum_{i<=n} (-1)^(i+1) L(alpha^(n-1) beta^(n-1) x_i)
                 f(alpha x_1, ..^i.., alpha x_n, x_{n+1})
    + sum_{i<=n} (-1)^(i+1) R(beta^(n-1) x_{n+1})
                 f(beta x_1, ..^i.., beta x_n, alpha^(n-1) x_i)
    - sum_{i<=n} (-1)^(i+1)
                 f(ab x_1, ..^i.., ab x_n, alpha^(n-1)(x_i) . x_{n+1})
    + sum_{i<j<=n} (-1)^(i+j)
                 f([beta x_i, alpha x_j]_C, ab x_1, ..^i..^j.., ab x_n,
                   beta x_{n+1})

with ``ab = alpha beta``, ``..^i..`` omitting the i-th argument and
``[.,.]_C`` the sub-adjacent bracket.  Then ``dim Z^n = dim C^n -
rank(D_n K_n)`` and ``dim B^(n+1) = rank(D_n K_n)``.  Degrees start at
n = 1, so B^1 = {0} and H^1 equals the 1-cocycles.

One ``_Degree`` per degree assembles ``E_n``, ``K_n`` and ``D_n`` when
first read, and each function builds the degrees it touches once per call:
the space from :func:`cochain_space` keeps its ``_Degree`` for the
coboundary functions.  Rows reach :mod:`bihom.linalg` as
``Matrix.from_sparse``, which keeps them for the elimination.

Every evaluation of D_n on cochains K (:func:`coboundary`,
:func:`is_cocycle`, :func:`coboundary_matrix`, :func:`coboundary_preimage`,
:func:`cohomology_table`) asserts ``E_n K = 0`` (the inputs are cochains),
that the images are skew on every (n+1)-tuple, and ``E_(n+1) D_n K = 0``
(the images are equivariant).  :func:`cohomology_table` also asserts
``d o d = 0`` as ``D_(n+1) D_n K_n = 0`` on canonical rows for each degree
it computes; :func:`coboundary` does not, as it also evaluates the formula
for coefficients that form no representation.  A failure raises
RuntimeError: for a representation of a BiHom-pre-Lie algebra it means the
implementation, not the data, is wrong.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Callable, Iterable, Sequence

from .algebra import BiHomPreLieAlgebra, BilinearProduct, subadjacent
from .linalg import (Matrix, Row, Value, _row_product, _subtract,
                     basis_vector, kernel_basis, nonzero_items, rank,
                     rational_from_json, rational_to_json, try_solve,
                     vec_is_zero, zero_vector)
from .representation import PreLieRep

__all__ = [
    "Cochain", "CochainSpace", "CohomologyReport", "cochain_space",
    "coboundary", "coboundary_matrix", "cohomology_dims", "cohomology_table",
    "is_cocycle", "is_coboundary", "coboundary_preimage",
    "cochain_from_linear_map", "cochain_from_bilinear",
]


def _nest(adim: int, depth: int,
          get: Callable[[tuple[int, ...]], tuple[Fraction, ...]]):
    def build(prefix: tuple[int, ...], d: int):
        if d == 0:
            return get(prefix)
        return tuple(build(prefix + (i,), d - 1) for i in range(adim))
    return build((), depth)


class Cochain(Value):
    """Degree-n multilinear map A^n -> V expanded on basis tuples."""

    degree: int
    adim: int
    vdim: int
    tensor: tuple

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("cochains have degree >= 1")

        def walk(node, depth: int) -> None:
            if depth == 0:
                if len(node) != self.vdim:
                    raise ValueError("cochain values must have carrier dimension")
                return
            if len(node) != self.adim:
                raise ValueError("cochain tensor does not match algebra dimension")
            for child in node:
                walk(child, depth - 1)

        walk(self.tensor, self.degree)

    @classmethod
    def zero(cls, degree: int, adim: int, vdim: int) -> "Cochain":
        return cls(degree, adim, vdim,
                   _nest(adim, degree, lambda _: zero_vector(vdim)))

    @classmethod
    def from_map(cls, degree: int, adim: int, vdim: int,
                 get: Callable[[tuple[int, ...]], Sequence[Fraction]]) -> "Cochain":
        return cls(degree, adim, vdim,
                   _nest(adim, degree, lambda idx: tuple(get(idx))))

    def at(self, idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        node = self.tensor
        for i in idx:
            node = node[i]
        return node

    def value(self, args: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
        """Multilinear evaluation on coordinate vectors (sparsity-aware)."""
        if len(args) != self.degree:
            raise ValueError("argument count must equal the degree")
        acc = list(zero_vector(self.vdim))
        for pairs in itertools.product(*(nonzero_items(v) for v in args)):
            coeff = prod(c for _, c in pairs)
            for k, val in enumerate(self.at(tuple(i for i, _ in pairs))):
                acc[k] += coeff * val
        return tuple(acc)

    @property
    def is_zero(self) -> bool:
        return all(vec_is_zero(self.at(idx)) for idx in
                   itertools.product(range(self.adim), repeat=self.degree))

    def to_json(self) -> dict:
        def encode(node, depth: int):
            if depth == 0:
                return [rational_to_json(a) for a in node]
            return [encode(child, depth - 1) for child in node]
        return {"degree": self.degree, "tensor": encode(self.tensor, self.degree)}

    @classmethod
    def from_json(cls, data: dict, adim: int, vdim: int) -> "Cochain":
        degree = data["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError("cochain degree must be an integer")

        def decode(node, depth: int):
            if not isinstance(node, list):
                raise ValueError("cochain tensor must be a nested array")
            if depth == 0:
                return tuple(rational_from_json(a) for a in node)
            return tuple(decode(child, depth - 1) for child in node)

        return cls(degree, adim, vdim, decode(data["tensor"], degree))


def cochain_from_linear_map(m: Matrix) -> Cochain:
    """Degree-1 cochain from a matrix (column convention)."""
    return Cochain.from_map(1, m.cols, m.rows, lambda idx: m.col(idx[0]))


def cochain_from_bilinear(p: BilinearProduct) -> Cochain:
    """Degree-2 cochain with values in the algebra itself."""
    return Cochain(2, p.dim, p.dim, p.c)


# ---------------------------------------------------------------------------
# free coordinates and sparse rows
# ---------------------------------------------------------------------------

def _resolve(idx: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
    """``(sign, canonical)`` with ``f(idx) = sign * f(canonical)`` for skew
    f: the head sorted and the parity of the sort, or ``(0, None)`` when the
    head repeats an index."""
    head = idx[:-1]
    if len(set(head)) != len(head):
        return 0, None
    inversions = sum(x > y for i, x in enumerate(head) for y in head[i + 1:])
    return (-1) ** inversions, tuple(sorted(head)) + idx[-1:]


def _canonical(adim: int, n: int) -> list[tuple[int, ...]]:
    """The canonical n-tuples; tuple i has free coordinates i*vdim + k."""
    return [head + (last,) for head in itertools.combinations(range(adim), n - 1)
            for last in range(adim)]


def _coordinates(f: Cochain) -> tuple[Fraction, ...]:
    return tuple(x for idx in _canonical(f.adim, f.degree) for x in f.at(idx))


def _unpack(vec: Sequence[Fraction], n: int, adim: int, vdim: int) -> Cochain:
    """The skew cochain with free coordinates ``vec``."""
    index = {idx: i for i, idx in enumerate(_canonical(adim, n))}

    def get(idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        sign, canon = _resolve(idx)
        if canon is None:
            return zero_vector(vdim)
        base = index[canon] * vdim
        return tuple(sign * vec[base + k] for k in range(vdim))

    return Cochain.from_map(n, adim, vdim, get)


def _wedge(vectors: Sequence[tuple[tuple[int, Fraction], ...]]
           ) -> dict[tuple[int, ...], Fraction]:
    """``f(v_1, ..., v_m, -)`` for f skew in its first m slots, as the
    coefficients (minors) of ``f(e_J, -)`` over strictly increasing J."""
    out: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for v in vectors:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for J, w in out.items():
            for j, c in v:
                at = bisect_left(J, j)
                if at < len(J) and J[at] == j:
                    continue
                # sorting j into slot `at` passes len(J) - at indices
                term = w * c if (len(J) - at) % 2 == 0 else -w * c
                K = J[:at] + (j,) + J[at:]
                nxt[K] = nxt.get(K, 0) + term
        out = _clean(nxt)
    return out


def _clean(row: dict) -> dict:
    return {p: x for p, x in row.items() if x}


def _row_form(vectors: Sequence[Sequence[Fraction]], length: int) -> list[Row]:
    """The matrix with columns ``vectors``, in row form."""
    kt: list[Row] = [{} for _ in range(length)]
    for j, v in enumerate(vectors):
        for s, x in enumerate(v):
            if x:
                kt[s][j] = x
    return kt


class _Degree:
    """Degree n of the complex over S^n: the sparse rows of ``E_n`` and
    ``D_n``, built from the twist columns and the ``lmat``/``rmat``/
    ``prod``/``bkt`` tables, and the kernel basis ``K_n`` of ``E_n``.  Each
    is built when first read and kept."""

    def __init__(self, a: BiHomPreLieAlgebra, r: PreLieRep, n: int) -> None:
        self.a, self.r, self.n, self.vdim = a, r, n, r.vdim
        self.eye = Matrix.identity(r.vdim).sparse_rows
        self.index = {idx: i for i, idx in enumerate(_canonical(a.dim, n))}
        self.width = len(self.index) * r.vdim
        self.cols = {name: [nonzero_items(m.col(i)) for i in range(a.dim)]
                     for name, m in (("alpha", a.alpha), ("beta", a.beta),
                                     ("ab", a.alpha @ a.beta),
                                     ("an1", a.alpha.power(n - 1)),
                                     ("e", Matrix.identity(a.dim)))}
        self._wedges: dict = {}

    def _heads(self, family: str, idx: tuple[int, ...],
               bracket: tuple[int, int] | None = None) -> dict:
        """The wedge of the ``family`` columns at ``idx``, preceded by
        ``[beta e_p, alpha e_q]_C`` when ``bracket = (p, q)``."""
        key = (family, idx, bracket)
        if key not in self._wedges:
            vectors = [self.cols[family][i] for i in idx]
            if bracket is not None:
                vectors.insert(0, self.tables["bkt"][bracket[0]][bracket[1]])
            self._wedges[key] = _wedge(vectors)
        return self._wedges[key]

    def _evaluate(self, rows: list[Row], heads: dict, last,
                  outer: Sequence[Row], coeff: int) -> None:
        """``rows[k] += coeff * (outer f(heads, last))[k]`` as functionals of
        f's free coordinates, for the sparse rows ``outer`` of a matrix."""
        vdim, index = self.vdim, self.index
        for J, w in heads.items():
            for l, c in last:
                base = index[J + (l,)] * vdim
                x = coeff * w * c
                for row, entries in zip(rows, outer):
                    for kk, m in entries.items():
                        row[base + kk] = row.get(base + kk, 0) + x * m

    @cached_property
    def equivariance(self) -> list[Row]:
        """``E_n``: the nonzero rows of ``outer f(e_X) - f(inner e_X)`` for
        (outer, inner) = (phi, alpha), (psi, beta) and canonical X.  At any
        other tuple the condition repeats one of these up to sign."""
        out = []
        for family, outer in (("alpha", self.r.phi.sparse_rows),
                              ("beta", self.r.psi.sparse_rows)):
            for idx in self.index:
                rows: list[Row] = [{} for _ in range(self.vdim)]
                self._evaluate(rows, {idx[:-1]: 1}, self.cols["e"][idx[-1]],
                               outer, 1)
                self._evaluate(rows, self._heads(family, idx[:-1]),
                               self.cols[family][idx[-1]], self.eye, -1)
                out.extend(row for row in map(_clean, rows) if row)
        return out

    @cached_property
    def kernel(self) -> list[tuple[Fraction, ...]]:
        """``K_n``: the kernel basis of ``E_n``, a basis of C^n."""
        return kernel_basis(Matrix.from_sparse(self.equivariance, self.width))

    @cached_property
    def tables(self) -> dict:
        a, r, n, adim = self.a, self.r, self.n, self.a.dim
        an1, bn1 = a.alpha.power(n - 1), a.beta.power(n - 1)
        an1bn1 = an1 @ bn1
        sub = subadjacent(a).bracket
        return {
            "lmat": [r.L_of(an1bn1.col(i)).sparse_rows for i in range(adim)],
            "rmat": [r.R_of(bn1.col(i)).sparse_rows for i in range(adim)],
            "prod": [[nonzero_items(a.product.value(an1.col(p),
                                                    basis_vector(adim, q)))
                      for q in range(adim)] for p in range(adim)],
            "bkt": [[nonzero_items(sub.value(a.beta.col(p), a.alpha.col(q)))
                     for q in range(adim)] for p in range(adim)],
        }

    def rows_at(self, X: tuple[int, ...]) -> list[Row]:
        """The rows of ``(D_n f)(e_X)``, one per carrier index, at any
        (n+1)-tuple X."""
        t, cols, n = self.tables, self.cols, self.n
        rows: list[Row] = [{} for _ in range(self.vdim)]
        last = X[n]
        for i in range(n):
            sign = 1 if i % 2 == 0 else -1
            rest = X[:i] + X[i + 1:n]
            self._evaluate(rows, self._heads("alpha", rest), cols["e"][last],
                           t["lmat"][X[i]], sign)
            self._evaluate(rows, self._heads("beta", rest), cols["an1"][X[i]],
                           t["rmat"][last], sign)
            self._evaluate(rows, self._heads("ab", rest), t["prod"][X[i]][last],
                           self.eye, -sign)
            for j in range(i + 1, n):
                rest = tuple(X[s] for s in range(n) if s not in (i, j))
                self._evaluate(rows, self._heads("ab", rest, (X[i], X[j])),
                               cols["beta"][last], self.eye,
                               1 if (i + j) % 2 == 0 else -1)
        return [_clean(row) for row in rows]

    @cached_property
    def coboundary(self) -> list[Row]:
        """``D_n``: its rows at the canonical (n+1)-tuples, in the order of
        the free coordinates of S^(n+1)."""
        return [row for X in _canonical(self.a.dim, self.n + 1)
                for row in self.rows_at(X)]


def _image(src: _Degree, dst: _Degree,
           inputs: Sequence[Sequence[Fraction]]) -> list[Row]:
    """``D_n K`` in row form for the free-coordinate columns K = ``inputs``,
    asserting ``E_n K = 0``, skew images at every (n+1)-tuple and
    ``E_(n+1) D_n K = 0``."""
    if not inputs:
        return [{} for _ in range(dst.width)]
    kt = _row_form(inputs, src.width)
    if any(_row_product(src.equivariance, kt)):
        raise RuntimeError("internal defect: E_n K != 0, a coboundary input "
                           "is not a cochain")
    canon, vdim = src.coboundary, src.vdim
    for X in itertools.product(range(src.a.dim), repeat=src.n + 1):
        sign, c = _resolve(X)
        if c == X:
            continue
        rows = src.rows_at(X)
        if c is not None:
            base = dst.index[c] * vdim
            for row, expected in zip(rows, canon[base:base + vdim]):
                _subtract(row, sign, expected)
        if any(_row_product(rows, kt)):
            raise RuntimeError("internal defect: coboundary image is not skew")
    image = _row_product(canon, kt)
    if any(_row_product(dst.equivariance, image)):
        raise RuntimeError("internal defect: E_(n+1) D_n K != 0, a coboundary "
                           "image is not twist-equivariant")
    return image


class CochainSpace:
    """A basis of C^n, held as free-coordinate ``vectors``: the kernel basis
    K_n of the degree-n system ``ops`` that :func:`cochain_space` solved
    (and the coboundary functions reuse), or the coordinates of any basis
    of cochains given as ``CochainSpace(n, basis)``.  The :class:`Cochain`
    form of the basis is built when first read."""

    def __init__(self, degree: int, basis: Sequence[Cochain] = (), *,
                 ops: _Degree | None = None) -> None:
        self.degree, self.ops = degree, ops
        if ops is None:
            self.basis = tuple(basis)
            self.adim, self.vdim = ((self.basis[0].adim, self.basis[0].vdim)
                                    if self.basis else (0, 0))
            vectors = [_coordinates(f) for f in self.basis]
        else:
            self.adim, self.vdim, vectors = ops.a.dim, ops.vdim, ops.kernel
        self.vectors = tuple(tuple(v) for v in vectors)

    @cached_property
    def basis(self) -> tuple[Cochain, ...]:
        return tuple(_unpack(v, self.degree, self.adim, self.vdim)
                     for v in self.vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def combine(self, coords: Sequence[Fraction]) -> Cochain:
        if len(coords) != self.dim:
            raise ValueError("coordinate count does not match the dimension")
        if not self.vectors:
            return Cochain.zero(self.degree, self.adim, self.vdim)
        vec = [sum(c * x for c, x in zip(coords, xs)) for xs in zip(*self.vectors)]
        return _unpack(vec, self.degree, self.adim, self.vdim)


def cochain_space(a: BiHomPreLieAlgebra, r: PreLieRep, n: int) -> CochainSpace:
    """Solve for a basis of C^n: all tensors that are skew in the first n-1
    slots and equivariant for both twist pairs, as the exact kernel basis
    of ``E_n`` over the free coordinates."""
    if n < 1:
        raise ValueError("cochain spaces are defined for degree >= 1")
    if r.algebra != a:
        raise ValueError("representation is over a different algebra")
    return CochainSpace(n, ops=_Degree(a, r, n))


def _ops(space: CochainSpace, a: BiHomPreLieAlgebra, r: PreLieRep,
         n: int) -> _Degree:
    """``space.ops`` if it was solved for (a, r, n), else a new one."""
    ops = space.ops
    if ops is None or (ops.a, ops.r, ops.n) != (a, r, n):
        ops = _Degree(a, r, n)
    return ops


def _require_cochain(f: Cochain, deg: _Degree) -> tuple[Fraction, ...]:
    """The free coordinates of f, after checking that it is in C^n of ``deg``."""
    if f.adim != deg.a.dim or f.vdim != deg.vdim:
        raise ValueError("cochain shape does not match the algebra and "
                         "representation")
    coords = _coordinates(f)
    if _unpack(coords, f.degree, f.adim, f.vdim) != f:
        raise ValueError("not a cochain: fails skew-symmetry in the leading "
                         "arguments")
    if any(_row_product(deg.equivariance, _row_form([coords], len(coords)))):
        raise ValueError("not a cochain: fails twist equivariance")
    return coords


def coboundary(f: Cochain, a: BiHomPreLieAlgebra, r: PreLieRep) -> Cochain:
    """Apply the four-sum coboundary operator to a degree-n cochain; a
    non-cochain input raises ValueError, a failed assertion on the output
    RuntimeError."""
    n = f.degree
    src = _Degree(a, r, n)
    coords = _require_cochain(f, src)
    image = _image(src, _Degree(a, r, n + 1), [coords])
    return _unpack([row.get(0, Fraction(0)) for row in image], n + 1,
                   f.adim, f.vdim)


def is_cocycle(f: Cochain, a: BiHomPreLieAlgebra, r: PreLieRep) -> bool:
    """True iff the coboundary of f vanishes identically."""
    return coboundary(f, a, r).is_zero


def coboundary_matrix(a: BiHomPreLieAlgebra, r: PreLieRep, n: int,
                      source: CochainSpace | None = None,
                      target: CochainSpace | None = None) -> Matrix:
    """Matrix of the degree-n coboundary with respect to the bases of C^n
    (columns) and C^(n+1) (rows).

    All images are expanded in the target basis T by one elimination, the
    kernel of ``[T | D_n K]``; an inexpressible image raises RuntimeError
    since the operator must map C^n into C^(n+1).
    """
    if n < 1:
        raise ValueError("coboundary matrices are defined for degree >= 1")
    source = source or cochain_space(a, r, n)
    target = target or cochain_space(a, r, n + 1)
    if source.dim == 0:
        return Matrix.zeros(target.dim, 0)
    dst = _ops(target, a, r, n + 1)
    image = _image(_ops(source, a, r, n), dst, source.vectors)
    t, s = target.dim, source.dim
    rows = _row_form(target.vectors, dst.width)
    for row, extra in zip(rows, image):
        row.update({t + j: x for j, x in extra.items()})
    null = kernel_basis(Matrix.from_sparse(rows, t + s))
    if len(null) != s:
        raise RuntimeError("internal defect: coboundary image falls outside "
                           "the cochain space")
    return Matrix(t, s, tuple(tuple(-v[i] for v in null) for i in range(t)))


class CohomologyReport(Value):
    """Cocycle, coboundary and cohomology dimensions at one degree."""

    degree: int
    dimZ: int
    dimB: int
    dimH: int

    def __post_init__(self) -> None:
        if self.dimH != self.dimZ - self.dimB or self.dimH < 0:
            raise ValueError("inconsistent cohomology dimensions")


def cohomology_dims(a: BiHomPreLieAlgebra, r: PreLieRep, n: int) -> CohomologyReport:
    """dim Z^n = dim ker d^n, dim B^n = rank d^(n-1) (zero at n = 1),
    dim H^n = dim Z^n - dim B^n."""
    return cohomology_table(a, r, [n])[0]


def cohomology_table(a: BiHomPreLieAlgebra, r: PreLieRep,
                     degrees: Iterable[int]) -> list[CohomologyReport]:
    """Cohomology dimensions for several degrees, from one cochain space
    and one ``rank(D_m K_m)`` per degree m."""
    wanted = sorted(set(degrees))
    if not wanted:
        return []
    if wanted[0] < 1:
        raise ValueError("cohomology degrees start at 1")
    lo = max(1, wanted[0] - 1)
    hi = wanted[-1] + 1
    spaces = {m: cochain_space(a, r, m) for m in range(lo, hi)}
    degs = {m: space.ops for m, space in spaces.items()}
    # At the top degree only E and D are read, never the kernel K.
    degs[hi] = _Degree(a, r, hi)
    ranks = {}
    for m in range(lo, hi):
        dst = degs[m + 1]
        image = _image(degs[m], dst, spaces[m].vectors)
        if any(_row_product(dst.coboundary, image)):
            raise RuntimeError(f"D_{m + 1} D_{m} K_{m} != 0: the coboundary "
                               "does not square to zero")
        ranks[m] = rank(Matrix.from_sparse([row for row in image if row],
                                           spaces[m].dim))
    reports = []
    for m in wanted:
        dim_z, dim_b = spaces[m].dim - ranks[m], ranks.get(m - 1, 0)
        reports.append(CohomologyReport(m, dim_z, dim_b, dim_z - dim_b))
    return reports


def coboundary_preimage(f: Cochain, a: BiHomPreLieAlgebra,
                        r: PreLieRep) -> Cochain | None:
    """A degree-(n-1) cochain g with dg = f, or None when f is not a
    coboundary.  At degree 1 the coboundary space is {0}, so only the zero
    cochain qualifies and it has no structural preimage (None is returned).
    """
    n = f.degree
    dst = _Degree(a, r, n)
    coords = _require_cochain(f, dst)
    if n == 1:
        return None
    source = cochain_space(a, r, n - 1)
    image = _image(source.ops, dst, source.vectors)
    x = try_solve(Matrix.from_sparse(image, source.dim), coords)
    return None if x is None else source.combine(x)


def is_coboundary(f: Cochain, a: BiHomPreLieAlgebra, r: PreLieRep) -> bool:
    """Membership in the image of the previous coboundary, via an exact
    linear solve; at degree 1 this means f = 0."""
    return (coboundary_preimage(f, a, r) is not None
            or (f.degree == 1 and f.is_zero))
