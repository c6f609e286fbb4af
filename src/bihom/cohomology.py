"""Cochain complex of a BiHom-pre-Lie algebra with coefficients in a
representation.

An n-cochain (n >= 1) is a multilinear map ``f: A^n -> V`` that is
skew-symmetric in its first n-1 arguments and intertwines the twists:

    phi . f = f . alpha^(x n)      and      psi . f = f . beta^(x n).

A :class:`Cochain` stores its free coordinates S^n: the values on the
canonical tuples (strictly increasing first n-1 indices), one per carrier
index; skew-symmetry gives the rest.  Two sparse maps act on S^n: the
equivariance system ``E_n``, whose kernel basis ``K_n`` spans C^n, and the
four-sum coboundary ``D_n: S^n -> S^(n+1)``

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

One :class:`CochainSpace` per degree assembles ``E_n``, ``K_n`` and
``D_n`` when first read, and each function builds the degrees it touches
once per call.  ``K_n`` is a sparse ``dim S^n x dim C^n`` ``Matrix`` read
straight off the reduced row echelon form of ``E_n``, the one store of the
basis of C^n.  The rows of ``K_n`` at the free columns of that RREF form
the identity, so the coordinates of a cochain in the basis of C^n are its
entries at those columns: no image is expanded in a basis by a second
elimination.

The rows of the complex are exact integer rows wherever they can be: the
twist columns, the rows of phi and psi, the ``lmat``/``rmat``/``prod``/
``bkt`` tables and the rows of ``K`` that an image multiplies hold an
``int`` wherever a value is integral and a ``Fraction`` only where it is
not, converted once where each table is built.  So ``E_n``, ``D_n``, the
skew walk and the images are built mostly in ``int`` arithmetic, which
mixes with ``Fraction`` without rounding; the eliminations take the rows
as they are (``linalg._rref`` divides exactly).  Every public result, and
``K_n`` with its dense views, holds ``Fraction`` entries only.

Each identity is asserted in one place.  ``E_n K_n = 0`` (the solved
basis consists of cochains) is asserted where ``K_n`` is solved.  Caller
cochains are checked against ``E_n`` on entry and refused with
ValueError.  Every evaluation of D_n on cochains K
(:func:`coboundary`, :func:`is_cocycle`, :func:`coboundary_matrix`,
:func:`coboundary_preimage`, :func:`cohomology_table`) asserts that the
images are skew on every (n+1)-tuple and ``E_(n+1) D_n K = 0`` (the images
are equivariant).  :func:`cohomology_table` also asserts ``d o d = 0`` as
``D_(n+1) D_n K_n = 0`` on canonical rows for each degree it computes;
:func:`coboundary` does not, as it also evaluates the formula for
coefficients that form no representation.  A failed assertion raises
RuntimeError: for a representation of a BiHom-pre-Lie algebra it means the
implementation, not the data, is wrong.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import getitem
from typing import Callable, Iterable, Sequence

from .algebra import BiHomPreLieAlgebra, BilinearProduct
from .linalg import (Matrix, Row, Value, _Lazy, _axpy, _combination,
                     _dense_vector, _kernel, _rank, _require_exact,
                     _row_product, _sparse_vector, rational_from_json,
                     rational_to_json, try_solve, zero_vector)
from .representation import PreLieRep

__all__ = [
    "Cochain", "CochainSpace", "CohomologyReport", "cochain_space",
    "coboundary", "coboundary_matrix", "cohomology_dims", "cohomology_table",
    "is_cocycle", "is_coboundary", "coboundary_preimage",
    "cochain_from_linear_map", "cochain_from_bilinear",
]


class Cochain(Value):
    """Degree-n multilinear map A^n -> V, skew-symmetric in its first n-1
    arguments, stored as its free coordinates ``coords``: ``vdim`` values
    per canonical tuple, in the order of ``_index``."""

    degree: int
    adim: int
    vdim: int
    coords: tuple

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("cochains have degree >= 1")
        if len(self.coords) != _width(self.adim, self.degree, self.vdim):
            raise ValueError("cochain coordinates do not match the algebra "
                             "and carrier dimensions")
        _require_exact(self.coords)

    @classmethod
    def zero(cls, degree: int, adim: int, vdim: int) -> "Cochain":
        return cls(degree, adim, vdim, zero_vector(_width(adim, degree, vdim)))

    @classmethod
    def from_map(cls, degree: int, adim: int, vdim: int,
                 get: Callable[[tuple[int, ...]], Sequence[Fraction]]) -> "Cochain":
        """The cochain with value ``get(idx)`` at every basis n-tuple
        ``idx``; ValueError unless the values have ``vdim`` entries and are
        skew-symmetric in the first n-1 arguments."""
        f = cls(degree, adim, vdim,
                tuple(x for idx in _index(adim, degree) for x in get(idx)))
        # adim = 0 has no tuples; product() would still allocate `degree` pools
        for idx in itertools.product(range(adim), repeat=degree) if adim else ():
            value = tuple(get(idx))
            if len(value) != vdim:
                raise ValueError("cochain values must have carrier dimension")
            if value != f.at(idx):
                raise ValueError("not a cochain: fails skew-symmetry in the "
                                 "leading arguments")
        return f

    @property
    def tensor(self) -> tuple:
        """The full value tensor ``t[i_1]...[i_n][k]``, built on each read."""
        return self._nested(tuple, self.at)

    def _nested(self, node: type, leaf: Callable, idx: tuple[int, ...] = ()):
        """``leaf(idx)`` at every basis n-tuple ``idx``, nested in ``node``s."""
        if len(idx) == self.degree:
            return leaf(idx)
        return node(self._nested(node, leaf, idx + (i,)) for i in range(self.adim))

    def at(self, idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        """The value at the basis n-tuple ``idx``."""
        sign, canon = _resolve(idx)
        if canon is None:
            return zero_vector(self.vdim)
        base = _index(self.adim, self.degree)[canon] * self.vdim
        return tuple(sign * x for x in self.coords[base:base + self.vdim])

    def value(self, args: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
        """Multilinear evaluation on coordinate vectors: ``f(w, v_n)`` for
        the wedge ``w`` of the first n-1 (sparsity-aware)."""
        if len(args) != self.degree:
            raise ValueError("argument count must equal the degree")
        if any(len(v) != self.adim for v in args):
            raise ValueError("vector length does not match the algebra "
                             "dimension")
        acc: Row = {}
        last = _sparse_vector(args[-1])
        for J, w in _wedge([_sparse_vector(v) for v in args[:-1]]).items():
            for l, c in last.items():
                _axpy(acc, w * c, _sparse_vector(self.at(J + (l,))))
        return _dense_vector(acc, self.vdim)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_json(self) -> dict:
        return {"degree": self.degree, "tensor": self._nested(
            list, lambda idx: [rational_to_json(a) for a in self.at(idx)])}

    @classmethod
    def from_json(cls, data: dict, adim: int, vdim: int) -> "Cochain":
        degree = data["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError("cochain degree must be an integer")
        if degree < 1:
            raise ValueError("cochains have degree >= 1")

        def decode(node, depth: int):
            if not isinstance(node, list):
                raise ValueError("cochain tensor must be a nested array")
            if depth == 0:
                if len(node) != vdim:
                    raise ValueError("cochain values must have carrier dimension")
                return tuple(rational_from_json(a) for a in node)
            if len(node) != adim:
                raise ValueError("cochain tensor does not match algebra dimension")
            return tuple(decode(child, depth - 1) for child in node)

        tensor = decode(data["tensor"], degree)
        return cls.from_map(degree, adim, vdim,
                            lambda idx: reduce(getitem, idx, tensor))


def cochain_from_linear_map(m: Matrix) -> Cochain:
    """Degree-1 cochain from a matrix (column convention)."""
    return Cochain(1, m.cols, m.rows,
                   tuple(x for j in range(m.cols) for x in m.col(j)))


def cochain_from_bilinear(p: BilinearProduct) -> Cochain:
    """Degree-2 cochain with values in the algebra itself."""
    return Cochain(2, p.dim, p.dim,
                   tuple(x for plane in p.c for vec in plane for x in vec))


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


@lru_cache(maxsize=16)
def _index(adim: int, n: int) -> dict[tuple[int, ...], int]:
    """The canonical n-tuples in order; tuple i has free coordinates
    i*vdim + k.  None unless 0 < n <= adim + 1 (tested first, as
    ``combinations`` allocates n - 1 slots).  Shared, not to be changed."""
    heads = itertools.combinations(range(adim), n - 1) if 0 < n <= adim + 1 else ()
    return {head + (last,): i for i, (head, last)
            in enumerate(itertools.product(heads, range(adim)))}


def _width(adim: int, n: int, vdim: int) -> int:
    """``dim S^n = C(adim, n-1) * adim * vdim``, or 0 below degree 1."""
    return comb(adim, n - 1) * adim * vdim if n >= 1 else 0


def _integral(row: Row) -> Row:
    """``row`` with each integral entry an ``int``, any other kept a
    ``Fraction``: the one conversion of the tables that ``E_n`` and the
    four-sum read, made once where each table is built."""
    return {j: a.numerator if a.denominator == 1 else a for j, a in row.items()}


def _wedge(vectors: Sequence[Row]) -> dict[tuple[int, ...], Fraction | int]:
    """``f(v_1, ..., v_m, -)`` for f skew in its first m slots, as the
    coefficients (minors) of ``f(e_J, -)`` over strictly increasing J,
    each an ``int`` where the entries of the vectors are."""
    out: dict[tuple[int, ...], Fraction | int] = {(): 1}
    for v in vectors:
        nxt: dict[tuple[int, ...], Fraction | int] = {}
        for J, w in out.items():
            signed = {}
            for j, c in v.items():
                at = bisect_left(J, j)
                if at < len(J) and J[at] == j:
                    continue
                # sorting j into slot `at` passes len(J) - at indices
                signed[J[:at] + (j,) + J[at:]] = c if (len(J) - at) % 2 == 0 else -c
            _axpy(nxt, w, signed)
        out = nxt
    return out


class CochainSpace:
    """Degree n of the complex of (a, r) over S^n: the sparse rows of
    ``E_n`` and ``D_n``, built from the twist columns and the ``lmat``/
    ``rmat``/``prod``/``bkt`` tables, and the kernel basis ``K_n`` of
    ``E_n``, whose columns are the free coordinates of a basis of C^n.
    Each is built when first read and kept, as are the dense ``vectors``
    and the :class:`Cochain` form ``basis`` of that basis.  The tables,
    the rows of phi and psi and so the rows of ``E_n`` and ``D_n`` hold an
    ``int`` wherever a value is integral (:func:`_integral`); ``K_n``, the
    dense views and every public result hold ``Fraction`` entries."""

    def __init__(self, a: BiHomPreLieAlgebra, r: PreLieRep, n: int) -> None:
        if n < 1:
            raise ValueError("cochain spaces are defined for degree >= 1")
        if r.algebra != a:
            raise ValueError("representation is over a different algebra")
        self.a, self.r, self.degree = a, r, n
        self.adim, self.vdim = a.dim, r.vdim
        self.eye = [{k: 1} for k in range(r.vdim)]
        self.index = _index(a.dim, n)
        self.width = _width(a.dim, n, r.vdim)
        self.an1 = a.alpha.power(n - 1)
        self.cols = {name: list(map(_integral, m.sparse_cols))
                     for name, m in (("alpha", a.alpha), ("beta", a.beta),
                                     ("ab", a.alpha @ a.beta),
                                     ("an1", self.an1))}
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

    def _evaluate(self, rows: list[Row], heads: dict, last: Row,
                  outer: Sequence[Row], coeff: int) -> None:
        """``rows[k] += coeff * (outer f(heads, last))[k]`` as functionals of
        f's free coordinates, for the sparse rows ``outer`` of a matrix;
        nothing when ``outer`` is zero, as L and R of trivial coefficients
        are.  Each term is added at its offset ``base + kk`` in place, and
        an entry that cancels is deleted, as :func:`~bihom.linalg._axpy`
        deletes one: ``x`` and the entries of ``outer`` are nonzero."""
        if not any(outer):
            return
        vdim, index = self.vdim, self.index
        for J, w in heads.items():
            for l, c in last.items():
                base = index[J + (l,)] * vdim
                x = coeff * w * c
                for row, entries in zip(rows, outer):
                    for kk, m in entries.items():
                        j = base + kk
                        if j in row:
                            v = row[j] + x * m
                            if v:
                                row[j] = v
                            else:
                                del row[j]
                        else:
                            row[j] = x * m

    @_Lazy
    def equivariance(self) -> list[Row]:
        """``E_n``: the nonzero rows of ``outer f(e_X) - f(inner e_X)`` for
        (outer, inner) = (phi, alpha), (psi, beta) and canonical X.  At any
        other tuple the condition repeats one of these up to sign.  A pair
        of identities is skipped: its rows are ``f(e_X) - f(e_X)``, zero for
        every f, so they would all cancel and be dropped."""
        out = []
        for family, outer, inner in (("alpha", self.r.phi, self.a.alpha),
                                     ("beta", self.r.psi, self.a.beta)):
            if outer.is_identity and inner.is_identity:
                continue
            outer = list(map(_integral, outer.sparse_rows))
            for idx in self.index:
                rows: list[Row] = [{} for _ in range(self.vdim)]
                self._evaluate(rows, {idx[:-1]: 1}, {idx[-1]: 1}, outer, 1)
                self._evaluate(rows, self._heads(family, idx[:-1]),
                               self.cols[family][idx[-1]], self.eye, -1)
                out.extend(row for row in rows if row)
        return out

    @_Lazy
    def kernel(self) -> Matrix:
        """``K_n``: the kernel basis of ``E_n`` as the columns of a sparse
        ``width x dim C^n`` matrix, a basis of C^n, kept with ``free``, the
        free columns of ``E_n``'s RREF, at which ``K_n`` is the identity;
        asserts ``E_n K_n = 0`` (the columns are cochains) unless C^n = 0."""
        K, self.free = _kernel(list(map(dict, self.equivariance)), self.width)
        if K.cols and any(_row_product(self.equivariance, K.sparse_rows)):
            raise RuntimeError("internal defect: E_n K != 0, a solved basis "
                               "of C^n is not a cochain")
        return K

    @_Lazy
    def tables(self) -> dict:
        a, r, n, adim = self.a, self.r, self.degree, self.adim
        bn1 = a.beta.power(n - 1)
        sub, cols = a.subadjacent.bracket, self.cols
        return {
            "lmat": [list(map(_integral, _combination(r.L, x).sparse_rows))
                     for x in (self.an1 @ bn1).sparse_cols],
            "rmat": [list(map(_integral, _combination(r.R, x).sparse_rows))
                     for x in bn1.sparse_cols],
            "prod": [[_integral(a.product.sparse_value(cols["an1"][p], {q: 1}))
                      for q in range(adim)] for p in range(adim)],
            "bkt": [[_integral(sub.sparse_value(cols["beta"][p], cols["alpha"][q]))
                     for q in range(adim)] for p in range(adim)],
        }

    def rows_at(self, X: tuple[int, ...]) -> list[Row]:
        """The rows of ``(D_n f)(e_X)``, one per carrier index, at any
        (n+1)-tuple X."""
        t, cols, n = self.tables, self.cols, self.degree
        rows: list[Row] = [{} for _ in range(self.vdim)]
        last = X[n]
        for i in range(n):
            sign = 1 if i % 2 == 0 else -1
            rest = X[:i] + X[i + 1:n]
            self._evaluate(rows, self._heads("alpha", rest), {last: 1},
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
        return rows

    @_Lazy
    def coboundary(self) -> list[Row]:
        """``D_n``: its rows at the canonical (n+1)-tuples, in the order of
        the free coordinates of S^(n+1)."""
        return [row for X in _index(self.adim, self.degree + 1)
                for row in self.rows_at(X)]

    @_Lazy
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.kernel.transpose().entries

    @_Lazy
    def basis(self) -> tuple[Cochain, ...]:
        return tuple(Cochain(self.degree, self.adim, self.vdim, v)
                     for v in self.vectors)

    @property
    def dim(self) -> int:
        return self.kernel.cols

    def combine(self, coords: Sequence[Fraction]) -> Cochain:
        if len(coords) != self.dim:
            raise ValueError("coordinate count does not match the dimension")
        return Cochain(self.degree, self.adim, self.vdim,
                       self.kernel.apply(coords))


def _image(src: CochainSpace, dst: CochainSpace, K: Matrix) -> list[Row]:
    """``D_n K`` in row form for the free-coordinate columns of K, which
    are cochains (``src.kernel`` or checked by the caller), asserting skew
    images at every (n+1)-tuple and ``E_(n+1) D_n K = 0``."""
    if not K.cols:
        return [{} for _ in range(dst.width)]
    kt = list(map(_integral, K.sparse_rows))
    canon, vdim = src.coboundary, src.vdim
    for X in itertools.product(range(src.adim), repeat=src.degree + 1):
        sign, c = _resolve(X)
        if c == X:
            continue
        rows = src.rows_at(X)
        if c is not None:
            base = dst.index[c] * vdim
            for row, expected in zip(rows, canon[base:base + vdim]):
                _axpy(row, -sign, expected)
        if any(_row_product(rows, kt)):
            raise RuntimeError("internal defect: coboundary image is not skew")
    image = _row_product(canon, kt)
    if any(_row_product(dst.equivariance, image)):
        raise RuntimeError("internal defect: E_(n+1) D_n K != 0, a coboundary "
                           "image is not twist-equivariant")
    return image


def cochain_space(a: BiHomPreLieAlgebra, r: PreLieRep, n: int) -> CochainSpace:
    """Solve for a basis of C^n: all tensors that are skew in the first n-1
    slots and equivariant for both twist pairs, as the exact kernel basis
    of ``E_n`` over the free coordinates."""
    space = CochainSpace(a, r, n)
    space.kernel  # solved here, with its E_n K_n = 0 assertion
    return space


def _require_cochain(f: Cochain, space: CochainSpace) -> Matrix:
    """The free coordinates of f as a one-column matrix, after checking
    that f is in C^n of ``space``."""
    if f.adim != space.adim or f.vdim != space.vdim:
        raise ValueError("cochain shape does not match the algebra and "
                         "representation")
    column = Matrix.from_sparse([_sparse_vector(f.coords)],
                                space.width).transpose()
    if any(_row_product(space.equivariance, column.sparse_rows)):
        raise ValueError("not a cochain: fails twist equivariance")
    return column


def coboundary(f: Cochain, a: BiHomPreLieAlgebra, r: PreLieRep) -> Cochain:
    """Apply the four-sum coboundary operator to a degree-n cochain; a
    non-cochain input raises ValueError, a failed assertion on the output
    RuntimeError."""
    n = f.degree
    src = CochainSpace(a, r, n)
    image = _image(src, CochainSpace(a, r, n + 1), _require_cochain(f, src))
    return Cochain(n + 1, f.adim, f.vdim,
                   tuple(Fraction(row.get(0, 0)) for row in image))


def is_cocycle(f: Cochain, a: BiHomPreLieAlgebra, r: PreLieRep) -> bool:
    """True iff the coboundary of f vanishes identically."""
    return coboundary(f, a, r).is_zero


def coboundary_matrix(a: BiHomPreLieAlgebra, r: PreLieRep, n: int) -> Matrix:
    """Matrix of the degree-n coboundary with respect to the bases of C^n
    (columns) and C^(n+1) (rows): the rows of ``D_n K_n`` at the free
    columns of ``E_(n+1)``, as ``_image`` asserts that the images lie in
    C^(n+1).  No elimination runs beyond the two kernel solves."""
    if n < 1:
        raise ValueError("coboundary matrices are defined for degree >= 1")
    source, target = cochain_space(a, r, n), cochain_space(a, r, n + 1)
    image = _image(source, target, source.kernel)
    return Matrix.from_sparse([image[j] for j in target.free], source.dim)


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
    and one ``rank(D_m K_m)`` per degree m, in one pass over consecutive
    degrees that holds the spaces of two of them at a time."""
    wanted = sorted(set(degrees))
    if not wanted:
        return []
    if wanted[0] < 1:
        raise ValueError("cohomology degrees start at 1")
    lo, hi = max(1, wanted[0] - 1), wanted[-1] + 1
    reports, dim_b = [], 0
    src = cochain_space(a, r, lo)
    for m in range(lo, hi):
        # of degree hi only E and D are read, so its K is never solved
        dst = cochain_space(a, r, m + 1) if m + 1 < hi else CochainSpace(a, r, hi)
        image = _image(src, dst, src.kernel)
        # D 0 = 0, so D_(m+1) is built only for a nonzero image
        if any(image) and any(_row_product(dst.coboundary, image)):
            raise RuntimeError(f"internal defect: D_{m + 1} D_{m} K_{m} != 0: "
                               "the coboundary does not square to zero")
        rank = _rank([row for row in image if row], src.dim)
        if m in wanted:
            dim_z = src.dim - rank
            reports.append(CohomologyReport(m, dim_z, dim_b, dim_z - dim_b))
        # degree m is done: only its rank, dim B^(m+1), is carried on
        src, dim_b = dst, rank
    return reports


def coboundary_preimage(f: Cochain, a: BiHomPreLieAlgebra,
                        r: PreLieRep) -> Cochain | None:
    """A degree-(n-1) cochain g with dg = f, or None when f is not a
    coboundary.  At degree 1 the coboundary space is {0}, so only the zero
    cochain qualifies and it has no structural preimage (None is returned).
    """
    n = f.degree
    dst = CochainSpace(a, r, n)
    _require_cochain(f, dst)
    if n == 1:
        return None
    source = cochain_space(a, r, n - 1)
    image = _image(source, dst, source.kernel)
    x = try_solve(Matrix.from_sparse(image, source.dim), f.coords)
    return None if x is None else source.combine(x)


def is_coboundary(f: Cochain, a: BiHomPreLieAlgebra, r: PreLieRep) -> bool:
    """Membership in the image of the previous coboundary, via an exact
    linear solve; at degree 1 this means f = 0."""
    return (coboundary_preimage(f, a, r) is not None
            or (f.degree == 1 and f.is_zero))
