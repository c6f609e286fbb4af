"""Exact linear algebra over the rationals.

Conventions used throughout the package:

* scalars are :class:`fractions.Fraction` (arbitrary precision, kept in
  canonical form by the standard library, never rounded);
* inside the package a vector is a sparse row, a ``dict`` from index to
  nonzero ``Fraction``; the public API takes and returns plain tuples;
* a :class:`Matrix` acts on column vectors, i.e. a linear map ``f`` with
  matrix ``M`` satisfies ``f(e_j) = sum_i M[i][j] e_i``.

Every elimination (:func:`rank`, :func:`kernel_basis`, :func:`solve`,
:func:`try_solve`, :func:`inverse`) runs through one exact Gauss-Jordan on
sparse rows, each a ``dict`` from column to nonzero ``Fraction``.  It
reduces to the unique reduced row echelon form, so results do not depend
on the order of the rows, and the cost follows the nonzeros rather than the
shape: the systems of the cochain complex have a few nonzeros per row.

A :class:`Matrix` is stored as the same sparse rows, and builds its dense
``entries`` only when they are read; a structure tensor is stored as one
such matrix (:class:`~bihom.algebra.BilinearProduct`).  Products, sums,
Kronecker products, transposes, images and linear combinations of action
matrices work on the nonzeros alone, as do the axiom checkers, which
compute every residual as a sparse row and make it dense only for a
violation.  Structure tensors, twists and action matrices are mostly
zeros; dense tuples appear only where the public API reads or writes them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction
Row = dict[int, Fraction]  # a sparse row or vector: index -> nonzero entry

__all__ = [
    "Value",
    "Rational",
    "LinAlgError",
    "SingularMatrixError",
    "InconsistentSystemError",
    "as_rational",
    "rational_from_json",
    "rational_to_json",
    "as_vector",
    "zero_vector",
    "Matrix",
    "rank",
    "kernel_basis",
    "inverse",
    "solve",
    "try_solve",
    "linear_combination",
    "block_diag",
]


class Value:
    """Base of the package's immutable value types: what
    ``@dataclass(frozen=True)`` would give them, without importing
    :mod:`dataclasses` (which imports :mod:`inspect`, ``ast``, ``dis`` and
    ``tokenize``) or ``exec``-compiling methods in every process.  A cold
    ``bihom`` process pays both before it runs a verb.

    The fields of a subclass are those of its base, then its own annotated
    names, in order.  The constructor takes them by position or keyword,
    then calls ``__post_init__``.  Instances compare equal when their
    classes are the same and their field tuples are equal, hash their field
    tuple, and have the dataclass ``repr``.  Assignment and deletion raise
    ``AttributeError``; ``functools.cached_property`` still caches, since it
    writes the instance ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(name for name in cls.__annotations__
                             if name not in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__ keeps the values in the instance's compact
        # storage; reading or writing __dict__ builds a dict for it (64 more
        # bytes for a Matrix under CPython 3.11), as a cached_property does.
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call, in field order."""
        fields = cls._fields
        values = dict(zip(fields, args))
        if (len(args) > len(fields) or values.keys() & kwargs.keys()
                or values.keys() | kwargs.keys() != set(fields)):
            raise TypeError(f"{cls.__qualname__}() takes the arguments "
                            f"({', '.join(fields)}) once each, got "
                            f"{len(args)} positional and {sorted(kwargs)}")
        values.update(kwargs)
        return tuple(values[name] for name in fields)

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LinAlgError(ValueError):
    """Shape mismatch or other misuse of a linear-algebra operation."""


class SingularMatrixError(LinAlgError):
    """Raised when a matrix that must be invertible is not."""


class InconsistentSystemError(LinAlgError):
    """Raised by :func:`solve` when the linear system has no solution."""


# A zero denominator does not match, so "1/0" is rejected like any other
# malformed literal.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ``value`` to a Fraction; floats are rejected to keep exactness."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational literal: {value!r}")
        return Fraction(text)
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def rational_from_json(value: int | str) -> Fraction:
    """Decode the JSON form of a rational: an integer or a ``"p/q"`` string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or 'p/q' string, got {value!r}")
    return as_rational(value)


def rational_to_json(value: Fraction) -> int | str:
    """Encode a rational as a JSON integer, or ``"p/q"`` when not integral."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def as_vector(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    return tuple(as_rational(v) for v in values)


def zero_vector(n: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * n


# ---------------------------------------------------------------------------
# sparse rows
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse_vector(v: Sequence[Fraction]) -> Row:
    """The nonzero entries of a dense vector."""
    return {i: a for i, a in enumerate(v) if a}


def _dense_vector(row: Row, n: int) -> tuple[Fraction, ...]:
    """The dense vector of length ``n`` with these entries."""
    out = [_ZERO] * n
    for j, a in row.items():
        out[j] = a
    return tuple(out)


def _row_add(u: Row, v: Row) -> Row:
    """``u + v`` without zero entries (``u`` and ``v`` have none)."""
    out = dict(u)
    for j, b in v.items():
        if j in out:
            s = out[j] + b
            if s:
                out[j] = s
            else:
                del out[j]
        else:
            out[j] = b
    return out


def _row_sub(u: Row, v: Row) -> Row:
    """``u - v`` without zero entries (``u`` and ``v`` have none)."""
    out = dict(u)
    for j, b in v.items():
        if j in out:
            s = out[j] - b
            if s:
                out[j] = s
            else:
                del out[j]
        else:
            out[j] = -b
    return out


class _Lazy:
    """An attribute computed on first read and kept, like
    :func:`functools.cached_property`, but stored with
    ``object.__setattr__``: that keeps it in the instance's compact storage
    (``cached_property`` writes ``__dict__``, which builds a dict for the
    instance) and gets past :class:`Value`'s frozen ``__setattr__``."""

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.fn(instance)
        object.__setattr__(instance, self.name, value)
        return value


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------

class Matrix(Value):
    """Immutable matrix of rationals, stored as its sparse rows.

    :attr:`sparse_rows` holds the nonzero entries of each row and
    :attr:`sparse_cols` those of each column, each a ``dict`` from index to
    ``Fraction``.  Every builder of the class keeps only the sparse rows;
    the dense row-major :attr:`entries` are built on first read, unless
    they were given to the constructor, :meth:`from_rows` or
    :meth:`from_json`, which validate them.  ``==``, ``hash`` and ``repr``
    are those of the fields ``(rows, cols, entries)``.

    Products, sums, :meth:`apply` and the eliminations read the sparse
    rows, so they cost in proportion to the nonzeros, not to the shape;
    every entry of a result is a ``Fraction``.  Degenerate shapes (0 rows
    and/or 0 columns) are legal; they show up as boundary matrices of
    zero-dimensional cochain spaces.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise LinAlgError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise LinAlgError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise LinAlgError("ragged rows in matrix entries")

    @_Lazy
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        cols = self.cols
        return tuple(_dense_vector(row, cols) for row in self.sparse_rows)

    @_Lazy
    def sparse_rows(self) -> tuple[Row, ...]:
        """The nonzero entries of each row; shared, so not to be changed."""
        return tuple({j: a if a.__class__ is Fraction else Fraction(a)
                      for j, a in enumerate(row) if a}
                     for row in self.entries)

    @_Lazy
    def sparse_cols(self) -> tuple[Row, ...]:
        """The nonzero entries of each column; shared, so not to be changed."""
        cols: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, a in row.items():
                cols[j][i] = a
        return tuple(cols)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, sparse: tuple[Row, ...], cols: int) -> "Matrix":
        """The matrix whose sparse rows are ``sparse``, taken as they are:
        nonzero ``Fraction`` entries in columns below ``cols``."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(sparse))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "sparse_rows", sparse)
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int | str | Fraction]],
                  cols: int | None = None) -> "Matrix":
        return cls._dense([as_vector(row) for row in data], cols)

    @classmethod
    def _dense(cls, rows: list[tuple[Fraction, ...]],
               cols: int | None) -> "Matrix":
        """The matrix with these dense rows of ``Fraction``s, its column
        count checked against ``cols`` when that is given."""
        if rows:
            width = len(rows[0])
        elif cols is not None:
            width = cols
        else:
            raise LinAlgError("cannot infer column count of an empty matrix")
        if cols is not None and rows and width != cols:
            raise LinAlgError("explicit column count does not match data")
        return cls(len(rows), width, tuple(rows))

    @classmethod
    def from_sparse(cls, rows: Sequence[Row], cols: int) -> "Matrix":
        """The matrix with these sparse rows (columns below ``cols``), which
        it keeps as its :attr:`sparse_rows`, without zero entries and with
        every entry a ``Fraction``."""
        return cls._wrap(tuple(
            {j: x if x.__class__ is Fraction else as_rational(x)
             for j, x in row.items() if x}
            for row in rows), cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._wrap(tuple({i: _ONE} for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._wrap(tuple({} for _ in range(rows)), cols)

    @classmethod
    def diagonal(cls, values: Sequence[int | str | Fraction]) -> "Matrix":
        diag = as_vector(values)
        return cls.from_sparse([{i: a} for i, a in enumerate(diag)], len(diag))

    # -- basic queries -----------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    @property
    def is_identity(self) -> bool:
        return self.is_square and all(
            len(row) == 1 and row.get(i) == 1
            for i, row in enumerate(self.sparse_rows))

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return _dense_vector(self.sparse_cols[j], self.rows)

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        i, j = index
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        # the nonzero entries decide, so neither side is made dense
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.sparse_rows == other.sparse_rows)

    __hash__ = Value.__hash__

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._wrap(tuple(map(_row_add, self.sparse_rows,
                                      other.sparse_rows)), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._wrap(tuple(map(_row_sub, self.sparse_rows,
                                      other.sparse_rows)), self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix._wrap(tuple({j: -a for j, a in row.items()}
                                  for row in self.sparse_rows), self.cols)

    def scale(self, c: int | str | Fraction) -> "Matrix":
        q = as_rational(c)
        if not q:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._wrap(tuple({j: q * a for j, a in row.items()}
                                  for row in self.sparse_rows), self.cols)

    def __rmul__(self, c: int | Fraction) -> "Matrix":
        return self.scale(c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError(
                f"dimension mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}")
        return Matrix._wrap(tuple(_row_product(self.sparse_rows,
                                               other.sparse_rows)), other.cols)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Image of the column vector ``v``."""
        if len(v) != self.cols:
            raise LinAlgError("vector length does not match column count")
        return _dense_vector(self.sparse_apply(_sparse_vector(v)), self.rows)

    def sparse_apply(self, v: Row) -> Row:
        """Image of the sparse column vector ``v`` (no zero entries, indices
        below :attr:`cols`), without zero entries."""
        cols = self.sparse_cols
        acc: Row = {}
        for j, b in v.items():
            for i, a in cols[j].items():
                if i in acc:
                    acc[i] += a * b
                else:
                    acc[i] = a * b
        return {i: x for i, x in acc.items() if x}

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.sparse_cols, self.rows)

    def power(self, k: int) -> "Matrix":
        if not self.is_square:
            raise LinAlgError("matrix power requires a square matrix")
        if k < 0:
            return inverse(self).power(-k)
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product with blocks ordered (i outer, j inner):
        ``(A kron B)[(i,j),(k,l)] = A[i][k] * B[j][l]``."""
        w = other.cols
        return Matrix._wrap(tuple(
            {k * w + l: a * b for k, a in arow.items() for l, b in brow.items()}
            for arow in self.sparse_rows for brow in other.sparse_rows),
            self.cols * w)

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("matrix shapes differ")

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> list[list[int | str]]:
        return [[rational_to_json(a) for a in row] for row in self.entries]

    @classmethod
    def from_json(cls, data: object, cols: int | None = None) -> "Matrix":
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("matrix JSON must be an array of rows")
        return cls._dense(
            [tuple(map(rational_from_json, row)) for row in data], cols)

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"[{body}]"


def block_diag(*blocks: Matrix) -> Matrix:
    rows: list[Row] = []
    c0 = 0
    for b in blocks:
        rows.extend({c0 + j: a for j, a in row.items()} for row in b.sparse_rows)
        c0 += b.cols
    return Matrix._wrap(tuple(rows), c0)


def linear_combination(mats: Sequence[Matrix],
                       coeffs: Sequence[Fraction]) -> Matrix:
    """``sum_i coeffs[i] * mats[i]``; used to evaluate basis-indexed
    families of action matrices on an algebra element.  The dense form of
    :func:`_combination`."""
    if len(mats) != len(coeffs):
        raise LinAlgError("coefficient count does not match matrix count")
    return _combination(mats, _sparse_vector(coeffs))


def _combination(mats: Sequence[Matrix], coeffs: Row) -> Matrix:
    """``sum_i coeffs[i] * mats[i]`` for sparse coefficients (no zero
    entries, indices below ``len(mats)``): an action family evaluated on a
    sparse vector."""
    if not mats:
        raise LinAlgError("empty linear combination has no shape")
    acc: list[Row] = [{} for _ in range(mats[0].rows)]
    for i, c in coeffs.items():
        for arow, mrow in zip(acc, mats[i].sparse_rows):
            for j, a in mrow.items():
                if j in arow:
                    arow[j] += c * a
                else:
                    arow[j] = c * a
    return Matrix._wrap(tuple({j: x for j, x in row.items() if x}
                              for row in acc), mats[0].cols)


# ---------------------------------------------------------------------------
# elimination-based kernels
# ---------------------------------------------------------------------------

def _rref(rows: list[Row], width: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows, consumed in place.

    Pivots are taken in the columns below ``width`` only; later columns (a
    right-hand side, an identity block) are carried along.  Returns the
    pivot rows in pivot-column order, followed by the nonzero remainders of
    the other rows (zero below ``width``), and the pivot columns.

    Every pivot row is kept zero in the other pivot columns and left of its
    own pivot, so one pass over a new row's pivot columns reduces it, and
    the rows held at the end are the unique reduced row echelon form.
    """
    pivot_rows: dict[int, Row] = {}
    rest = []
    for row in rows:
        for c in [c for c in row if c in pivot_rows]:
            _subtract(row, row[c], pivot_rows[c])
        pivot = min((c for c in row if c < width), default=None)
        if pivot is None:
            if row:
                rest.append(row)
            continue
        lead = row[pivot]
        if lead != 1:
            row = {j: a / lead for j, a in row.items()}
        for other in pivot_rows.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        pivot_rows[pivot] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots] + rest, pivots


def _subtract(row: Row, factor: Fraction, other: Row) -> None:
    """``row -= factor * other`` on sparse rows, dropping cancelled entries
    (``factor`` and the entries of ``other`` are nonzero)."""
    for j, b in other.items():
        v = row.get(j, 0) - factor * b
        if v:
            row[j] = v
        else:
            del row[j]


def _row_product(rows: Sequence[Row], kt: Sequence[Row]) -> list[Row]:
    """``rows @ K`` on sparse rows, for K given by its rows ``kt``."""
    out = []
    for row in rows:
        acc: Row = {}
        for s, c in row.items():
            for j, x in kt[s].items():
                if j in acc:
                    acc[j] += c * x
                else:
                    acc[j] = c * x
        out.append({j: x for j, x in acc.items() if x})
    return out


def _sparse(m: Matrix) -> list[Row]:
    """A copy of the sparse rows of m, for :func:`_rref` to consume."""
    return [dict(row) for row in m.sparse_rows]


def rank(m: Matrix) -> int:
    return len(_rref(_sparse(m), m.cols)[1])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space ``{v : m @ v = 0}`` as column vectors.

    The vectors are linearly independent and there are exactly
    ``cols - rank`` of them (one per free column, that coordinate set to 1).
    """
    reduced, pivots = _rref(_sparse(m), m.cols)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for row, p in zip(reduced, pivots):
            if j in row:
                v[p] = -row[j]
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise LinAlgError("only square matrices can be inverted")
    n = m.rows
    rows = _sparse(m)
    for i, row in enumerate(rows):
        row[n + i] = Fraction(1)
    reduced, pivots = _rref(rows, n)
    if len(pivots) != n:
        raise SingularMatrixError("matrix is singular")
    return Matrix._wrap(tuple(
        {j - n: a for j, a in row.items() if j >= n} for row in reduced), n)


def solve(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """One exact solution of ``m @ x = rhs`` (free coordinates set to 0).

    Raises :class:`InconsistentSystemError` when no solution exists.
    """
    if len(rhs) != m.rows:
        raise LinAlgError("right-hand side length does not match row count")
    rows = _sparse(m)
    for row, b in zip(rows, rhs):
        b = as_rational(b)
        if b:
            row[m.cols] = b
    reduced, pivots = _rref(rows, m.cols)
    if len(reduced) > len(pivots):
        raise InconsistentSystemError("linear system has no solution")
    x = [Fraction(0)] * m.cols
    for row, p in zip(reduced, pivots):
        x[p] = row.get(m.cols, Fraction(0))
    return tuple(x)


def try_solve(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Like :func:`solve` but returns ``None`` for inconsistent systems."""
    try:
        return solve(m, rhs)
    except InconsistentSystemError:
        return None
