"""Exact linear algebra over the rationals.

Conventions used throughout the package:

* scalars are :class:`fractions.Fraction` (arbitrary precision, kept in
  canonical form by the standard library, never rounded);
* inside the package a vector is a sparse row, a ``dict`` from index to
  nonzero ``Fraction``; the public API takes and returns plain tuples.
  The rows of the cochain complex in :mod:`bihom.cohomology` hold an
  ``int`` wherever a value is integral and a ``Fraction`` elsewhere: the
  two mix without rounding, every kernel here takes both, and
  :func:`_rref` divides exactly whatever the class of its pivot;
* a :class:`Matrix` acts on column vectors, i.e. a linear map ``f`` with
  matrix ``M`` satisfies ``f(e_j) = sum_i M[i][j] e_i``.

Every elimination (:func:`rank`, :func:`kernel_basis`, :func:`solve`,
:func:`try_solve`, :func:`inverse`) runs through one exact Gauss-Jordan on
sparse rows, each a ``dict`` from column to a nonzero exact rational.  It
reduces to the unique reduced row echelon form, so results do not depend
on the order of the rows, and the cost follows the nonzeros rather than the
shape: the systems of the cochain complex have a few nonzeros per row.

Every ``acc += c * row`` on sparse rows goes through one in-place
kernel, :func:`_axpy`, which deletes each entry that cancels: the
elimination's row updates, :meth:`Matrix.sparse_apply`, matrix products,
linear combinations of action matrices, bilinear values, and the wedges,
the evaluation of a cochain and the skew check of
:mod:`bihom.cohomology`.  The one other accumulation is the four-sum's,
``CochainSpace._evaluate``, which adds ``c * row`` at an offset, into
the entries ``base + k`` of a row of ``E_n`` or ``D_n``, without
building the shifted row, and deletes what cancels by the same rule.  No
row is ever left holding a zero, so no caller filters one out.  Values
enter a sparse row by one rule, :func:`_sparse_entries`, which refuses
what :func:`as_rational` refuses.  JSON entries enter by its decoding
twin, :func:`_json_entries`: an integer ``0`` is skipped after one class
test, before any ``Fraction`` exists; another integer ``n`` becomes
``Fraction(n)``; every other leaf goes through
:func:`rational_from_json`, which refuses booleans, floats and malformed
literals.  The direct constructors of the value types take ``Fraction``
and ``int`` entries only (:func:`_require_exact`).

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
# a sparse row or vector: index -> nonzero entry, a Fraction, or an int
# where the rows of the cochain complex hold an integral value
Row = dict[int, Fraction | int]

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
    ``AttributeError``; a :class:`_Lazy` attribute still caches, since it
    writes with ``object.__setattr__``.
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
# malformed literal.  Kept as a string, matched whole by re.fullmatch: re's
# cache compiles it on first use rather than at import.
_RATIONAL = r"[+-]?\d+(/0*[1-9]\d*)?"


def _leaf(value: object) -> str:
    """``value`` by its JSON type, in a bounded message: a string by its
    length and first 16 characters, a float by its value."""
    if isinstance(value, str):
        return f"a {len(value)}-character string {ascii(value[:16])}"
    if isinstance(value, float):
        return f"the number {value!r}"
    return {bool: "a boolean", type(None): "null", list: "an array",
            dict: "an object"}.get(type(value), f"a {type(value).__name__}")


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ``value`` to a Fraction; floats are rejected to keep exactness,
    and booleans as :func:`rational_from_json` rejects them."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not re.fullmatch(_RATIONAL, text):
            raise ValueError(f"not a rational literal: {_leaf(value)}")
        return Fraction(text)
    raise ValueError(f"cannot interpret {_leaf(value)} as an exact rational")


def rational_from_json(value: int | str) -> Fraction:
    """Decode the JSON form of a rational: an integer or a ``"p/q"`` string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or 'p/q' string, got {_leaf(value)}")
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


def _require_exact(values: Iterable) -> None:
    """ValueError unless every value is a ``Fraction`` or an ``int`` (not a
    ``bool``): what a direct constructor stores unconverted, so that it
    hashes, compares and encodes as the equal ``Fraction``."""
    for a in values:
        if a.__class__ is not Fraction and (
                isinstance(a, bool) or not isinstance(a, (int, Fraction))):
            raise ValueError(f"cannot store {_leaf(a)} as an exact rational: "
                             "expected a Fraction or an int")


def _sparse_entries(items: Iterable[tuple[int, object]]) -> Row:
    """The nonzero entries of ``(index, value)`` pairs, each made a
    ``Fraction`` by :func:`as_rational`: the one rule by which values of
    the API enter a sparse row (JSON leaves enter by
    :func:`_json_entries`), so a float raises ValueError."""
    return {j: q for j, a in items
            if (q := a if a.__class__ is Fraction else as_rational(a))}


def _json_entries(values: list) -> Row:
    """The nonzero entries of a JSON array of rationals: an integer ``0``
    is skipped after one class test, another integer becomes a
    ``Fraction``, and every other leaf is decoded by
    :func:`rational_from_json` (so a boolean, a float or a malformed
    literal raises ValueError, and ``"0/3"`` is dropped once decoded)."""
    out: Row = {}
    for j, a in enumerate(values):
        if a.__class__ is int:
            if a:
                out[j] = Fraction(a)
        elif q := rational_from_json(a):
            out[j] = q
    return out


def _sparse_vector(v: Sequence[Fraction]) -> Row:
    """The nonzero entries of a dense vector, by :func:`_sparse_entries`."""
    return _sparse_entries(enumerate(v))


def _json_row(row: Row, n: int) -> list[int | str]:
    """The JSON array of length ``n`` with these entries, ``0`` elsewhere."""
    out: list[int | str] = [0] * n
    for j, a in row.items():
        out[j] = rational_to_json(a)
    return out


def _dense_vector(row: Row, n: int) -> tuple[Fraction, ...]:
    """The dense vector of length ``n`` with these entries."""
    out = [_ZERO] * n
    for j, a in row.items():
        out[j] = a
    return tuple(out)


def _row_add(u: Row, v: Row) -> Row:
    """``u + v`` without zero entries (``u`` and ``v`` have none)."""
    out = dict(u)
    _axpy(out, 1, v)
    return out


def _row_sub(u: Row, v: Row) -> Row:
    """``u - v`` without zero entries (``u`` and ``v`` have none)."""
    out = dict(u)
    _axpy(out, -1, v)
    return out


def _axpy(acc: Row, factor: Fraction, other: Row) -> None:
    """``acc += factor * other`` in place, deleting each entry that cancels:
    the package's one accumulation of a scaled sparse row.  ``acc`` is a
    row the caller owns and has no zero entry; ``factor`` and the entries
    of ``other`` are nonzero, so neither has one afterwards."""
    for j, b in other.items():
        if j in acc:
            v = acc[j] + factor * b
            if v:
                acc[j] = v
            else:
                del acc[j]
        else:
            acc[j] = factor * b


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
    ``Fraction``.  Every builder of the class, :meth:`from_json` and
    :meth:`to_json` included, keeps or reads only the sparse rows; the
    dense row-major :attr:`entries` are built on first read, unless they
    were given to the constructor or :meth:`from_rows`, which validate
    them.  ``==`` compares the sparse rows; ``hash`` and ``repr`` are those
    of the fields ``(rows, cols, entries)``.

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
            _require_exact(row)

    @_Lazy
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        cols = self.cols
        return tuple(_dense_vector(row, cols) for row in self.sparse_rows)

    @_Lazy
    def sparse_rows(self) -> tuple[Row, ...]:
        """The nonzero entries of each row; shared, so not to be changed."""
        return tuple(map(_sparse_vector, self.entries))

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
        rows = [as_vector(row) for row in data]
        return cls(len(rows), _width(rows, cols), tuple(rows))

    @classmethod
    def from_sparse(cls, rows: Sequence[Row], cols: int) -> "Matrix":
        """The matrix with these sparse rows (columns below ``cols``), which
        it keeps as its :attr:`sparse_rows`, without zero entries and with
        every entry made a ``Fraction`` by :func:`_sparse_entries`."""
        return cls._wrap(tuple(_sparse_entries(row.items()) for row in rows),
                         cols)

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
            _axpy(acc, b, cols[j])
        return acc

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
        """The rows as JSON arrays, written from the sparse rows: ``0`` for
        every absent entry."""
        return [_json_row(row, self.cols) for row in self.sparse_rows]

    @classmethod
    def from_json(cls, data: object, cols: int | None = None) -> "Matrix":
        """The matrix of a JSON array of rows, decoded straight into sparse
        rows by :func:`_json_entries`.  Every entry is decoded before any
        shape is checked, so a bad literal is reported before a ragged
        row; ``[]`` takes its column count from ``cols``."""
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("matrix JSON must be an array of rows")
        sparse = tuple(map(_json_entries, data))
        width = _width(data, cols)
        if any(len(row) != width for row in data):
            raise LinAlgError("ragged rows in matrix entries")
        return cls._wrap(sparse, width)

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"[{body}]"


def _width(rows: Sequence[Sequence], cols: int | None) -> int:
    """The column count of dense rows: the length of the first, checked
    against ``cols`` when that is given, or ``cols`` when there is no row."""
    if rows:
        if cols is not None and len(rows[0]) != cols:
            raise LinAlgError("explicit column count does not match data")
        return len(rows[0])
    if cols is None:
        raise LinAlgError("cannot infer column count of an empty matrix")
    return cols


def block_diag(*blocks: Matrix) -> Matrix:
    rows: list[Row] = []
    c0 = 0
    for b in blocks:
        rows.extend({c0 + j: a for j, a in row.items()} for row in b.sparse_rows)
        c0 += b.cols
    return Matrix._wrap(tuple(rows), c0)


def _require_shape(m: Matrix, rows: int, cols: int, what: str) -> None:
    """LinAlgError unless ``m`` is ``rows x cols``: the one shape rule of
    the linear maps a construction or a checker is handed."""
    if (m.rows, m.cols) != (rows, cols):
        raise LinAlgError(f"{what} must be {rows}x{cols}, got {m.rows}x{m.cols}")


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
            _axpy(arow, c, mrow)
    return Matrix._wrap(tuple(acc), mats[0].cols)


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
    Entries may be ``int`` or ``Fraction``: a row is scaled by its lead as
    an exact ``Fraction`` division (or a negation), so no float arises.
    """
    pivot_rows: dict[int, Row] = {}
    rest = []
    for row in rows:
        for c in [c for c in row if c in pivot_rows]:
            _axpy(row, -row[c], pivot_rows[c])
        pivot = min((c for c in row if c < width), default=None)
        if pivot is None:
            if row:
                rest.append(row)
            continue
        lead = row[pivot]
        if lead == -1:
            row = {j: -a for j, a in row.items()}  # an int row stays one
        elif lead != 1:
            if lead.__class__ is int:
                lead = Fraction(lead)  # int / int would be a float
            row = {j: a / lead for j, a in row.items()}
        for other in pivot_rows.values():
            if pivot in other:
                _axpy(other, -other[pivot], row)
        pivot_rows[pivot] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots] + rest, pivots


def _row_product(rows: Sequence[Row], kt: Sequence[Row]) -> list[Row]:
    """``rows @ K`` on sparse rows, for K given by its rows ``kt``."""
    out = []
    for row in rows:
        acc: Row = {}
        for s, c in row.items():
            _axpy(acc, c, kt[s])
        out.append(acc)
    return out


def _sparse(m: Matrix) -> list[Row]:
    """A copy of the sparse rows of m, for :func:`_rref` to consume."""
    return [dict(row) for row in m.sparse_rows]


def rank(m: Matrix) -> int:
    return _rank(_sparse(m), m.cols)


def _rank(rows: list[Row], width: int) -> int:
    """The rank of sparse rows in the columns below ``width`` (consumed)."""
    return len(_rref(rows, width)[1])


def _kernel(rows: list[Row], width: int) -> tuple[Matrix, list[int]]:
    """Basis of the right null space of sparse rows in the columns below
    ``width`` (consumed), and the free columns of their RREF.  The basis is
    the columns of a ``width x (width - rank)`` :class:`Matrix`: column i
    sets the i-th free column to 1, and the row of pivot p holds
    ``-R_p[j]`` at the index of each free column j, a ``Fraction`` also
    where the rows held an ``int``."""
    reduced, pivots = _rref(rows, width)
    pivot_set = set(pivots)
    free = [j for j in range(width) if j not in pivot_set]
    at = {j: i for i, j in enumerate(free)}
    out: list[Row] = [{at[j]: _ONE} if j in at else {} for j in range(width)]
    for row, p in zip(reduced, pivots):
        out[p] = _sparse_entries((at[j], -a) for j, a in row.items() if j != p)
    return Matrix._wrap(tuple(out), len(free)), free


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space ``{v : m @ v = 0}`` as column vectors.

    The vectors are linearly independent and there are exactly
    ``cols - rank`` of them (one per free column, that coordinate set to 1).
    """
    return list(_kernel(_sparse(m), m.cols)[0].transpose().entries)


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
