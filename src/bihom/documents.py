"""JSON document formats for algebras, representations, operators,
deformations and cochains.

Rationals are encoded as JSON integers or ``"p/q"`` strings (optional
leading minus on p); matrices as arrays of rows; structure tensors as
``c[i][j][k]`` nested arrays, with an array at every level.  The documents:

* algebra:        ``{"dim": n, "product": c, "alpha": M, "beta": M}``
                  (key ``"bracket"`` instead of ``"product"`` for a
                  BiHom-Lie algebra);
* representation: ``{"algebra": doc-or-path, "vdim": m, "L": [n][m][m],
                  "R": [n][m][m], "phi": M, "psi": M}``
                  (single key ``"rho"`` instead of L/R for a BiHom-Lie
                  representation);
* operator:       ``{"matrix": M}`` optionally carrying ``"representation"``
                  or ``"algebra"`` references (inline document or path);
* deformation:    ``{"pi": c}``;   Nijenhuis operator: ``{"N": M}``;
* cochain:        ``{"degree": n, "tensor": t}``, skew in indices 1..n-1;
* twist bundle:   ``{"alpha": M, "beta": M, "phi": M, "psi": M}``.

Path references are resolved relative to the referring document's
directory.  A document may itself be a path string; such a chain of
references is followed for at most :data:`MAX_REFERENCE_DEPTH` files and
must not return to a file it has already visited.  Structural problems
(missing keys, ragged arrays, bad rational literals, mismatched
dimensions, reference cycles) raise :class:`DocumentError` carrying a field
path; semantic defects (say, a singular twist map) surface as the domain
errors of the owning modules.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import (
    BiHomLieAlgebra,
    BiHomPreLieAlgebra,
    BilinearProduct,
    TwistPair,
)
from .cohomology import Cochain
from .linalg import Matrix
from .representation import LieRep, PreLieRep

__all__ = [
    "DocumentError",
    "load_json",
    "dump_json",
    "algebra_from_doc",
    "algebra_to_doc",
    "load_algebra",
    "rep_from_doc",
    "rep_to_doc",
    "load_representation",
    "operator_from_doc",
    "deformation_from_doc",
    "deformation_to_doc",
    "nijenhuis_from_doc",
    "nijenhuis_to_doc",
    "cochain_from_doc",
    "cochain_to_doc",
    "twists_from_doc",
]


class DocumentError(ValueError):
    """A document does not conform to the expected schema."""


MAX_REFERENCE_DEPTH = 32


def load_json(path: str | Path) -> object:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise DocumentError(f"{p}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL byte in the path, or not UTF-8
        raise DocumentError(f"{p}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def dump_json(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _follow(doc: object, base: Path | None, where: str
            ) -> tuple[object, Path | None, str]:
    """Follow a chain of path references to the document it ends in;
    returns ``(document, its directory, its field path)``."""
    seen: set[Path] = set()
    while isinstance(doc, str):
        path = (base / doc) if base is not None else Path(doc)
        try:
            key = path.resolve()
        except (RuntimeError, ValueError) as exc:  # a symlink loop, a NUL byte
            raise DocumentError(f"{where}: cannot resolve {path}: {exc}") from exc
        if key in seen:
            raise DocumentError(f"{where}: path reference cycle through {path}")
        if len(seen) == MAX_REFERENCE_DEPTH:
            raise DocumentError(f"{where}: more than {MAX_REFERENCE_DEPTH} "
                                "chained path references")
        seen.add(key)
        doc, base, where = load_json(path), path.parent, str(path)
    return doc, base, where


def _require(doc: dict, key: str, where: str) -> object:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    if key not in doc:
        raise DocumentError(f"{where}: missing key {key!r}")
    return doc[key]


def _check_shape(m: Matrix, shape: tuple[int, int] | None, where: str) -> Matrix:
    """m, after checking that it has the given shape (any, when None)."""
    if shape is not None and (m.rows, m.cols) != shape:
        raise DocumentError(
            f"{where}: expected a {shape[0]}x{shape[1]} matrix, got "
            f"{m.rows}x{m.cols}")
    return m


def _matrix(doc: dict, key: str, where: str,
            shape: tuple[int, int] | None = None) -> Matrix:
    raw = _require(doc, key, where)
    # ``[]`` has no row to show its width; take the expected one.
    cols = shape[1] if shape is not None and raw == [] else None
    try:
        m = Matrix.from_json(raw, cols=cols)
    except ValueError as exc:
        raise DocumentError(f"{where}.{key}: {exc}") from exc
    return _check_shape(m, shape, f"{where}.{key}")


def _tensor(doc: dict, key: str, where: str,
            dim: int | None) -> BilinearProduct:
    """The structure tensor at ``key``; of dimension ``dim`` unless None."""
    raw = _require(doc, key, where)
    try:
        t = BilinearProduct.from_json(raw)
    except ValueError as exc:
        raise DocumentError(f"{where}.{key}: {exc}") from exc
    if dim is not None and t.dim != dim:
        raise DocumentError(f"{where}.{key}: tensor dimension {t.dim} does "
                            f"not match dim {dim}")
    return t


def _dim(doc: dict, key: str, where: str) -> int:
    raw = _require(doc, key, where)
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 0:
        raise DocumentError(f"{where}.{key}: must be a nonnegative integer")
    return raw


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def algebra_from_doc(doc: object, base: Path | None = None,
                     where: str = "algebra") -> BiHomPreLieAlgebra | BiHomLieAlgebra:
    doc, base, where = _follow(doc, base, where)
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object or a path")
    n = _dim(doc, "dim", where)
    if "product" in doc and "bracket" in doc:
        raise DocumentError(f"{where}: has both 'product' and 'bracket'")
    if "product" in doc:
        tensor = _tensor(doc, "product", where, n)
        lie = False
    elif "bracket" in doc:
        tensor = _tensor(doc, "bracket", where, n)
        lie = True
    else:
        raise DocumentError(f"{where}: needs a 'product' or 'bracket' tensor")
    alpha = _matrix(doc, "alpha", where, shape=(n, n))
    beta = _matrix(doc, "beta", where, shape=(n, n))
    twists = TwistPair(alpha, beta)
    if lie:
        return BiHomLieAlgebra(tensor, twists)
    return BiHomPreLieAlgebra(tensor, twists)


def algebra_to_doc(a: BiHomPreLieAlgebra | BiHomLieAlgebra) -> dict:
    key = "product" if isinstance(a, BiHomPreLieAlgebra) else "bracket"
    tensor = a.product if isinstance(a, BiHomPreLieAlgebra) else a.bracket
    return {
        "dim": a.dim,
        key: tensor.to_json(),
        "alpha": a.alpha.to_json(),
        "beta": a.beta.to_json(),
    }


def load_algebra(path: str | Path) -> BiHomPreLieAlgebra | BiHomLieAlgebra:
    p = Path(path)
    return algebra_from_doc(load_json(p), p.parent, where=str(p))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def _action_family(doc: dict, key: str, where: str, n: int, m: int) -> tuple[Matrix, ...]:
    raw = _require(doc, key, where)
    if not isinstance(raw, list) or len(raw) != n:
        raise DocumentError(f"{where}.{key}: expected {n} matrices")
    mats = []
    for i, entry in enumerate(raw):
        try:
            mat = Matrix.from_json(entry, cols=m)
        except ValueError as exc:
            raise DocumentError(f"{where}.{key}[{i}]: {exc}") from exc
        if (mat.rows, mat.cols) != (m, m):
            raise DocumentError(f"{where}.{key}[{i}]: expected {m}x{m}")
        mats.append(mat)
    return tuple(mats)


def rep_from_doc(doc: object, base: Path | None = None,
                 where: str = "representation") -> PreLieRep | LieRep:
    doc, base, where = _follow(doc, base, where)
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object or a path")
    algebra = algebra_from_doc(_require(doc, "algebra", where), base,
                               where=f"{where}.algebra")
    m = _dim(doc, "vdim", where)
    phi = _matrix(doc, "phi", where, shape=(m, m))
    psi = _matrix(doc, "psi", where, shape=(m, m))
    if "rho" in doc:
        if not isinstance(algebra, BiHomLieAlgebra):
            raise DocumentError(f"{where}: 'rho' requires a bracket algebra")
        rho = _action_family(doc, "rho", where, algebra.dim, m)
        return LieRep(algebra, m, rho, phi, psi)
    if not isinstance(algebra, BiHomPreLieAlgebra):
        raise DocumentError(f"{where}: 'L'/'R' require a product algebra")
    L = _action_family(doc, "L", where, algebra.dim, m)
    R = _action_family(doc, "R", where, algebra.dim, m)
    return PreLieRep(algebra, m, L, R, phi, psi)


def rep_to_doc(r: PreLieRep | LieRep) -> dict:
    doc = {
        "algebra": algebra_to_doc(r.algebra),
        "vdim": r.vdim,
        "phi": r.phi.to_json(),
        "psi": r.psi.to_json(),
    }
    if isinstance(r, LieRep):
        doc["rho"] = [m.to_json() for m in r.rho]
    else:
        doc["L"] = [m.to_json() for m in r.L]
        doc["R"] = [m.to_json() for m in r.R]
    return doc


def load_representation(path: str | Path) -> PreLieRep | LieRep:
    p = Path(path)
    return rep_from_doc(load_json(p), p.parent, where=str(p))


# ---------------------------------------------------------------------------
# operators, deformations, cochains
# ---------------------------------------------------------------------------

def operator_from_doc(doc: object, base: Path | None = None,
                      where: str = "operator") -> tuple[Matrix, object | None]:
    """Decode an operator document; returns (matrix, context) where context
    is the referenced representation or algebra, if any."""
    matrix = _matrix(doc, "matrix", where)
    context: object | None = None
    if "representation" in doc:
        context = rep_from_doc(doc["representation"], base,
                               where=f"{where}.representation")
    elif "algebra" in doc:
        context = algebra_from_doc(doc["algebra"], base,
                                   where=f"{where}.algebra")
    return matrix, context


def deformation_from_doc(doc: object, where: str = "deformation",
                         dim: int | None = None) -> BilinearProduct:
    """The tensor ``pi``; checked to have dimension ``dim`` unless None."""
    return _tensor(doc, "pi", where, dim)


def deformation_to_doc(pi: BilinearProduct) -> dict:
    return {"pi": pi.to_json()}


def nijenhuis_from_doc(doc: object, where: str = "nijenhuis",
                       dim: int | None = None) -> Matrix:
    """The operator ``N``; checked to be ``dim`` x ``dim`` unless None."""
    return _matrix(doc, "N", where, None if dim is None else (dim, dim))


def nijenhuis_to_doc(n: Matrix) -> dict:
    return {"N": n.to_json()}


def cochain_from_doc(doc: object, adim: int, vdim: int,
                     where: str = "cochain") -> Cochain:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    try:
        return Cochain.from_json(doc, adim, vdim)
    except (KeyError, ValueError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def cochain_to_doc(f: Cochain) -> dict:
    return f.to_json()


def twists_from_doc(doc: object, where: str = "twists", adim: int | None = None,
                    vdim: int | None = None
                    ) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """``(alpha, beta, phi, psi)``; alpha and beta checked to be ``adim``
    square and phi and psi ``vdim`` square, unless None."""
    return tuple(_matrix(doc, key, where, None if n is None else (n, n))
                 for key, n in (("alpha", adim), ("beta", adim), ("phi", vdim),
                                ("psi", vdim)))
