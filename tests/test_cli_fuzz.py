"""No input reaches a traceback: a fuzz of the 13 verbs through ``cli.run``.

Each example picks a verb and a dim <= 3 catalog algebra (dim 0 and dim 1
included), writes valid documents for the verb's arguments, and then may
spoil them the way the loader fuzz of ``test_documents`` does: one entry
of one document replaced, mistyped or removed (twist entries included, so
singular and non-commuting twists and carrier twists occur), an embedded
algebra or representation replaced by a path reference that is valid,
missing, cyclic or malformed, or a whole document replaced by such a
reference.  Every call must exit 0, 1 or 2 without an escaping exception,
and every exit-2 message must start with the path of a document, or a
field path in one.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihom import (
    BilinearProduct,
    Matrix,
    adjoint_lie_rep,
    adjoint_rep,
    induced_lie_rep,
    subadjacent,
    trivial_rep,
)
from bihom.cli import _VERBS, run
from bihom.documents import (
    algebra_to_doc,
    deformation_to_doc,
    nijenhuis_to_doc,
    rep_to_doc,
)

from catalog import prelie_fixtures
from test_documents import (_at, _paths, _rational, _replaced, json_values,
                            rational_literals)

PRELIE0 = {"dim": 0, "product": [], "alpha": [], "beta": []}
LIE0 = {"dim": 0, "bracket": [], "alpha": [], "beta": []}


def _contexts() -> list[dict]:
    """The documents each verb is given, one dict per algebra: valid for
    the verbs, so that a spoilt entry is near a valid input."""
    out = []
    for _, a in prelie_fixtures():
        n = a.dim
        g = subadjacent(a)
        ad = adjoint_rep(a)
        identity, zero = Matrix.identity(n), Matrix.zeros(n, n)
        out.append({
            "prelie": algebra_to_doc(a),
            "lie": algebra_to_doc(g),
            "rep": rep_to_doc(ad),
            "trivial-rep": rep_to_doc(trivial_rep(a)),
            "lie-rep": rep_to_doc(induced_lie_rep(ad)),
            "ad-lie-rep": rep_to_doc(adjoint_lie_rep(g)),
            "twists": {"alpha": identity.to_json(), "beta": identity.to_json(),
                       "phi": identity.to_json(), "psi": identity.to_json()},
            "T": {"matrix": zero.to_json(),
                  "representation": rep_to_doc(adjoint_lie_rep(g))},
            "bare": {"matrix": identity.to_json()},
            "R": {"matrix": zero.to_json(), "algebra": algebra_to_doc(g)},
            "zero": deformation_to_doc(BilinearProduct.zero(n)),
            "product": deformation_to_doc(a.product),
            "N": nijenhuis_to_doc(identity),
        })
    unit = [[1, 0], [0, 1]]
    prelie_rep0 = {"algebra": PRELIE0, "vdim": 2, "L": [], "R": [],
                   "phi": unit, "psi": unit}
    lie_rep0 = {"algebra": LIE0, "vdim": 2, "rho": [], "phi": unit,
                "psi": unit}
    out.append({
        "prelie": PRELIE0, "lie": LIE0, "rep": prelie_rep0,
        "trivial-rep": {**prelie_rep0, "vdim": 1, "phi": [[1]], "psi": [[1]]},
        "lie-rep": lie_rep0, "ad-lie-rep": lie_rep0,
        "twists": {"alpha": [], "beta": [], "phi": [[2, 0], [0, 3]],
                   "psi": unit},
        "T": {"matrix": [], "representation": lie_rep0},
        "bare": {"matrix": []}, "R": {"matrix": [], "algebra": LIE0},
        "zero": {"pi": []}, "product": {"pi": []}, "N": {"N": []},
    })
    return out


CONTEXTS = _contexts()

# every verb with the documents it reads, by their keys in a context;
# other words are passed as they are
CALLS = [
    ["verify", "prelie"], ["verify", "lie"],
    ["subadjacent", "prelie", "--output"],
    ["semidirect", "rep", "--output"], ["semidirect", "lie-rep"],
    ["induced-rep", "rep", "--output"],
    ["induced-rep", "trivial-rep", "--variant", "l-only"],
    ["twist-rep", "rep", "twists", "--output"],
    ["tensor-rep", "rep", "trivial-rep", "--output"],
    ["tensor-rep", "rep", "rep"],
    ["o-operator", "T", "--output"], ["o-operator", "T"],
    ["o-operator", "bare", "ad-lie-rep"],
    ["rota-baxter", "R", "--output"], ["rota-baxter", "bare", "lie"],
    ["cohomology", "prelie", "--degrees", "1..2"],
    ["cohomology", "prelie", "--rep", "trivial"],
    ["cohomology", "prelie", "--rep", "rep", "--degrees", "1..1"],
    ["deform-check", "prelie", "product"], ["deform-check", "lie", "zero"],
    ["nijenhuis", "prelie", "N", "--output"], ["nijenhuis", "lie", "N"],
    ["equivalence", "prelie", "zero", "product", "N"],
    ["push-lie", "prelie", "product", "--output"],
]

# referenced files: valid ones are written next to the spoilt document
MISSING, LOOP, BAD = "missing.json", "loop.json", "bad.json"
REFERENCES = st.sampled_from(["valid", MISSING, LOOP, BAD, ".", "nul\x00.json"])


def test_every_verb_is_fuzzed():
    assert {argv[0] for argv in CALLS} == set(_VERBS)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def _spoil_entry(doc, data):
    """One entry of ``doc`` replaced, mistyped or removed; a rational leaf
    may instead become another rational, which keeps the shape."""
    paths = list(_paths(doc))
    leaves = [path for path in paths if _rational(_at(doc, path)) is not None]
    if leaves and data.draw(st.booleans()):
        path = data.draw(st.sampled_from(leaves))
        old = _rational(_at(doc, path))
        return _replaced(doc, path, data.draw(
            rational_literals.filter(lambda x: _rational(x) != old)))
    path = data.draw(st.sampled_from(paths))
    delete = bool(path) and data.draw(st.booleans())
    return _replaced(doc, path, None if delete else data.draw(json_values),
                     delete)


def _reference(directory: Path, doc, data) -> str:
    """A path reference, relative to ``directory``, that ``doc`` is behind
    when it is valid."""
    kind = data.draw(REFERENCES)
    if kind != "valid":
        return kind
    name = f"ref{len(list(directory.iterdir()))}.json"
    (directory / name).write_text(json.dumps(doc))
    return name


def _spoil(doc, directory: Path, data):
    how = data.draw(st.sampled_from(["entry", "embedded", "whole"]))
    if how == "entry":
        return _spoil_entry(doc, data)
    embedded = [key for key in ("algebra", "representation")
                if isinstance(doc, dict) and key in doc]
    if how == "embedded" and embedded:
        key = data.draw(st.sampled_from(embedded))
        return {**doc, key: _reference(directory, doc[key], data)}
    return _reference(directory, doc, data)


def _names_a_document(message: str, directory: Path) -> bool:
    """Whether ``message`` starts with the path of a file in ``directory``,
    followed by a field path or a colon."""
    for path in directory.iterdir():
        head = str(path)
        if message.startswith(head) and message[len(head):][:1] in (":", ".",
                                                                     "["):
            return True
    return False


@settings(max_examples=800)
@given(context=st.sampled_from(range(len(CONTEXTS))),
       call=st.sampled_from(CALLS), data=st.data())
def test_every_call_exits_0_1_or_2(root, context, call, data):
    directory = Path(tempfile.mkdtemp(dir=root))
    (directory / LOOP).write_text(json.dumps(LOOP))
    (directory / BAD).write_text("{not json")
    docs = {word: CONTEXTS[context][word] for word in call
            if word in CONTEXTS[context]}
    spoilt = data.draw(st.sampled_from([None, *sorted(docs)]))
    if spoilt is not None:
        docs[spoilt] = _spoil(docs[spoilt], directory, data)
    argv = []
    for word in call:
        if word in docs:
            path = directory / f"{word}.json"
            path.write_text(json.dumps(docs[word]))
            word = str(path)
        argv.append(word)
        if word == "--output":
            argv.append(str(directory / "out.json"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code, out.getvalue(), err.getvalue())
    if code == 2:
        message = err.getvalue()
        assert message.startswith("error: "), (argv, message)
        assert _names_a_document(message[len("error: "):], directory), (
            argv, message)
