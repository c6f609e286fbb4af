"""Set-up probe: import ``bihom`` and parse every input document of a
workload, computing nothing.

    python parse_docs.py MANIFEST.json

The manifest is a JSON list of ``[path, kind]`` pairs, paths relative to
the manifest's directory.  Exits 0 when every document parses.
"""

import json
import sys
from pathlib import Path

from bihom.documents import (
    algebra_from_doc,
    deformation_from_doc,
    load_json,
    nijenhuis_from_doc,
    operator_from_doc,
    rep_from_doc,
)

_LOADERS = {
    "algebra": lambda doc, base, where: algebra_from_doc(doc, base, where),
    "rep": lambda doc, base, where: rep_from_doc(doc, base, where),
    "operator": lambda doc, base, where: operator_from_doc(doc, base, where),
    "pi": lambda doc, base, where: deformation_from_doc(doc, where),
    "N": lambda doc, base, where: nijenhuis_from_doc(doc, where),
}


def main(manifest: str) -> None:
    base = Path(manifest).parent
    for name, kind in json.loads(Path(manifest).read_text()):
        path = base / name
        _LOADERS[kind](load_json(path), path.parent, str(path))


if __name__ == "__main__":
    main(sys.argv[1])
