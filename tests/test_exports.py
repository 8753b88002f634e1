"""The package's public names."""

import ast
import dataclasses
import pathlib

import bandforge
import bandforge.cli

REMOVED = (
    "asqp_necessary",
    "fdtc_bounds",
    "fdtc_exact_if_pinched",
    "is_conj_sqp",
    "is_conj_strictly_asqp",
    "is_sqp",
    "nb_conjugacy_report",
    "nb_report",
    "star",
)


def test_every_exported_name_resolves_once():
    names = bandforge.__all__
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(bandforge, n)] == []


def test_one_report_per_braid():
    # Every answer about a braid is a field of its report; the per-answer
    # functions that re-ran the normal form and the summit search are gone.
    assert {"BraidReport", "braid_report"} <= set(bandforge.__all__)
    assert [n for n in REMOVED if hasattr(bandforge, n) or n in bandforge.__all__] == []
    assert [n for n in REMOVED if hasattr(bandforge.positivity, n) or hasattr(bandforge.fdtc, n)] == []


def test_cli_imports_no_private_name():
    tree = ast.parse(pathlib.Path(bandforge.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bandforge"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_exported_dataclass_is_frozen():
    # The README promises immutable values: no exported record can be written to.
    classes = [getattr(bandforge, n) for n in bandforge.__all__]
    records = [c for c in classes if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert records and [c.__name__ for c in records if not c.__dataclass_params__.frozen] == []
    # A named tuple is immutable only while its class adds no instance dict.
    tuples = [c for c in classes if isinstance(c, type) and issubclass(c, tuple)]
    assert {"BandLetter", "LeftCanonicalForm"} <= {c.__name__ for c in tuples}
    assert [c.__name__ for c in tuples if c.__dictoffset__ != 0] == []
