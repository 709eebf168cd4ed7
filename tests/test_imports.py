"""What `import unfolder` loads, checked in fresh interpreters.

The package loads each public name on first use, so a process compiles and
runs only the submodules it reads.  Each check runs in a new interpreter,
under `python` and under `python -O`, because `sys.modules` of the test
process already holds every submodule.  The last test checks the layout of
the tests themselves.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unfolder.gallery import torus_z3
from unfolder.io import emit

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exports, by the submodule that defines it; a name
# added to or dropped from the package has to be added or dropped here too
EXPORTS = {
    "complexes": (
        "AbstractComplex", "Complex", "DualGraph", "FaceClasses", "FacetPath", "Gluing",
        "PseudoComplex", "StarView", "as_pseudo", "dual_graph", "gluings_of", "is_simplicial",
        "link", "link_of_class", "path_from_facets", "perspectivity", "star_of_class",
    ),
    "diagnostics": (
        "IsoWitness", "OddSubcomplex", "ProjectionConstraint", "balanced_coloring",
        "euler_characteristic", "is_locally_strongly_connected", "is_nice",
        "is_pseudo_manifold", "is_strongly_connected", "isomorphic", "mod2_boundary_check",
        "odd_subcomplex", "orientable",
    ),
    "errors": (
        "BadGluing", "BadParameter", "BaseNotNice", "DegenerateFacet", "DegenerateMap",
        "DimensionMismatch", "InvalidPath", "IsomorphismNotFound", "MixedDimension",
        "Mismatch", "NotAFace", "NotAFacet", "NotLocallyStronglyConnected",
        "NotStronglyConnected", "ParseError", "SelfIdentification", "UnfolderError",
    ),
    "gallery": (
        "Expected", "GalleryEntry", "KnotNeighborhood", "boundary_simplex", "cycle_graph",
        "doubled_triangle_sphere", "gallery_complex", "gallery_entries", "hexagon_cone",
        "knot_neighborhood", "nonsimplicial_unfolding_example", "pinched_strip",
        "starred_triangle", "surface_family", "surface_sphere", "torus_z3",
    ),
    "io": ("ParsedDocument", "emit", "emit_component", "emit_unfolding", "parse", "parse_document"),
    "permutations": (
        "Perm", "PermutationGroup", "perm_compose", "perm_cycle_string", "perm_identity",
        "perm_inverse", "perm_sign",
    ),
    "projectivities": (
        "ProjectivityGroup", "StarGroup", "induced_homomorphism_check", "loop_projectivity",
        "odd_generated_subgroup", "path_projectivity", "projectivity_group", "star_group",
    ),
    "subdivisions": (
        "SubdivisionRecord", "antiprism_facet_shapes", "antiprismatic", "barycentric",
        "crumpling_group_pair", "crumpling_map", "iterate", "stellar",
        "unfold_commutes_with_antiprismatic",
    ),
    "unfoldings": (
        "Component", "Tower", "UnfoldingResult", "branch_locus_counts", "branching_index",
        "complete_unfolding", "component_of", "component_parts", "components",
        "composition_tower", "fibers_over", "partial_unfolding", "projects_isomorphically",
    ),
    "verify": ("CheckResult", "run_suite"),
}

flags = pytest.mark.parametrize("flag", [(), ("-O",)], ids=["python", "python-O"])


def fresh(flag, program, *args) -> list[str]:
    """The lines that `program` prints in a new interpreter run with `flag`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *flag, "-c", program, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


@flags
def test_importing_the_package_loads_no_submodule(flag):
    program = "import sys, unfolder\nprint([m for m in sys.modules if m.startswith('unfolder.')])\n"
    assert fresh(flag, program) == ["[]"]


@flags
def test_every_export_is_its_modules_object_and_is_listed(flag):
    program = (
        "import importlib, json, sys, unfolder\n"
        "exports = json.loads(sys.argv[1])\n"
        "names = [n for names in exports.values() for n in names]\n"
        "print(sorted(unfolder.__all__) == sorted(names))\n"
        "listed = set(dir(unfolder))\n"
        "for module, names in exports.items():\n"
        "    home = importlib.import_module('unfolder.' + module)\n"
        "    for n in names:\n"
        "        if getattr(unfolder, n) is not getattr(home, n) or n not in listed:\n"
        "            print(n)\n"
    )
    assert fresh(flag, program, json.dumps(EXPORTS)) == ["True"]


@flags
def test_submodules_import_from_the_package(flag):
    program = (
        "import sys, types\n"
        "from unfolder import cli, verify, unfoldings\n"
        "for m in (cli, verify, unfoldings):\n"
        "    print(isinstance(m, types.ModuleType) and m is sys.modules[m.__name__])\n"
        "import unfolder\n"
        "print(unfolder.complexes is sys.modules['unfolder.complexes'])\n"
    )
    assert fresh(flag, program) == ["True"] * 4


@flags
def test_an_unknown_name_raises_attribute_error(flag):
    program = (
        "import unfolder\n"
        "try:\n"
        "    unfolder.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    assert fresh(flag, program) == ["module 'unfolder' has no attribute 'no_such_name'"]


@flags
def test_parse_and_emit_load_no_unfolding(flag):
    program = (
        "import sys\n"
        "from unfolder.io import parse_document, emit\n"
        "print('unfolder.unfoldings' in sys.modules, 'unfolder.projectivities' in sys.modules)\n"
    )
    assert fresh(flag, program) == ["False False"]


@flags
def test_analyze_loads_neither_the_gallery_nor_verify(flag, tmp_path):
    doc = tmp_path / "torus-z3.json"
    doc.write_text(emit(torus_z3()))
    program = (
        "import contextlib, io, sys\n"
        "from unfolder import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['analyze', sys.argv[1]])\n"
        "print(code, 'unfolder.gallery' in sys.modules, 'unfolder.verify' in sys.modules)\n"
    )
    assert fresh(flag, program, str(doc)) == ["0 False False"]


def test_no_test_module_imports_another():
    # shared references live in `oracles` and shared inputs in `corpus`, so
    # no test module reads another, at top level or inside a function
    found = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.startswith("test_")]
    assert found == []
