"""Every public function and class of the package has a caller: code of the
package outside its own definition, a script, the benchmark or an acceptance
criterion.  A caller refers to the name in code (a Name or an Attribute), not
in a docstring, and the re-exports of __init__.py do not count.  A name with
no caller is deleted, or listed in KEPT with the reason it stays."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dualchain"
CALLERS = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# samplers.py makes the random instances of the property tests, its only callers
UNCHECKED = ("samplers",)

KEPT = (
    ("spectra.bernoulli_laplace_weights",
     "the oracle of the Bernoulli-Laplace spectral weights (ROADMAP item 5)"),
    ("stationary_times.separation",
     "the paper's separation distance of one law; tests use it as an oracle"),
)


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names the code of ``tree`` refers to, outside the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    names = {stem: referenced_names(tree) for stem, tree in trees.items()}
    outside = set().union(*(referenced_names(ast.parse(p.read_text())) for p in CALLERS))
    uncalled = []
    for stem, tree in trees.items():
        if stem in UNCHECKED:
            continue
        elsewhere = outside.union(*(v for other, v in names.items() if other != stem))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere | referenced_names(tree, skip=node)):
                uncalled.append(f"{stem}.{node.name}")
    # a KEPT name that gains a caller leaves KEPT
    assert sorted(uncalled) == sorted(name for name, _ in KEPT)
