"""Every public function and class of the package, and every public method,
property and annotated field of its classes, has a caller: code of the
package outside its own definition, a script, the benchmark or an acceptance
criterion.  A caller refers to the name in code, not in a docstring or as a
constructor keyword, and the re-exports of __init__.py do not count.  A class
member is read only through an attribute (obj.name), so a local variable of
the same name does not hide it; a function or class is read as a Name or an
Attribute.  A name with no caller is deleted, or listed in KEPT with the
reason it stays."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dualchain"
CALLERS = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# samplers.py makes the random instances of the property tests, its only callers
UNCHECKED = ("samplers",)

KEPT = (
    ("chains.ScaleProfile.dual_station",
     "the dual side of the absorbing-reflecting route (ROADMAP item 18)"),
    ("spectra.bernoulli_laplace_weights",
     "the oracle of the Bernoulli-Laplace spectral weights (ROADMAP item 5)"),
)


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> tuple[set[str], set[str]]:
    """The names the code of ``tree`` refers to outside the node ``skip``:
    those of its Names and Attributes, and those of its Attributes alone."""
    names, attrs, stack = set(), set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names | attrs, attrs


def public_definitions(tree: ast.Module):
    """(dotted name, node) of each public function and class of ``tree``,
    and of each public method, property and annotated field of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", member


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    refs = {stem: referenced_names(tree) for stem, tree in trees.items()}
    outside = [referenced_names(ast.parse(p.read_text())) for p in CALLERS]
    uncalled = []
    for stem, tree in trees.items():
        if stem in UNCHECKED:
            continue
        others = outside + [v for other, v in refs.items() if other != stem]
        # [names, attributes] read elsewhere; a member (Class.name) is read
        # only as an attribute
        elsewhere = [set().union(*(r[kind] for r in others)) for kind in (0, 1)]
        for name, node in public_definitions(tree):
            kind = int("." in name)
            if name.rpartition(".")[2] not in (
                    elsewhere[kind] | referenced_names(tree, skip=node)[kind]):
                uncalled.append(f"{stem}.{name}")
    # a KEPT name that gains a caller leaves KEPT
    assert sorted(uncalled) == sorted(name for name, _ in KEPT)


def test_every_error_is_raised_in_the_package_and_named_by_a_test():
    # an error class no code raises is deleted with its last raise, and one
    # that no test names is a refusal no test has seen; a test names a class
    # in code or in a string, as in the CLI's "error: <class>: <message>"
    classes = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    named, words = set(), set()
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text())
        named |= referenced_names(tree)[0]
        words |= {w for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) for w in re.findall(r"\w+", node.value)}
    assert classes and classes <= raised, sorted(classes - raised)
    assert classes <= named | words, sorted(classes - named - words)
