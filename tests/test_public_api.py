"""The package's public surface, and the README's library sketch run as written."""

import ast
from pathlib import Path

import ilocal

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_imports_from_the_package():
    for name in ilocal.__all__:
        namespace = {}
        exec(f"from ilocal import {name}", namespace)
        assert namespace[name] is getattr(ilocal, name)


def test_all_has_no_duplicates():
    assert len(set(ilocal.__all__)) == len(ilocal.__all__)


def test_all_is_exactly_the_public_names_init_binds():
    tree = ast.parse(Path(ilocal.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert set(ilocal.__all__) == {name for name in bound if not name.startswith("_")}


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert len(blocks) == 1
    sketch = blocks[0]
    namespace = {}
    exec(compile(sketch, str(README), "exec"), namespace)
    claimed_true = []
    for line in sketch.splitlines():
        code, _, comment = line.partition("#")
        if comment.strip() == "True":
            assert eval(code, namespace) is True, code
            claimed_true.append(code)
    assert len(claimed_true) == 2
    (mu_bar,) = [line.partition("#")[0] for line in sketch.splitlines() if "predict_mu_bar" in line]
    assert eval(mu_bar, namespace) == 2
