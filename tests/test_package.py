"""The package's public surface: every name in `steplab.__all__` resolves,
so a removed function cannot linger there, and every engine name a module
of `src/` reads exists, so a removed op cannot linger in a rarely run
branch."""

import ast
import pathlib

import steplab
from steplab import engine


def test_every_public_name_resolves():
    assert [name for name in steplab.__all__
            if not hasattr(steplab, name)] == []
    assert len(set(steplab.__all__)) == len(steplab.__all__)


def test_src_names_only_engine_attributes_that_exist():
    """Each `en.<name>` (whatever the module calls the engine) and each
    name imported from the engine resolves on `steplab.engine`."""
    missing = []
    for path in sorted(pathlib.Path(steplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases, used = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases |= {a.asname or a.name for a in node.names
                                if a.name == "engine"}
                elif node.module == "engine":
                    used += [(node.lineno, a.name) for a in node.names]
        used += [(node.lineno, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in aliases]
        missing += [f"{path.name}:{line} {name}" for line, name in used
                    if not hasattr(engine, name)]
    assert missing == []
