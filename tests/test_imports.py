import ast
from pathlib import Path

import gaussrough

SRC = Path(gaussrough.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    # Modules share the batch layer through named functions; an underscore
    # name stays inside the module that defines it.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("gaussrough"):
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == [], found
