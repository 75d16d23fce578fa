"""The README's library example runs and gives the verdicts its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_gives_its_stated_verdicts():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = block.group(1).splitlines()
    namespace = {}
    stated = []
    for stmt in ast.parse(block.group(1)).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        # a comment such as  # "entangled", with .witness attached
        comment = re.search(r'#\s*"([\w-]+)"(.*)', lines[stmt.lineno - 1])
        if comment:
            word, rest = comment.groups()
            got = value if isinstance(value, str) else value.verdict
            assert got == word, lines[stmt.lineno - 1]
            if ".witness" in rest:
                assert value.witness is not None
            stated.append(word)
    assert stated == ["ppt", "entangled"]
