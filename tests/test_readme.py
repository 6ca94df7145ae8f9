"""README's library tour runs as written and its comments' values hold."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_values():
    """Run the tour's code block, returning (value, comment) for every
    top-level expression whose last line carries a comment."""
    text = README.read_text()
    source = text[text.index("## Library tour") :].split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace = {}
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            if comment:
                values.append((value, comment))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_library_tour_comments_hold():
    claims = {"number": 0, "string": 0}
    for value, comment in tour_values():
        if match := re.match(r"(\d+\.\d+)\.\.\.", comment):
            assert str(value).startswith(match[1]), (value, comment)
            claims["number"] += 1
        elif match := re.match(r"'(\w+)'", comment):
            assert value == match[1], (value, comment)
            claims["string"] += 1
    # D_inf = 0.7071..., then 'feasible' at 0.70 and 'infeasible' at 0.72
    assert claims == {"number": 1, "string": 2}
