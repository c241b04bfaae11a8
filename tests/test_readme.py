"""README's "Library quick start" block, run as written, against the values
its comments claim; its "Subcommands" block against erog's parser."""

import ast
import itertools
import pathlib
import re
from fractions import Fraction

from erdosrogers.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_values() -> list:
    """Run the block statement by statement; the value of each bare
    expression, in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Library quick start block"
    env: dict = {}
    values = []
    for stmt in ast.parse(block.group(1)).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, env))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    return values


def test_library_quick_start():
    pairs, density, shadow_hom, extremal = quick_start_values()
    assert pairs == tuple(itertools.combinations(range(4), 2))
    assert density == Fraction(7, 3)
    assert shadow_hom is None
    assert extremal.value == 3 and extremal.extremal.n == 4


def test_subcommands_block_lists_every_subcommand():
    # Every subcommand that erog declares, and no other, has a usage line.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Subcommands:\n\n```\n(.*?)```", text, re.S)
    assert block is not None, "README has no Subcommands block"
    documented = {line.split()[1] for line in block.group(1).splitlines()}
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert documented == set(sub.choices)
