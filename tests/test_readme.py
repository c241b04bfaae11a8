"""README's "Library quick start" block, run as written, against the values
its comments claim; its "Subcommands" block against erog's parser; the caps
its "Capacity bounds" section states against the library's constants."""

import ast
import itertools
import pathlib
import re
from fractions import Fraction

from erdosrogers.cli import build_parser
from erdosrogers.constructions import EXHAUSTIVE_COVER_CAP
from erdosrogers.exact import BRANCH_AND_BOUND_CAP, ENUMERATION_CAP
from erdosrogers.exponents import VERTEX_ENUM_CAP
from erdosrogers.isomorphism import CANONICAL_CAP

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


def test_capacity_bounds_match_constants():
    # Each cap the section states, as written there (10^6 as a power).
    text = README.read_text(encoding="utf-8")
    section = re.search(r"## Capacity bounds\n(.*?)(?=\n## |\Z)", text, re.S)
    assert section is not None, "README has no Capacity bounds section"
    prose = " ".join(section.group(1).split())
    for pattern, cap in [
        (r"canonical forms up to (\d+) vertices", CANONICAL_CAP),
        (r"branch-and-bound free subsets up to (\d+) vertices", BRANCH_AND_BOUND_CAP),
        (r"enumeration while n <= (\d+)", CANONICAL_CAP),
        (r"C\(n, r\) <= (\d+),", ENUMERATION_CAP),
        (r"exponent enumeration up to (\d+) covered", VERTEX_ENUM_CAP),
        (r"exhaustive cover sweeps up to (10\^\d+) subsets", EXHAUSTIVE_COVER_CAP),
        (r"canonical forms under the (\d+)-vertex cap", CANONICAL_CAP),
        (r"Within the (\d+) covered vertices", VERTEX_ENUM_CAP),
    ]:
        found = re.search(pattern, prose)
        assert found is not None, f"README states no cap matching {pattern!r}"
        base, _, power = found.group(1).partition("^")
        assert int(base) ** int(power or 1) == cap, found.group(0)
