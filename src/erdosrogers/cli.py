"""Command line surface.

Every subcommand prints a single JSON report to standard output and returns a
conventional exit code: 0 for a decided/constructed result, 1 when a decision
command answers "absent/false", 2 for usage or file-format errors, 3 when an
exact computation exceeds its declared capacity, 4 for an internal error (any
other exception, such as RecursionError or MemoryError).  Hypergraphs are
read from .hg text files (or .json); logs and diagnostics go to standard
error.

Results are bit-reproducible: re-running a command with the echoed inputs
(including the seed) yields an identical report except for wall_time_ms;
--threads is accepted and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from fractions import Fraction

from . import constructions, exact, exponents, hgio, morphisms
from .errors import CapacityError, InvalidParameterError
from .hgio import _json_text
from .hypergraph import Hypergraph, iterated_blowup, shadow
from .isomorphism import contains_copy
from .morphisms import SetMap


def _json_value(value):
    """The JSON value of a library value, as reports and certificates write it.

    A dataclass or NamedTuple becomes an object of its fields in declaration
    order, a Fraction the string "p/q", a Hypergraph its :mod:`.hgio` JSON
    form and a SetMap ``{"S", "f_S", "g_S"}`` (source, target, images).  A
    tuple of ints is kept, for :func:`.hgio._json_text` writes it as a list;
    any other tuple becomes the list of its encoded items.
    """
    if isinstance(value, Hypergraph):
        return hgio.to_json_obj(value)
    if isinstance(value, SetMap):
        return {"S": value.source, "f_S": value.target, "g_S": value.images}
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return {f.name: _json_value(getattr(value, f.name)) for f in fields}
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            return dict(zip(value._fields, map(_json_value, value)))
        if set(map(type, value)) != {int}:
            return list(map(_json_value, value))
    return value


def _int_list(text: str) -> list[int]:
    """argparse type for --steps: comma-separated integers (empty parts skipped)."""
    try:
        return [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _rational(text: str) -> str:
    """argparse type for --c1: a rational number, kept as typed for the report."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    return text


# Parsed arguments that the report does not echo as inputs: argparse and
# dispatch bookkeeping, the ignored --threads, the seed (a top-level key of its
# own) and the output paths (echoed in the result).
_NOT_ECHOED = {"command", "handler", "hg_files", "threads", "seed", "out", "cert"}


def _cmd_shadow(args, h):
    return {"hypergraph": _json_value(shadow(h, args.k))}


def _cmd_hom(args, g, f):
    witness = morphisms.find_homomorphism(g, f)
    return {"found": witness is not None, "witness": _json_value(witness)}


def _cmd_shadow_hom(args, g, f):
    witness = morphisms.find_shadow_homomorphism(g, f, args.k)
    obj = _json_value(witness)
    if witness is not None:
        # An edge map is written with keys of its own.
        keys = ("e", "f_e", "g_e")
        obj["edge_map"] = [dict(zip(keys, m.values())) for m in obj["edge_map"]]
    return {"found": witness is not None, "witness": obj}


def _cmd_tight(args, g):
    order = morphisms.is_k_tightly_connected(g, args.k)
    if order is None:
        return {"found": False, "order": None}
    return {"found": True, **_json_value(order)}


def _cmd_blowup_member(args, g, f):
    cert = morphisms.is_sub_iterated_blowup(g, f, args.max_steps)
    if cert is None:
        return {"found": False, "steps": None, "embedding": None}
    return {"found": True, **_json_value(cert)}


def _cmd_alpha(args, f):
    return _json_value(exponents.alpha(f))


def _cmd_beta(args, f):
    return _json_value(exponents.beta(f))


def _cmd_construct(args, f):
    params = constructions.ConstructionParams(c1=Fraction(args.c1), seed=args.seed)
    if args.mode == "coloring":
        h, cert = constructions.construct_coloring(args.n, f, params)
        extra = {"ell": cert.ell}
    else:
        if args.k is None:
            raise InvalidParameterError("labeling mode requires -k")
        h, cert = constructions.construct_shadow_labeling(args.n, f, args.k, params)
        extra = {"k": cert.k}
    if args.out:
        hgio.save_hg(h, args.out)
    if args.cert:
        with open(args.cert, "w") as fobj:
            fobj.write(_json_text(_json_value(cert)) + "\n")
    return {
        "mode": args.mode,
        "hypergraph": _json_value(h),
        "edge_count": len(h.edges),
        "output_file": args.out,
        "certificate_file": args.cert,
        **extra,
    }


def _cmd_verify_gfree(args, h, g):
    violation = contains_copy(h, g)
    return {"g_free": violation is None, "violation": _json_value(violation)}


def _cmd_cover(args, h, f):
    return _json_value(constructions.estimate_f_cover(
        h, f, args.w, args.trials, args.seed, exhaustive=args.exhaustive
    ))


def _cmd_extract(args, h, f):
    emb = constructions.extract_blowup_copy(h, f, args.steps)
    found = emb is not None
    return {
        "found": found,
        "steps": args.steps,
        "embedding": _json_value(emb),
        "blowup": _json_value(iterated_blowup(f, args.steps)) if found else None,
    }


def _cmd_maxfree(args, h, f):
    return _json_value(exact.max_f_free_subset(h, f))


def _cmd_f_exact(args, f, g):
    return _json_value(exact.f_exact(f, g, args.n))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The erog parser, built once per process and shared by every run().

    Each subcommand is declared by one ``command`` call: its name, handler and
    help text, then the dests of its hypergraph files in load order, first the
    positional ones, which ``command`` adds, then ``loads``, options that the
    caller adds.  run() loads those files and calls
    ``handler(args, *hypergraphs)``.
    Positional and option dests are the report's input keys.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="no-op: accepted and ignored; every search runs sequentially",
    )
    parser = argparse.ArgumentParser(
        prog="erog",
        description="Constructive Erdos-Rogers computations for uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *files, loads=()):
        p = sub.add_parser(name, parents=[common], help=help)
        for dest in files:
            p.add_argument(dest)
        p.set_defaults(handler=handler, hg_files=files + loads)
        return p

    p = command("shadow", _cmd_shadow, "k-shadow of a hypergraph", "file")
    p.add_argument("-k", type=int, required=True)

    command("hom", _cmd_hom, "homomorphism from G to F", "G", "F")

    p = command(
        "shadow-hom", _cmd_shadow_hom, "k-shadow-homomorphism from G to F", "G", "F"
    )
    p.add_argument("-k", type=int, required=True)

    p = command("tight", _cmd_tight, "k-tight connectivity of G", "G")
    p.add_argument("-k", type=int, required=True)

    p = command(
        "blowup-member",
        _cmd_blowup_member,
        "is G a subgraph of an F-iterated blowup (bounded depth); for r >= 2, "
        "exit 1 with --max-steps >= v(G) - 2 means G is in no iterated blowup of F",
        "G",
        "F",
    )
    p.add_argument("--max-steps", type=int, default=4)

    command("alpha", _cmd_alpha, "offset-1 density exponent", "F")
    command("beta", _cmd_beta, "offset-0 density exponent", "F")

    p = command(
        "construct", _cmd_construct, "seeded randomized constructions", loads=("F",)
    )
    p.add_argument("mode", choices=["coloring", "labeling"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-F", required=True)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--c1",
        type=_rational,
        default="1",
        help="color count scale for coloring: ell = max(1, round(c1 * ln n)); "
        "labeling echoes it but ignores it",
    )
    p.add_argument("-o", dest="out", default=None)
    p.add_argument("--cert", default=None)

    command(
        "verify-gfree", _cmd_verify_gfree, "exhaustive G-freeness check of H", "H", "G"
    )

    p = command(
        "cover", _cmd_cover, "fraction of w-subsets of H containing F", "H", "F"
    )
    p.add_argument("-w", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")

    p = command(
        "extract", _cmd_extract, "extract an iterated-blowup copy from H", "H", "F"
    )
    p.add_argument("--steps", type=_int_list, default=[])

    command("maxfree", _cmd_maxfree, "maximum F-free induced subset of H", "H", "F")

    p = command("f-exact", _cmd_f_exact, "exact extremal value at tiny n", "F", "G")
    p.add_argument("-n", type=int, required=True)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    start = time.perf_counter()
    try:
        graphs = [hgio.load_hg(getattr(args, dest)) for dest in args.hg_files]
        result = args.handler(args, *graphs)
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Exit 1 means "decided false", so a crash must not fall through to it.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    report = {"command": args.command, "inputs": inputs, "result": result}
    if "seed" in args:
        report["seed"] = args.seed
    report["wall_time_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    sys.stdout.write(_json_text(report) + "\n")
    # Decision commands answer in "found" (verify-gfree: "g_free"); 1 is "false".
    return 0 if result.get("found", result.get("g_free", True)) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
