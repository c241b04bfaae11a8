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
import functools
import sys
import time
from fractions import Fraction

from . import constructions, exact, exponents, hgio, morphisms
from .errors import CapacityError, InvalidParameterError
from .hgio import _json_text
from .hypergraph import iterated_blowup, shadow
from .isomorphism import Embedding, contains_copy
from .morphisms import SetMap, ShadowHomWitness


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _embedding_obj(emb: Embedding | None):
    return None if emb is None else {"images": list(emb.images)}


def _setmap_obj(sm: SetMap, names: tuple[str, str, str]) -> dict:
    src, tgt, img = names
    return {src: list(sm.source), tgt: list(sm.target), img: list(sm.images)}


def _witness_obj(w: ShadowHomWitness | None):
    if w is None:
        return None
    return {
        "k": w.k,
        "shadow_map": [_setmap_obj(sm, ("S", "f_S", "g_S")) for sm in w.shadow_map],
        "edge_map": [_setmap_obj(em, ("e", "f_e", "g_e")) for em in w.edge_map],
    }


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
_NOT_ECHOED = {
    "command", "handler", "hg_files", "exponent", "threads", "seed", "out", "cert"
}


def _cmd_shadow(args, h):
    return {"hypergraph": hgio.to_json_obj(shadow(h, args.k))}


def _cmd_hom(args, g, f):
    witness = morphisms.find_homomorphism(g, f)
    return {"found": witness is not None, "witness": _embedding_obj(witness)}


def _cmd_shadow_hom(args, g, f):
    witness = morphisms.find_shadow_homomorphism(g, f, args.k)
    return {"found": witness is not None, "witness": _witness_obj(witness)}


def _cmd_tight(args, g):
    order = morphisms.is_k_tightly_connected(g, args.k)
    return {
        "found": order is not None,
        "order": None if order is None else [list(e) for e in order.order],
    }


def _cmd_blowup_member(args, g, f):
    cert = morphisms.is_sub_iterated_blowup(g, f, args.max_steps)
    return {
        "found": cert is not None,
        "steps": None if cert is None else list(cert.steps),
        "embedding": _embedding_obj(cert.embedding if cert else None),
    }


def _cmd_density(args, f):
    report = args.exponent(f)
    return {
        "value": _fraction_str(report.value),
        "witness_vertices": list(report.witness_vertices),
        "witness_edges": [list(e) for e in report.witness_edges],
        "numerator_offset": report.numerator_offset,
    }


def _cmd_construct(args, f):
    params = constructions.ConstructionParams(c1=Fraction(args.c1), seed=args.seed)
    if args.mode == "coloring":
        h, cert = constructions.construct_coloring(args.n, f, params)
        cert_obj = constructions.pair_coloring_to_json(cert)
        extra = {"ell": cert.ell}
    else:
        if args.k is None:
            raise InvalidParameterError("labeling mode requires -k")
        h, cert = constructions.construct_shadow_labeling(args.n, f, args.k, params)
        cert_obj = constructions.shadow_labeling_to_json(cert)
        extra = {"k": cert.k}
    if args.out:
        hgio.save_hg(h, args.out)
    if args.cert:
        with open(args.cert, "w") as fobj:
            fobj.write(_json_text(cert_obj) + "\n")
    return {
        "mode": args.mode,
        "hypergraph": hgio.to_json_obj(h),
        "edge_count": len(h.edges),
        "output_file": args.out,
        "certificate_file": args.cert,
        **extra,
    }


def _cmd_verify_gfree(args, h, g):
    violation = contains_copy(h, g)
    return {"g_free": violation is None, "violation": _embedding_obj(violation)}


def _cmd_cover(args, h, f):
    est = constructions.estimate_f_cover(
        h, f, args.w, args.trials, args.seed, exhaustive=args.exhaustive
    )
    return {
        "fraction": est.fraction,
        "half_width": est.half_width,
        "hits": est.hits,
        "trials": est.trials,
        "exhaustive": est.exhaustive,
    }


def _cmd_extract(args, h, f):
    emb = constructions.extract_blowup_copy(h, f, args.steps)
    found = emb is not None
    return {
        "found": found,
        "steps": args.steps,
        "embedding": _embedding_obj(emb),
        "blowup": hgio.to_json_obj(iterated_blowup(f, args.steps)) if found else None,
    }


def _cmd_maxfree(args, h, f):
    res = exact.max_f_free_subset(h, f)
    return {"size": res.size, "witness": list(res.witness)}


def _cmd_f_exact(args, f, g):
    res = exact.f_exact(f, g, args.n)
    return {"value": res.value, "extremal": hgio.to_json_obj(res.extremal)}


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

    def command(name, handler, help, *files, loads=(), **defaults):
        p = sub.add_parser(name, parents=[common], help=help)
        for dest in files:
            p.add_argument(dest)
        p.set_defaults(handler=handler, hg_files=files + loads, **defaults)
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

    command(
        "alpha", _cmd_density, "offset-1 density exponent", "F",
        exponent=exponents.alpha,
    )
    command(
        "beta", _cmd_density, "offset-0 density exponent", "F",
        exponent=exponents.beta,
    )

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
