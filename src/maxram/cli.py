"""Command line front end.

Artifacts go to --output as canonical JSON (or stdout without it);
anything about how a run went, like timings or retry counts, goes to
stderr so identical inputs keep producing byte-identical files.

Exit codes: 0 success, 1 failed validation, 2 bad input or parameters,
3 search budget exhausted (the artifact is still written).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from .anchors import build_anchor_sequence, verify_anchor_sequence
from .chromatic import grid_chromatic
from .colorings import avoidance_coloring, pigeonhole_lower_bound, upper_bound_value
from .cover import (
    CoverInstance,
    cn_table,
    exact_cover,
    greedy_cover,
    randomized_cover,
)
from .errors import DomainError, ParseError, PreconditionError
from .extraction import GridSubset, extract_general_baton, extract_unit_baton
from .io import (
    anchor_sequence_certificate,
    chromatic_certificate,
    copy_embedding_certificate,
    copy_list_certificate,
    dump_json,
    metric_space_from_obj,
    periodic_coloring_certificate,
    point_set_from_obj,
    read_json,
    torus_cover_certificate,
    write_json,
)
from .metric import Baton, find_copies, frechet_embed
from .rational import parse_rational
from .validate import validate_certificate

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by the subcommands."""

    seed: int = 0
    budget: int = DEFAULT_BUDGET
    output: str | None = None


def _resolve_config(args) -> RunConfig:
    budget = getattr(args, "budget", None)
    if budget is None:
        raw = os.environ.get("MAXRAM_BUDGET", str(DEFAULT_BUDGET))
        try:
            budget = int(raw)
        except ValueError as exc:
            raise ParseError(f"MAXRAM_BUDGET is not an integer: {raw!r}") from exc
    if budget < 1:
        raise PreconditionError("budget must be positive")
    return RunConfig(
        seed=getattr(args, "seed", 0),
        budget=budget,
        output=getattr(args, "output", None),
    )


def _emit(text: str, config: RunConfig) -> None:
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, config: RunConfig) -> None:
    if config.output:
        write_json(config.output, obj)
    else:
        sys.stdout.write(dump_json(obj))


def _parse_steps(text: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty step list")
    return Baton(steps=tuple(parse_rational(p) for p in parts))


def _cmd_embed(args, config: RunConfig) -> int:
    space = metric_space_from_obj(read_json(args.metric))
    _emit_json(copy_embedding_certificate(frechet_embed(space)), config)
    return 0


def _cmd_copies(args, config: RunConfig) -> int:
    space = metric_space_from_obj(read_json(args.metric))
    points = point_set_from_obj(read_json(args.points))
    found = find_copies(
        space, points, limit=args.limit, distinct_supports=args.distinct_supports
    )
    _emit_json(copy_list_certificate(space, found), config)
    return 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cmd_extract(args, config: RunConfig) -> int:
    obj = read_json(args.subset)
    if args.baton is None:
        if not isinstance(obj, dict) or not {"k", "n", "elements"} <= obj.keys():
            raise ParseError("subset file needs k, n and elements")
        if not (_is_int(obj["k"]) and _is_int(obj["n"])):
            raise ParseError("subset file: k and n must be integers")
        elements = obj["elements"]
        if not isinstance(elements, list) or not all(
            isinstance(e, list) and all(_is_int(c) for c in e) for e in elements
        ):
            raise ParseError("subset file: elements must be a list of integer lists")
        subset = GridSubset(
            n=obj["n"],
            k=obj["k"],
            elems=frozenset(tuple(e) for e in elements),
        )
        if args.k is not None and args.k != subset.k:
            raise PreconditionError(f"--k {args.k} does not match the file ({subset.k})")
        embedding = extract_unit_baton(subset)
    else:
        baton = _parse_steps(args.baton)
        sequence = build_anchor_sequence(baton, faithful=args.faithful)
        points = point_set_from_obj(obj)
        embedding = extract_general_baton(points, baton, sequence.anchor_set)
    _emit_json(copy_embedding_certificate(embedding), config)
    return 0


def _cmd_anchors(args, config: RunConfig) -> int:
    baton = _parse_steps(args.steps)
    start = time.perf_counter()
    sequence = build_anchor_sequence(baton, faithful=args.faithful)
    elapsed = time.perf_counter() - start
    report = verify_anchor_sequence(sequence, baton)
    print(
        f"m={sequence.m} q={sequence.q} built in {elapsed:.3f}s", file=sys.stderr
    )
    _emit_json(anchor_sequence_certificate(baton, sequence, report), config)
    return 0 if report.ok else 1


def _cmd_color(args, config: RunConfig) -> int:
    space = metric_space_from_obj(read_json(args.metric))
    if args.variant == "u1":
        bound = upper_bound_value(space, args.n, variant="U1")
        _emit_json(
            {
                "variant": bound.variant,
                "value": bound.value,
                "asymptotic_only": bound.asymptotic_only,
                "trivial_bound_better": bound.trivial_bound_better,
            },
            config,
        )
        return 0
    mode = "asymptotic" if args.asymptotic else "randomized"
    coloring = avoidance_coloring(space, args.n, mode=mode, seed=config.seed)
    for note in coloring.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _emit_json(periodic_coloring_certificate(coloring, space), config)
    return 0


def _cmd_bounds(args, config: RunConfig) -> int:
    lower = pigeonhole_lower_bound(args.k, args.n)
    if args.k == 1:
        upper = 2**args.n
    else:
        space = Baton.unit(args.k).as_metric_space()
        upper = upper_bound_value(space, args.n, variant="U2", seed=config.seed).value
    _emit(f"k,n,lower,upper\n{args.k},{args.n},{lower},{upper}\n", config)
    return 0


def _cmd_chi(args, config: RunConfig) -> int:
    try:
        k, n = (int(p) for p in args.grid.split(","))
    except ValueError as exc:
        raise ParseError(f"--grid expects k,n: {exc}") from exc
    space = None
    if args.metric is not None:
        space = metric_space_from_obj(read_json(args.metric))
    report = grid_chromatic(k, n, space, budget=config.budget)
    _emit_json(chromatic_certificate(report), config)
    if report.certificate.budget_exhausted:
        print("warning: search budget exhausted", file=sys.stderr)
        return 3
    return 0


def _cmd_cover(args, config: RunConfig) -> int:
    if args.cover_cmd == "table":
        rows = cn_table(args.max, budget=config.budget, seed=config.seed)
        lines = ["n,lower,upper,exact"]
        lines += [
            f"{r.n},{r.lower},{r.upper},{str(r.exact).lower()}" for r in rows
        ]
        _emit("\n".join(lines) + "\n", config)
        return 0
    if args.m is None or args.d is None or args.n is None:
        raise PreconditionError("cover needs --m, --d and --n")
    inst = CoverInstance(m=args.m, d=args.d, n=args.n)
    if args.greedy:
        solution = greedy_cover(inst)
    elif args.random:
        solution = randomized_cover(inst, seed=config.seed)
    else:
        solution = exact_cover(inst, budget=config.budget)
    _emit_json(torus_cover_certificate(inst, solution), config)
    if solution.budget_exhausted:
        print("warning: search budget exhausted", file=sys.stderr)
        return 3
    return 0


def _cmd_validate(args, config: RunConfig) -> int:
    report = validate_certificate(args.path)
    if report.ok:
        print(f"ok: {report.kind}")
        return 0
    print(f"invalid: {report.kind or 'unknown'}")
    for failure in report.failures:
        print(f"  {failure}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxram",
        description="Max-norm geometry: extraction, anchors, colorings, covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="isometric max-norm embedding of a space")
    p.add_argument("--metric", required=True, help="metric space JSON file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("copies", help="list copies of a space in a point set")
    p.add_argument("--metric", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--distinct-supports", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("extract", help="extract a baton copy from a dense subset")
    p.add_argument("--subset", required=True, help="grid subset or point set JSON")
    p.add_argument("--k", type=int, default=None, help="expected grid side")
    p.add_argument("--baton", default=None, help="comma-separated rational steps")
    p.add_argument("--faithful", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("anchors", help="build and verify an anchor sequence")
    p.add_argument("--steps", required=True, help="comma-separated rational steps")
    p.add_argument("--faithful", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("color", help="periodic coloring avoiding a space")
    p.add_argument("--metric", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=["u1", "u2"], default="u2")
    p.add_argument("--asymptotic", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")

    p = sub.add_parser("bounds", help="lower/upper color bounds for unit batons")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")

    p = sub.add_parser("chi", help="exact chromatic number on a grid")
    p.add_argument("--grid", required=True, help="k,n")
    p.add_argument("--metric", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output")

    p = sub.add_parser("cover", help="cover a torus by cubes")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--greedy", action="store_true")
    mode.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output")
    csub = p.add_subparsers(dest="cover_cmd")
    t = csub.add_parser("table", help="bounds table for m=3, d=2")
    t.add_argument("--max", type=int, required=True)
    t.add_argument("--budget", type=int, default=None)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("-o", "--output")

    p = sub.add_parser("validate", help="recheck a certificate file")
    p.add_argument("path")

    return parser


_COMMANDS = {
    "embed": _cmd_embed,
    "copies": _cmd_copies,
    "extract": _cmd_extract,
    "anchors": _cmd_anchors,
    "color": _cmd_color,
    "bounds": _cmd_bounds,
    "chi": _cmd_chi,
    "cover": _cmd_cover,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](args, config)
    except (PreconditionError, DomainError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
