"""Command line front end.

Artifacts go to --output as canonical JSON (or stdout without it);
anything about how a run went, like timings or retry counts, goes to
stderr so identical inputs keep producing byte-identical files.

Exit codes: 0 success, 1 failed validation, 2 bad input or parameters,
3 search budget exhausted (the artifact is still written).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .anchors import build_anchor_sequence
from .chromatic import grid_chromatic
from .colorings import avoidance_coloring, pigeonhole_lower_bound, upper_bound_value
from .cover import (
    CoverInstance,
    cn_table,
    exact_cover,
    greedy_cover,
    random_translates_cover,
)
from .errors import DEFAULT_BUDGET, DomainError, ParseError, PreconditionError
from .extraction import extract_general_baton, extract_unit_baton
from .io import (
    anchor_sequence_certificate,
    chromatic_certificate,
    copy_embedding_certificate,
    copy_list_certificate,
    dump_json,
    grid_subset_from_obj,
    metric_space_from_obj,
    periodic_coloring_certificate,
    point_set_from_obj,
    read_json,
    torus_cover_certificate,
    write_json,
)
from .metric import Baton, CopyEmbedding, find_copies, frechet_embed
from .rational import parse_rational
from .validate import validate_certificate


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None) -> None:
    if output:
        write_json(output, obj)
    else:
        sys.stdout.write(dump_json(obj))


def _parse_steps(text: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty step list")
    return Baton(steps=tuple(parse_rational(p) for p in parts))


def _cmd_embed(args) -> int:
    space = metric_space_from_obj(read_json(args.metric))
    _emit_json(copy_embedding_certificate(frechet_embed(space)), args.output)
    return 0


def _cmd_copies(args) -> int:
    space = metric_space_from_obj(read_json(args.metric))
    points = point_set_from_obj(read_json(args.points))
    found = find_copies(
        space, points, limit=args.limit, distinct_supports=args.distinct_supports
    )
    # Each written copy carries CopyEmbedding's pairwise check.
    embeddings = [CopyEmbedding(space, points, indices) for indices in found]
    _emit_json(copy_list_certificate(space, embeddings), args.output)
    return 0


def _cmd_extract(args) -> int:
    obj = read_json(args.subset)
    if args.baton is None:
        subset = grid_subset_from_obj(obj)
        if args.k is not None and args.k != subset.k:
            raise PreconditionError(f"--k {args.k} does not match the file ({subset.k})")
        embedding = extract_unit_baton(subset)
    else:
        baton = _parse_steps(args.baton)
        sequence = build_anchor_sequence(baton, faithful=args.faithful)
        points = point_set_from_obj(obj)
        embedding = extract_general_baton(points, baton, sequence.anchor_set)
    _emit_json(copy_embedding_certificate(embedding), args.output)
    return 0


def _cmd_anchors(args) -> int:
    baton = _parse_steps(args.steps)
    start = time.perf_counter()
    sequence = build_anchor_sequence(baton, faithful=args.faithful)
    elapsed = time.perf_counter() - start
    print(
        f"m={sequence.m} q={sequence.q} built in {elapsed:.3f}s", file=sys.stderr
    )
    _emit_json(anchor_sequence_certificate(baton, sequence), args.output)
    return 0


def _cmd_color(args) -> int:
    space = metric_space_from_obj(read_json(args.metric))
    if args.variant == "u1":
        value = upper_bound_value(space, args.n)
        _emit_json(
            {
                "variant": "U1",
                "value": value,
                "asymptotic_only": True,
                "trivial_bound_better": value > 2**args.n,
            },
            args.output,
        )
        return 0
    mode = "asymptotic" if args.asymptotic else "randomized"
    coloring = avoidance_coloring(space, args.n, mode=mode, seed=args.seed)
    for note in coloring.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _emit_json(periodic_coloring_certificate(coloring, space), args.output)
    return 0


def _cmd_bounds(args) -> int:
    lower = pigeonhole_lower_bound(args.k, args.n)
    if args.k == 1:
        upper = 2**args.n
    else:
        space = Baton.unit(args.k).as_metric_space()
        upper = avoidance_coloring(space, args.n, seed=args.seed).class_count
    _emit(f"k,n,lower,upper\n{args.k},{args.n},{lower},{upper}\n", args.output)
    return 0


def _cmd_chi(args) -> int:
    try:
        k, n = (int(p) for p in args.grid.split(","))
    except ValueError as exc:
        raise ParseError(f"--grid expects k,n: {exc}") from exc
    space = None
    if args.metric is not None:
        space = metric_space_from_obj(read_json(args.metric))
    report = grid_chromatic(k, n, space, budget=args.budget)
    _emit_json(chromatic_certificate(report), args.output)
    if report.certificate.budget_exhausted:
        print("warning: search budget exhausted", file=sys.stderr)
        return 3
    return 0


def _cmd_cover_table(args) -> int:
    rows = cn_table(args.max, budget=args.budget)
    lines = ["n,lower,upper,exact"]
    lines += [f"{r.n},{r.lower},{r.upper},{str(r.exact).lower()}" for r in rows]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_cover(args) -> int:
    if args.m is None or args.d is None or args.n is None:
        raise PreconditionError("cover needs --m, --d and --n")
    inst = CoverInstance(m=args.m, d=args.d, n=args.n)
    if args.greedy:
        solution = greedy_cover(inst)
    elif args.random:
        solution = random_translates_cover(inst, seed=args.seed)
    else:
        solution = exact_cover(inst, budget=args.budget)
    _emit_json(torus_cover_certificate(inst, solution), args.output)
    if solution.budget_exhausted:
        print("warning: search budget exhausted", file=sys.stderr)
        return 3
    return 0


def _cmd_validate(args) -> int:
    report = validate_certificate(args.path)
    if report.ok:
        print(f"ok: {report.kind}")
        return 0
    print(f"invalid: {report.kind or 'unknown'}")
    for failure in report.failures:
        print(f"  {failure}")
    return 1


def _budget(text: str) -> int:
    """argparse type of --budget: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _command(
    sub, name: str, run, help: str, seed: bool = False, budget: bool = False
) -> argparse.ArgumentParser:
    """A subcommand that calls run(args): the one declaration of -o, and of
    --seed and --budget where asked. An absent flag sets nothing here;
    build_parser sets each default once, on the top-level parser, so
    `cover table` keeps the values given before `table`."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    p.add_argument("-o", "--output", default=argparse.SUPPRESS)
    if seed:
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    if budget:
        p.add_argument("--budget", type=_budget, default=argparse.SUPPRESS)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxram",
        description="Max-norm geometry: extraction, anchors, colorings, covers.",
    )
    parser.set_defaults(output=None, seed=0, budget=DEFAULT_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(_command, sub)

    p = command("embed", _cmd_embed, "isometric max-norm embedding of a space")
    p.add_argument("--metric", required=True, help="metric space JSON file")

    p = command("copies", _cmd_copies, "list copies of a space in a point set")
    p.add_argument("--metric", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--distinct-supports", action="store_true")

    p = command("extract", _cmd_extract, "extract a baton copy from a dense subset")
    p.add_argument("--subset", required=True, help="grid subset or point set JSON")
    p.add_argument("--k", type=int, default=None, help="expected grid side")
    p.add_argument("--baton", default=None, help="comma-separated rational steps")
    p.add_argument("--faithful", action="store_true")

    p = command("anchors", _cmd_anchors, "build and verify an anchor sequence")
    p.add_argument("--steps", required=True, help="comma-separated rational steps")
    p.add_argument("--faithful", action="store_true")

    p = command("color", _cmd_color, "periodic coloring avoiding a space", seed=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=["u1", "u2"], default="u2")
    p.add_argument("--asymptotic", action="store_true")

    p = command(
        "bounds", _cmd_bounds, "lower/upper color bounds for unit batons", seed=True
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("chi", _cmd_chi, "exact chromatic number on a grid", budget=True)
    p.add_argument("--grid", required=True, help="k,n")
    p.add_argument("--metric", default=None)

    p = command("cover", _cmd_cover, "cover a torus by cubes", seed=True, budget=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--greedy", action="store_true")
    mode.add_argument("--random", action="store_true")
    t = _command(
        p.add_subparsers(),
        "table",
        _cmd_cover_table,
        "bounds table for m=3, d=2",
        budget=True,
    )
    t.add_argument("--max", type=int, required=True)

    p = sub.add_parser("validate", help="recheck a certificate file")
    p.add_argument("path")
    p.set_defaults(run=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (
        PreconditionError,
        DomainError,
        ParseError,
        FileNotFoundError,
        IsADirectoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
