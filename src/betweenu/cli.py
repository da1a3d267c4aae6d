"""Batch command-line front end.

Four subcommands, all reading a JSON model description (see
:mod:`betweenu.modelspec` for the schema) and writing machine-readable
results into an output directory:

``repr``        U.csv (grid lotteries and their utilities), u.csv (the
                implicit utility over grid x level grid), summary.json
                (extremes, tolerances, worst fixed-point gap, one-sided
                endpoint limits at the simplex vertices).
``check``       axioms.json with all five axiom reports.
``triangle``    curves.csv and triangle.svg for three-outcome models.
``separation``  separation.json: per-level separating functionals, the
                sample-by-sample audit, and cross-polytope agreement, or
                the message of a level's infeasible program and its
                Farkas certificate.

One parser serves them all: the subcommand is its positional argument,
chosen from :data:`COMMANDS`, and each flag is declared once and accepted
by every subcommand, which ignores the flags it does not read.  ``main``
parses ``--levels`` into ``args.levels`` and calls the table's function
with the model and ``args``.

CSV layout: lottery components first, then inputs such as the level,
then computed quantities.  Input columns are printed with full
round-trip precision so every row can be recomputed by calling the
matching library operation; computed columns carry 12 significant
digits.  Every JSON file holds exactly ``json.dumps(payload, indent=2,
sort_keys=True)`` and one newline: two-space indentation, sorted keys,
non-ASCII characters as ``\\uXXXX`` escapes, floats as ``repr`` spells
them (``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite ones),
and a trailing newline; axioms.json's witness records are written
through a template of the same text (:func:`_write_axioms`).  All
outputs are byte-deterministic for a fixed model, flags, and seed.

Exit codes: 0 ok, 1 a property or check failed, 2 input error,
3 numeric failure inside the construction, also recorded in error.json
(:func:`_write_error`).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .axioms import Witness, run_all_checks
from .engine import (
    _interior_levels,
    context_for,
    implicit_utility_many,
    one_sided_limits,
    solve_utility_many,
    utility_fixed_point_many,
)
from .errors import BetweenuError, Infeasible
from .modelspec import load_model
from .separation import contour_samples, cross_polytope_consistency_many, separate
from .simplex import Polytope, degenerate, grid, mix
from .triangle import collinearity_residual, embed_coords, render_svg, trace_level_curves

LAMBDA_GRID = tuple(k / 10.0 for k in range(1, 10))


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _parse_levels(raw: str) -> list[float]:
    try:
        levels = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"could not parse --levels {raw!r} as comma-separated floats")
    if not levels:
        raise ValueError("--levels must name at least one level")
    return levels


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_csv(path: str, header, rows) -> None:
    """Write the ``header`` fields, then each row of formatted fields, as CSV lines."""
    _write_text(path, "".join(",".join(fields) + "\n" for fields in [header, *rows]))


#: The types of a witness's probabilities when each is exactly a float.
_FLOATS = frozenset({float})
#: Where a report's witness list goes in the text of the axioms.json
#: envelope.  Only a "witnesses" key set to null spells it, since inside a
#: string every quote is escaped, and only a report holds that key.
_SLOT = '"witnesses": null'


class _FloatTexts(dict):
    """A memo of ``float.__repr__`` for one file: a missing float's text is
    made, and kept when the float is finite and not zero.  Look up exact
    floats only, since 1, True and 1.0 are equal keys; zeros are not kept,
    since 0.0 and -0.0 are."""

    __slots__ = ()

    def __missing__(self, v: float) -> str:
        text = float.__repr__(v)
        if v and math.isfinite(v):
            self[v] = text
        return text


@functools.cache
def _witness_template(nl: str) -> tuple[str, str, str, str]:
    """The format of a witness record opened at newline-and-indent ``nl``,
    and the separators of its probabilities, its rows and its orderings."""
    i1 = nl + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    text = (
        f'{{{i1}"lam": %s,{i1}"lotteries": [{i2}[{i3}%s{i2}]{i1}],{i1}"note": %s,'
        f'{i1}"observed": [{i2}%s{i1}]{nl}}}'
    )
    return text, "," + i3, f"{i2}],{i2}[{i3}", "," + i2


def _row_text(probs: tuple, sep: str, texts: _FloatTexts):
    """A lottery row's probabilities spelt through ``texts`` and joined by
    ``sep``, or None unless the row holds finite exact floats only."""
    if set(map(type, probs)) != _FLOATS:
        return None
    text = sep.join(map(texts.__getitem__, probs))
    # float.__repr__ spells NaN and the infinities nan, inf and -inf.
    return None if "n" in text else text


def _witness(w: Witness, nl: str, rows: dict, texts: _FloatTexts) -> str:
    """The text of ``w.to_dict()`` as ``json.dumps(..., indent=2,
    sort_keys=True)`` spells it, opened at newline-and-indent ``nl``.

    It comes from the template when ``lam`` is a finite float or None,
    every lottery row a non-empty row of finite exact floats, ``note`` a
    string and ``observed`` a non-empty tuple of orderings; any other
    witness goes through json.  ``rows`` memoizes each row's text by the
    identity of its probs tuple, which the reports keep alive for the
    whole file: rows equal only as tuples (0.0 and -0.0; 1, True and 1.0)
    keep their own texts.
    """
    text, in_row, between_rows, in_observed = _witness_template(nl)
    probs = []
    for x in w.lotteries:
        key = id(x.probs)
        if key not in rows:
            rows[key] = _row_text(x.probs, in_row, texts)
        if rows[key] is None:
            break
        probs.append(rows[key])
    else:
        lam = w.lam
        if probs and w.observed:
            try:  # float.__repr__, the encoder and _value_ type-check every value
                lam_text = "null" if lam is None else float.__repr__(lam)
                # An ordering's _value_ is its value without the enum property's call.
                observed = [encode_basestring_ascii(o._value_) for o in w.observed]
                note = encode_basestring_ascii(w.note)
            except (AttributeError, TypeError):
                pass
            else:
                if lam is None or "n" not in lam_text:
                    probs = between_rows.join(probs)
                    return text % (lam_text, probs, note, in_observed.join(observed))
    return json.dumps(w.to_dict(), indent=2, sort_keys=True).replace("\n", nl)


def _write_json(path: str, payload, announce: bool = True) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if announce:
        print(f"wrote {path}")


def _write_axioms(path: str, payload: dict) -> None:
    """Write ``payload``, whose ``"reports"`` are
    :class:`~betweenu.axioms.AxiomReport` objects, as :func:`_write_json`
    writes it with each report as its ``to_dict()``: the envelope through
    json, then each witness record through :func:`_witness`, one at a
    time, with one float memo and one row memo for the file (every
    witness list sits at the same depth, so its rows at the same indent)."""
    reports = payload["reports"]
    envelope = [{**vars(r), "witnesses": None if r.witnesses else []} for r in reports]
    pieces = json.dumps({**payload, "reports": envelope}, indent=2, sort_keys=True).split(_SLOT)
    texts, rows = _FloatTexts(), {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for piece, report in zip(pieces, [r for r in reports if r.witnesses]):
            inner = piece[piece.rindex("\n") :] + "  "
            sep = piece + '"witnesses": [' + inner
            for w in report.witnesses:
                fh.write(sep + _witness(w, inner, rows, texts))
                sep = "," + inner
            fh.write(inner[:-2] + "]")
        fh.write(pieces[-1] + "\n")
    print(f"wrote {path}")


def _in_repr(v: float) -> str:
    return repr(float(v))


def _out_fmt(v: float) -> str:
    return format(float(v), ".12g")


def cmd_repr(model, args) -> int:
    ctx = context_for(model)
    n = model.n_outcomes
    samples = sorted(grid(n, args.grid))
    u_of = solve_utility_many(ctx, samples)

    header = [f"p{i}" for i in range(n)]
    probs = [[_in_repr(p) for p in x.probs] for x in samples]
    lines = (p + [_out_fmt(u)] for p, u in zip(probs, u_of))
    _write_csv(os.path.join(args.out, "U.csv"), header + ["U"], lines)

    levels = np.linspace(0.0, 1.0, args.t_grid)
    rows = np.repeat([x.probs for x in samples], len(levels), axis=0)
    u_xt = implicit_utility_many(ctx, rows, np.tile(levels, len(samples)))
    u_rows = u_xt.reshape(len(samples), len(levels))
    lines = (
        p + [_in_repr(t), _out_fmt(u)] for p, row in zip(probs, u_rows) for t, u in zip(levels, row)
    )
    _write_csv(os.path.join(args.out, "u.csv"), header + ["t", "u"], lines)

    gaps = np.abs(utility_fixed_point_many(ctx, samples) - u_of)
    summary = {
        "n_outcomes": n,
        "grid_resolution": args.grid,
        "t_grid_points": args.t_grid,
        "best": list(ctx.best.probs),
        "worst": list(ctx.worst.probs),
        "tol_t": ctx.tol_t,
        "max_iter": ctx.max_iter,
        "eps_pref": model.eps_pref,
        "max_fixed_point_gap": float(gaps.max()),
        "one_sided_limits": {
            f"vertex_{i}": one_sided_limits(ctx, degenerate(i, n)) for i in range(n)
        },
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    return 0


def cmd_check(model, args) -> int:
    samples = sorted(grid(model.n_outcomes, args.grid))
    if len(samples) < 3:
        _fail(f"check needs at least 3 grid lotteries, got {len(samples)}; raise --grid")
        return 2
    reports = run_all_checks(model, samples, LAMBDA_GRID, seed=args.seed)
    payload = {
        "grid_resolution": args.grid,
        "lambdas": list(LAMBDA_GRID),
        "seed": args.seed,
        "reports": reports,
    }
    _write_axioms(os.path.join(args.out, "axioms.json"), payload)
    failed = [report.axiom for report in reports if not report.passed]
    if failed:
        print(f"failed: {', '.join(failed)}")
        return 1
    print("all axiom checks passed")
    return 0


def cmd_triangle(model, args) -> int:
    if model.n_outcomes != 3:
        _fail(f"triangle needs a 3-outcome model, got {model.n_outcomes} outcomes")
        return 2
    ctx = context_for(model)
    curves = trace_level_curves(ctx, args.levels)
    lines = (
        [_in_repr(curve.level), *map(_out_fmt, (*point.probs, ex, ey))]
        for curve in curves
        for point, (ex, ey) in zip(curve.points, embed_coords(curve.points))
    )
    _write_csv(os.path.join(args.out, "curves.csv"), "level,p0,p1,p2,x,y".split(","), lines)
    _write_text(
        os.path.join(args.out, "triangle.svg"), render_svg(curves, ctx.best, ctx.worst)
    )
    for curve in curves:
        print(
            f"level {curve.level:g}: {len(curve.points)} points, "
            f"collinearity residual {collinearity_residual(curve.points):.3e}"
        )
    return 0


def _query_polytopes(ctx, simplex: Polytope, x) -> list[Polytope]:
    hull_of_x = Polytope(tuple(sorted((ctx.best, ctx.worst, x))))
    pulled = [mix(0.5, v, x) for v in simplex.vertices if v not in (ctx.best, ctx.worst)]
    widened = Polytope(tuple(sorted((ctx.best, ctx.worst, x, *pulled))))
    return [hull_of_x, simplex, widened]


def cmd_separation(model, args) -> int:
    ctx = context_for(model)
    n = model.n_outcomes
    simplex = Polytope(tuple(sorted(degenerate(i, n) for i in range(n))))
    grid_samples = sorted(grid(n, args.grid))
    queries = sorted(grid(n, 3))
    polytopes = [_query_polytopes(ctx, simplex, x) for x in queries]
    entries = []
    all_ok = True
    for t in args.levels:
        entry = {"level": t}
        try:
            base = contour_samples(ctx, t, simplex)
            audit = sorted({x.probs: x for x in [*base, *grid_samples]}.values())
            functional, check = separate(ctx, t, simplex, audit)
            entry["functional"] = functional.to_dict()
            entry["separation"] = check.to_dict()
            level_ok = check.passed
            if level_ok:
                results = cross_polytope_consistency_many(ctx, queries, t, polytopes)
                entry["cross_polytope"] = [result.to_dict() for result in results]
                entry["max_cross_discrepancy"] = max(0.0, *(r.max_discrepancy for r in results))
                level_ok = all(result.passed for result in results)
        except Infeasible as exc:
            entry["infeasible"] = str(exc)
            entry["certificate"] = exc.certificate.to_dict()
            level_ok = False
        entries.append(entry)
        all_ok = all_ok and level_ok
    payload = {
        "grid_resolution": args.grid,
        "levels": args.levels,
        "entries": entries,
    }
    _write_json(os.path.join(args.out, "separation.json"), payload)
    if not all_ok:
        print("separation audit failed")
        return 1
    print("separation audit passed")
    return 0


#: Each subcommand's function and its one-line description.
COMMANDS = {
    "repr": (cmd_repr, "tabulate U(x) and u(x, t) over a simplex grid"),
    "check": (cmd_check, "run the axiom checks and report counterexamples"),
    "triangle": (cmd_triangle, "trace indifference curves on 3 outcomes"),
    "separation": (cmd_separation, "audit the separating functionals per level"),
}


def build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:<12}{blurb}" for name, (_, blurb) in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="betweenu",
        description="Build and audit implicit mixture-linear utility representations.",
        epilog="commands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="the command to run (see below)")
    parser.add_argument("--model", required=True, help="path to a JSON model description")
    parser.add_argument("--grid", type=int, default=6, help="simplex grid resolution (default 6)")
    parser.add_argument(
        "--t-grid",
        type=int,
        default=11,
        dest="t_grid",
        help="number of uniform levels in [0, 1] for u(x, t) tables (default 11)",
    )
    parser.add_argument(
        "--levels",
        default="0.2,0.4,0.6,0.8",
        help="comma-separated utility levels for triangle/separation (default 0.2,0.4,0.6,0.8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for subsampled checks, >= 0 (default 0)"
    )
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    return parser


def _write_error(out: str, exc: BetweenuError) -> None:
    """Record a numeric failure in ``out/error.json``: its type, message and
    the attributes that locate it (see :mod:`betweenu.errors`).  The stderr
    line reports the failure, so the record prints nothing, and one that
    cannot be written is left out."""
    record = {"type": type(exc).__name__, "message": str(exc), **vars(exc)}
    with contextlib.suppress(OSError):
        _write_json(os.path.join(out, "error.json"), record, announce=False)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.grid < 1:
            raise ValueError(f"--grid must be >= 1, got {args.grid}")
        if args.t_grid < 2:
            raise ValueError(f"--t-grid must be >= 2, got {args.t_grid}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        args.levels = _parse_levels(args.levels)
        if args.command in ("triangle", "separation"):
            _interior_levels(args.levels)
        model = load_model(args.model)
    except (OSError, ValueError) as exc:
        _fail(str(exc))
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command][0](model, args)
    except BetweenuError as exc:
        _fail(f"{type(exc).__name__}: {exc}")
        _write_error(args.out, exc)
        return 3
    except OSError as exc:
        _fail(str(exc))
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
