"""Command-line frontend: ``synspec <command> ...``.

Every command reads/writes the JSON schemas of the library types, prints a
one-line summary, and maps failures onto fixed exit codes:
0 success, 1 verification/hypothesis failure, 2 invalid input, 3 resource
cap exceeded.  Structured error names go to stderr.  ``main`` may be called
many times in one process; all calls share one parser, built on the first.
Importing this module loads no scipy: only ``hausdorff``, ``holes``,
``index-check`` and the ``containment``, ``uniqueness`` and ``bricks``
suites of ``verify`` import it, on first use.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InvalidInputError, SynspecError
from .io_json import dump_canonical
from .obstructions import (
    bott_index,
    index_hypothesis_check,
    joint_diagonalize,
    spin_triple,
)
from .operator_core import OperatorTuple, random_almost_commuting
from .region_geometry import BrickSet, region_topology
from .symbol_models import SymbolOperator, parse_power
from .synthetic_spectrum import (
    BallUnion,
    DEFAULT_GRID_CAP,
    hausdorff_distance,
    synthetic_spectrum,
)
from .verify import run_suite


def _load_json(path: str) -> dict:
    """The JSON object in a file; InvalidInputError if none can be read."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError("no such file: %s" % path)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and over-long integers
        raise InvalidInputError("cannot read JSON from %s: %s" % (path, exc))
    if not isinstance(obj, dict):
        raise InvalidInputError("%s does not hold a JSON object" % path)
    return obj


def _write(build, path: str | None):
    """Dump the document ``build()`` to path; nothing is built without one."""
    if path:
        dump_canonical(build(), path)


def _load_region(path: str):
    obj = _load_json(path)
    if "centers" in obj:
        return BallUnion.from_json(obj)
    if "corners" in obj:
        return BrickSet.from_json(obj)
    raise InvalidInputError("region JSON needs 'centers' or 'corners'")


def _cmd_gen(args) -> int:
    if args.kind == "spin-triple":
        T = spin_triple(args.j)
        _write(T.to_json, args.out)
        print("gen spin-triple: j=%g dim=%d -> %s" % (args.j, T.dim, args.out))
    elif args.kind == "random":
        T = random_almost_commuting(args.n, args.dim, args.delta, args.seed,
                                    exact=args.exact)
        _write(T.to_json, args.out)
        print("gen random: n=%d dim=%d delta=%g seed=%d -> %s"
              % (args.n, args.dim, args.delta, args.seed, args.out))
    else:  # symbol
        if args.shift:
            op = SymbolOperator.shift()
        else:
            if not args.coeff:
                raise InvalidInputError("give --shift or at least one --coeff")
            coeffs = {}
            for spec in args.coeff:
                try:
                    m, val = spec.split("=", 1)
                    parts = [float(x) for x in val.split(",")]
                    if len(parts) > 2:
                        raise ValueError
                    coeffs[parse_power(m)] = complex(*parts)
                except ValueError:
                    raise InvalidInputError(
                        "bad --coeff %r (expected m=re[,im])" % spec
                    )
            op = SymbolOperator(coeffs)
        _write(op.to_json, args.out)
        print("gen symbol: bandwidth=%d -> %s" % (op.bandwidth, args.out))
    return 0


def _cmd_sspec(args) -> int:
    T = OperatorTuple.from_json(_load_json(args.input))
    region = synthetic_spectrum(T, args.eta, grid_cap=args.grid_cap)
    _write(region.to_json, args.out)
    print("sspec: eta=%g k=%d centers=%d -> %s"
          % (args.eta, region.grid.k, region.centers.shape[0], args.out))
    return 0


def _cmd_hausdorff(args) -> int:
    A = BallUnion.from_json(_load_json(args.a))
    B = BallUnion.from_json(_load_json(args.b))
    d = hausdorff_distance(A, B, args.resolution)
    _write(lambda: {"hausdorff": d, "resolution": args.resolution},
           args.out)
    print("hausdorff: %.6g (resolution %g)" % (d, args.resolution))
    return 0


def _cmd_holes(args) -> int:
    R = _load_region(args.input)
    topo = region_topology(R, args.resolution)
    _write(topo.to_json, args.out)
    print("holes: components=%d holes=%d"
          % (topo.component_count, len(topo.holes)))
    return 0


def _cmd_index_check(args) -> int:
    op = SymbolOperator.from_json(_load_json(args.symbol))
    report = index_hypothesis_check(op, args.eta)
    _write(report.to_json, args.out)
    print("index-check: holes=%d verdict=%s"
          % (len(report.holes), "pass" if report.verdict else "fail"))
    return 0 if report.verdict else 1


def _cmd_bott(args) -> int:
    T = OperatorTuple.from_json(_load_json(args.input))
    if T.n != 3:
        raise InvalidInputError("bott needs a triple (n=3)")
    report = bott_index(*T.ops)
    _write(report.to_json, args.out)
    print("bott: value=%+d gap=%.6g bound=%.6g"
          % (report.value, report.gap, report.bound))
    return 0


def _cmd_approx(args) -> int:
    T = OperatorTuple.from_json(_load_json(args.input))
    report = joint_diagonalize(T, max_sweeps=args.max_sweeps)
    _write(report.to_json, args.out)
    print("approx: sweeps=%d stop=%s max_distance=%.6g residual=%.3g"
          % (report.sweeps, report.stop_reason, report.max_distance,
             report.off_diag_residual))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, trials=args.trials, seed=args.seed)
    _write(lambda: report, args.out)
    for prop in report["properties"]:
        print("  [%s] %s" % ("pass" if prop["passed"] else "FAIL",
                             prop["name"]))
    print("verify %s: %s" % (args.suite,
                             "all pass" if report["all_passed"] else "FAILED"))
    return 0 if report["all_passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser, built on first call; callers must not mutate it."""
    p = argparse.ArgumentParser(prog="synspec",
                                description="synthetic-spectrum toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate inputs")
    gsub = g.add_subparsers(dest="kind", required=True)
    gs = gsub.add_parser("spin-triple")
    gs.add_argument("--j", type=float, required=True)
    gs.add_argument("--out", required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--dim", type=int, required=True)
    gr.add_argument("--delta", type=float, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--exact", action="store_true")
    gr.add_argument("--out", required=True)
    gy = gsub.add_parser("symbol")
    gy.add_argument("--shift", action="store_true")
    gy.add_argument("--coeff", action="append",
                    help="m=re[,im]; repeatable; a negative power m is "
                         "written --coeff=-1=0.5")
    gy.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("sspec", help="compute a synthetic spectrum")
    s.add_argument("--input", required=True)
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("--grid-cap", type=int, default=DEFAULT_GRID_CAP)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_sspec)

    h = sub.add_parser("hausdorff", help="distance between ball unions")
    h.add_argument("--a", required=True)
    h.add_argument("--b", required=True)
    h.add_argument("--resolution", type=float, required=True)
    h.add_argument("--out")
    h.set_defaults(fn=_cmd_hausdorff)

    o = sub.add_parser("holes", help="planar components and holes")
    o.add_argument("--input", required=True)
    o.add_argument("--resolution", type=float, required=True)
    o.add_argument("--out")
    o.set_defaults(fn=_cmd_holes)

    ic = sub.add_parser("index-check", help="index-vanishing hypothesis")
    ic.add_argument("--symbol", required=True)
    ic.add_argument("--eta", type=float, required=True)
    ic.add_argument("--out")
    ic.set_defaults(fn=_cmd_index_check)

    b = sub.add_parser("bott", help="triple obstruction certificate")
    b.add_argument("input")
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bott)

    a = sub.add_parser("approx", help="commuting approximant")
    a.add_argument("--input", required=True)
    a.add_argument("--max-sweeps", type=int, default=200)
    a.add_argument("--out")
    a.set_defaults(fn=_cmd_approx)

    v = sub.add_parser("verify", help="property suites")
    v.add_argument("--suite", required=True)
    v.add_argument("--trials", type=int, default=50)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")
    v.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SynspecError as exc:
        print("%s: %s" % (exc.name, exc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
