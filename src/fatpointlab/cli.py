"""Command-line laboratory: instance generation, batch verification,
partition certificates, and example reproduction.

Exit codes: 0 = all checks passed; 1 = a verified failure; 2 = usage or
parse error; 3 = some checks skipped (none failed): a size guard tripped
(``GuardExceeded``: ``FLAT_ENUMERATION_GUARD`` on the Segre bound's flat
enumeration, which main-theorem and cardinality need, past 24 support
points; ``MODIFIED_BOUND_GUARD`` on the modified bound past 12;
``CONDITIONS_MATRIX_GUARD`` on any conditions matrix of more than 10^7
cells) or a check needs two points and the scheme has one; 4 = partition
infeasible (the witness subset is emitted instead of a certificate).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .exact import GuardExceeded, InternalError
from .instances import (
    InstanceError,
    canonical_json,
    field_from_descriptor,
    load_instance,
    scheme_from_dict,
    scheme_to_dict,
    vector_matroid_from_dict,
    vectors_to_dict,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SKIPPED = 3
EXIT_INFEASIBLE = 4


def _write_output(data, out, fmt):
    if fmt == "json":
        text = canonical_json(data)
    elif fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in sorted(_flatten(data)):
            writer.writerow([key, value])
        text = buf.getvalue()
    else:
        lines = ["%-40s %s" % (k, v) for k, v in sorted(_flatten(data))]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(data, prefix=""):
    if isinstance(data, dict):
        for k, v in data.items():
            yield from _flatten(v, "%s%s." % (prefix, k))
    elif isinstance(data, list):
        yield prefix.rstrip("."), json.dumps(data)
    else:
        yield prefix.rstrip("."), data


def _add_common(parser):
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=["json", "csv", "table"], default="json")


def _add_seed_and_field(parser):
    """The options of the commands that draw or build an instance."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--field", default="rational", help="rational or prime:p")


def cmd_gen(args):
    from .generators import (
        collinear_cluster_points,
        five_plus_generic_scheme,
        generic_line_configuration,
        generic_points,
        rational_normal_curve_scheme,
        rng_from_seed,
    )
    from .schemes import FatPointScheme

    field = field_from_descriptor(args.field)
    rng = rng_from_seed(args.seed)
    kind = args.kind
    if kind == "generic":
        pts = generic_points(rng, args.n, args.s, field=field)
        x = FatPointScheme(field, args.n, [(p, args.mult) for p in pts])
        data = scheme_to_dict(x, seed=args.seed, generator="generic")
    elif kind == "collinear-cluster":
        pts = collinear_cluster_points(rng, args.n, args.s, args.extra, field=field)
        x = FatPointScheme(field, args.n, [(p, args.mult) for p in pts])
        data = scheme_to_dict(x, seed=args.seed, generator="collinear-cluster")
    elif kind == "rational-normal-curve":
        x = rational_normal_curve_scheme(args.n, [args.mult] * args.s, field=field)
        data = scheme_to_dict(x, seed=args.seed, generator="rational-normal-curve")
    elif kind == "example-2.8":
        m = generic_line_configuration(args.t, args.k - args.p, seed=args.seed, field=field)
        vectors = [m.matrix.column(j) for j in range(m.matrix.ncols)]
        data = vectors_to_dict(
            field, vectors, seed=args.seed, generator="example-2.8",
            k=args.k, p=args.p, t=args.t,
        )
    elif kind == "example-5.6-scaled":
        x = five_plus_generic_scheme(rng, args.n, args.d, args.mult, field=field)
        data = scheme_to_dict(x, seed=args.seed, generator="example-5.6-scaled")
    else:
        raise InstanceError("unknown kind %r" % (kind,))
    _write_output(data, args.out, args.format)
    return EXIT_OK


CHECK_NAMES = ["main-theorem", "cardinality", "ctv", "veronese", "modified"]


# checks that are not defined on a single point, and what they report there
NEEDS_TWO_POINTS = {
    "ctv": "ctv check needs at least two points",
    "modified": "modified bound needs at least two support points",
}


def _run_checks(x, checks, d):
    """Run the named checks; only a size-guard trip (``GuardExceeded``) or a
    single-point scheme for a check that needs two points is reported as
    skipped.  Any other ``ValueError`` propagates (exit 2)."""
    from .bounds import cardinality_estimate_check, modified_bound, verify_main_theorem
    from .schemes import ctv_decomposition_check, regularity_index, veronese_inequality_check

    results = {}
    for name in checks:
        if name in NEEDS_TWO_POINTS and x.support_size < 2:
            results[name] = {"skipped": NEEDS_TWO_POINTS[name]}
            continue
        try:
            if name == "main-theorem":
                report = verify_main_theorem(x)
                results[name] = {"pass": report.verdict, **report.to_dict()}
            elif name == "cardinality":
                verdict = cardinality_estimate_check(x)
                results[name] = {"pass": verdict.ok, "segre": verdict.segre}
            elif name == "ctv":
                verdict = ctv_decomposition_check(x)
                results[name] = {
                    "pass": verdict.ok,
                    "reg_index": verdict.reg_index,
                    "formula_value": verdict.formula_value,
                }
            elif name == "veronese":
                verdict = veronese_inequality_check(x, d)
                results[name] = {
                    "pass": verdict.ok,
                    "reg_index": verdict.reg_index,
                    "lifted_reg_index": verdict.lifted_reg_index,
                }
            elif name == "modified":
                value, witness = modified_bound(x, d)
                r = regularity_index(x)
                results[name] = {
                    "pass": r <= value,
                    "value": value,
                    "reg_index": r,
                    "witness": sorted(witness.witness_subset),
                }
        except GuardExceeded as exc:
            results[name] = {"skipped": str(exc)}
    return results


def cmd_verify(args):
    data = load_instance(args.instance)
    if data.get("kind") != "scheme":
        raise InstanceError("verify expects a scheme instance")
    x = scheme_from_dict(data)
    checks = args.checks.split(",") if args.checks else CHECK_NAMES
    for name in checks:
        if name not in CHECK_NAMES:
            raise InstanceError("unknown check %r" % (name,))
    results = _run_checks(x, checks, args.d)
    passed = sum(1 for r in results.values() if r.get("pass") is True)
    failed = sum(1 for r in results.values() if r.get("pass") is False)
    skipped = sum(1 for r in results.values() if "skipped" in r)
    report = {
        "tool_version": __version__,
        "seed": data.get("seed"),
        "instance": args.instance,
        "checks": results,
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
    }
    _write_output(report, args.out, args.format)
    if failed:
        return EXIT_FAIL
    return EXIT_SKIPPED if skipped else EXIT_OK


def cmd_partition(args):
    from .partition import (
        AvoidanceProblem,
        InfeasibilityWitness,
        avoidance_partition,
        edmonds_partition,
    )

    data = load_instance(args.instance)
    if data.get("kind") == "scheme":
        from .matroid import fat_point_vector_matroid

        matroid = fat_point_vector_matroid(scheme_from_dict(data))
    else:
        matroid = vector_matroid_from_dict(data)
    if args.mode == "edmonds":
        result = edmonds_partition(matroid, args.k)
    else:
        pinned = [int(v) for v in args.pinned.split(",")] if args.pinned else []
        tail = [int(v) for v in args.tail.split(",")] if args.tail else []
        problem = AvoidanceProblem(
            matroid, frozenset(matroid.elements), args.k, args.p,
            pinned=tuple(pinned), tail=tuple(tail),
        )
        result = avoidance_partition(problem)
    if isinstance(result, InfeasibilityWitness):
        _write_output(
            {"tool_version": __version__, "infeasible": True, **result.to_dict()},
            args.out, args.format,
        )
        return EXIT_INFEASIBLE
    if not result.verify():
        raise InternalError("partition certificate failed verification")
    _write_output(
        {"tool_version": __version__, "infeasible": False, **result.to_dict()},
        args.out, args.format,
    )
    return EXIT_OK


# the options each scenario reads; it refuses the others
REPRODUCE_OPTIONS = {
    "2.8": ("seed",),
    "4.6-sharpness": (),
    "5.4-veronese": ("field",),
    "5.6-generic": ("seed",),
}


def cmd_reproduce(args):
    for option in ("seed", "field"):
        if getattr(args, option) is not None and option not in REPRODUCE_OPTIONS[args.example_id]:
            raise InstanceError("reproduce %s does not take --%s" % (args.example_id, option))
    seed = 0 if args.seed is None else args.seed
    results = {}
    ok = True
    if args.example_id == "2.8":
        from .partition import verify_partition_optimality_example

        verdict = verify_partition_optimality_example(4, 3, 1, seed=seed)
        ok = verdict.confirmed
        results = {
            "hypothesis_holds": verdict.hypothesis_holds,
            "qualifying_set_exists": verdict.qualifying_set is not None,
            "ground_size": verdict.ground_size,
            "rank": verdict.rank,
        }
    elif args.example_id == "4.6-sharpness":
        from .bounds import rational_normal_curve_sharpness

        configs = [(2, (2, 2, 2)), (3, (1, 1, 1, 1, 1, 1)), (1, (2, 3))]
        for n, mults in configs:
            report = rational_normal_curve_sharpness(mults, n)
            key = "n%d_m%s" % (n, "".join(map(str, mults)))
            results[key] = {
                "hypothesis_met": report.hypothesis_met,
                "reg_index": report.report.reg_index,
                "segre": report.report.segre,
            }
            ok = ok and report.hypothesis_met and report.report.sharp
    elif args.example_id == "5.4-veronese":
        from .generators import rational_normal_curve_points
        from .schemes import FatPointScheme, veronese_inequality_check

        field = field_from_descriptor(args.field or "rational")
        pts = rational_normal_curve_points(1, 3, field=field)
        x = FatPointScheme(field, 1, [(p, 1) for p in pts])
        verdict = veronese_inequality_check(x, 2)
        ok = verdict.ok and verdict.lifted_reg_index == 1
        results = {
            "reg_index": verdict.reg_index,
            "lifted_reg_index": verdict.lifted_reg_index,
            "equality_case": verdict.equality_case,
        }
    elif args.example_id == "5.6-generic":
        from .bounds import reproduce_generic_example

        report = reproduce_generic_example(seed=seed)
        ok = report.sound
        results = {
            "reg_index": report.reg_index,
            "segre": report.segre,
            "modified": report.modified,
            "improved": report.improved,
        }
    _write_output(
        {"tool_version": __version__, "seed": seed,
         "example": args.example_id, "pass": ok, "results": results},
        args.out, args.format,
    )
    return EXIT_OK if ok else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fatpointlab",
        description="Exact laboratory for fat point regularity bounds and matroid partitions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--kind", required=True, choices=[
        "generic", "collinear-cluster", "rational-normal-curve",
        "example-2.8", "example-5.6-scaled",
    ])
    gen.add_argument("--n", type=int, default=2, help="ambient dimension")
    gen.add_argument("--s", type=int, default=5, help="number of points")
    gen.add_argument("--mult", type=int, default=1, help="multiplicity per point")
    gen.add_argument("--extra", type=int, default=0, help="extra off-line points (collinear-cluster)")
    gen.add_argument("--d", type=int, default=2, help="degree parameter (example-5.6-scaled)")
    gen.add_argument("--t", type=int, default=4, help="number of lines (example-2.8)")
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--p", type=int, default=1)
    _add_seed_and_field(gen)
    _add_common(gen)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="run checks on an instance")
    verify.add_argument("instance")
    verify.add_argument("--checks", default=None, help="comma list: %s" % ",".join(CHECK_NAMES))
    verify.add_argument("--d", type=int, default=2, help="degree for veronese/modified checks")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)

    part = sub.add_parser("partition", help="emit a partition certificate")
    part.add_argument("instance")
    part.add_argument("--mode", choices=["edmonds", "avoidance"], default="edmonds")
    part.add_argument("--k", type=int, required=True)
    part.add_argument("--p", type=int, default=0)
    part.add_argument("--pinned", default=None, help="comma list of element ids")
    part.add_argument("--tail", default=None, help="comma list of element ids")
    _add_common(part)
    part.set_defaults(func=cmd_partition)

    rep = sub.add_parser("reproduce", help="re-run a documented scenario")
    rep.add_argument("example_id", choices=list(REPRODUCE_OPTIONS))
    _add_seed_and_field(rep)
    # None marks an option not given, which a scenario that does not read it accepts
    rep.set_defaults(seed=None, field=None)
    _add_common(rep)
    rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
