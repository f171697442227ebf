"""Command-line interface: parse system files, dispatch verifications and
valuations, and emit deterministic JSON reports.

Reports carry a schema marker and echo the command, arguments, tolerance,
and any universe parameters, so identical inputs and configuration produce
byte-identical output.  Wall-clock timing is emitted only behind --timing,
keeping default reports reproducible.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional

import numpy as np

from . import selftest as selftest_mod
from .classical import (E_s_valuation, classical_truth,
                        generalized_classical_valuation)
from .context import (RaySet, closure_rays, context_truth_equal, is_full, polar_of_rays,
                      polar_of_strings, sieve_truth_equal, sieve_valuation)
from .dsl import (ParseResult, SystemSpec, parse_name_group, parse_spec, parse_value_set,
                  pretty_print)
from .errors import ContextError, MonoidToposError
from .linalg import DEFAULT_TOL, TolerancePolicy
from .monoid import enumerate_left_ideals, heyting_report
from .mset import truth_equal, truth_in_invariant, truth_in_subset, truth_subset_leq
from .quantum import E_psi_valuation_via_arrow, quantum_function_valuation
from .reduction import (truth_ray_equal_strings, valuation_density, valuation_ray,
                        valuation_vector)

SCHEMA_VERSION = 1


def _round12(x: float) -> float:
    v = round(float(x), 12)
    return 0.0 if v == 0.0 else v


def complex_payload(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


def vector_payload(v) -> list[list[float]]:
    return [complex_payload(z) for z in np.asarray(v).reshape(-1)]


def ideal_payload(ideal) -> dict:
    return {
        "members": list(ideal.member_names()),
        "member_count": len(ideal),
        "monoid_size": ideal.monoid.size,
        "is_full": ideal.is_full,
        "is_empty": ideal.is_empty,
    }


def bounded_ideal_payload(ideal) -> dict:
    return {
        "members": [list(q) for q in ideal.members],
        "member_count": ideal.member_count(),
        "certificate": ideal.certificate,
    }


def strings_payload(strings) -> list[list[str]]:
    return [list(q) for q in strings]


def rayset_payload(rays: RaySet) -> list[list[list[float]]]:
    return [vector_payload(r.representative) for r in rays]


class CliError(MonoidToposError):
    pass


def _load_spec(path: str, eps: Optional[float],
               null_threshold: Optional[float]) -> tuple[Optional[SystemSpec], list]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return None, [{"line": 0, "col": 0, "message": f"cannot read {path}: {exc}"}]
    result: ParseResult = parse_spec(text, eps, null_threshold)
    if result.spec is None:
        return None, [d.to_payload() for d in result.diagnostics]
    return result.spec, []


def _check_limits(spec: SystemSpec, args) -> None:
    if args.depth < 0:
        raise CliError(f"--depth must be non-negative, got {args.depth}")
    for name, rq in sorted(spec.quantum.items()):
        if rq.system.dim > args.max_dim:
            raise CliError(f"quantum system {name!r} has dimension {rq.system.dim}, "
                           f"above --max-dim {args.max_dim}")


def _need(args, mode: str, *flags: str) -> None:
    """Raise a CliError naming the first flag that this mode needs and did not get."""
    for flag in flags:
        if getattr(args, flag) is None:
            raise CliError(f"{mode} needs --{flag}")


def _quantum(spec: SystemSpec, name: str):
    return spec.lookup(spec.quantum, name, "quantum system")


def _rayset_over(spec: SystemSpec, name: str, system: str, where: str) -> RaySet:
    """The ray set ``name``, checked to be declared over ``system``, named
    by ``where``.  A non-empty ray set of another dimension is left to the
    context functions, whose error names both dimensions."""
    owner, rays = spec.rayset(name)
    if owner != system and not (len(rays) and rays.dim != _quantum(spec, system).system.dim):
        raise ContextError(f"ray set {name!r} is over system {owner!r}, "
                           f"but {where} is {system!r}")
    return rays


def _universe_rays(spec: SystemSpec, universe: str, name: str) -> RaySet:
    """The ray set ``name``, checked to be declared over the universe's system."""
    system = spec.lookup(spec.universes, universe, "universe").system
    return _rayset_over(spec, name, system, f"the system of universe {universe!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (result_payload, universe_payload)


def cmd_parse(spec: SystemSpec, args) -> tuple[dict, None]:
    return {
        "declarations": {
            "monoids": sorted(spec.monoids),
            "msets": sorted(spec.msets),
            "classical": sorted(spec.classical),
            "quantum": sorted(spec.quantum),
            "raysets": sorted(spec.raysets),
            "universes": sorted(spec.universes),
            "queries": sorted(spec.queries),
        },
        "pretty": pretty_print(spec),
    }, None


def cmd_verify_heyting(spec: SystemSpec, args) -> tuple[dict, None]:
    monoid = spec.lookup(spec.monoids, args.monoid, "monoid")
    report = heyting_report(monoid)
    report["ideals"] = [list(names) for names in report["ideals"]]
    report["excluded_middle_failures"] = [
        list(names) for names in report["excluded_middle_failures"]]
    return report, None


def cmd_enumerate_ideals(spec: SystemSpec, args) -> tuple[dict, None]:
    monoid = spec.lookup(spec.monoids, args.monoid, "monoid")
    ideals = enumerate_left_ideals(monoid)
    return {"count": len(ideals),
            "ideals": [list(i.member_names()) for i in ideals]}, None


def cmd_truth(spec: SystemSpec, args) -> tuple[dict, None]:
    mset = spec.lookup(spec.msets, args.mset, "mset")

    def int_set(text):
        values = parse_value_set(text)
        if not all(v.is_integer() for v in values):
            raise CliError(f"subset {text!r} has an entry that is not a point index")
        return frozenset(int(v) for v in values)

    if args.kind == "invariant":
        ideal = truth_in_invariant(mset, args.point, int_set(args.subset))
    elif args.kind == "subset":
        ideal = truth_in_subset(mset, args.point, int_set(args.subset))
    elif args.kind == "leq":
        ideal = truth_subset_leq(mset, int_set(args.subset), int_set(args.subset2))
    else:   # "equal": argparse's choices admit no other kind
        ideal = truth_equal(mset, args.point, args.point2)
    return {"ideal": ideal_payload(ideal)}, None


def cmd_valuate_classical(spec: SystemSpec, args) -> tuple[dict, None]:
    system = spec.lookup(spec.classical, args.system, "classical system")
    delta = parse_value_set(args.range)
    plain = classical_truth(system, args.state, args.quantity, delta)
    ideal = generalized_classical_valuation(system, args.state, args.quantity, delta)
    result = {"either_or": plain, "ideal": ideal_payload(ideal)}
    if args.check_arrow:
        arrow = E_s_valuation(system, args.state, args.quantity, delta)
        result["arrow_ideal"] = ideal_payload(arrow)
        result["routes_agree"] = arrow.mask == ideal.mask
    return result, None


def cmd_valuate_quantum(spec: SystemSpec, args) -> tuple[dict, None]:
    rq = _quantum(spec, args.system)
    delta = parse_value_set(args.range)
    psi = rq.state(args.state)
    ideal = quantum_function_valuation(rq.system, psi, args.op, delta)
    result = {"ideal": ideal_payload(ideal)}
    if args.check_arrow:
        arrow = E_psi_valuation_via_arrow(rq.system, psi, args.op, delta)
        result["arrow_ideal"] = ideal_payload(arrow)
        result["routes_agree"] = arrow.mask == ideal.mask
    return result, None


def _letters_or_default(spec: SystemSpec, args) -> tuple[str, ...]:
    if args.alphabet:
        return parse_name_group(args.alphabet)
    rq = _quantum(spec, args.system)
    if not rq.projectors:
        raise CliError(f"system {args.system!r} declares no projectors")
    return tuple(rq.projectors)


def cmd_valuate(spec: SystemSpec, args) -> tuple[dict, dict]:
    rq = _quantum(spec, args.system)
    delta = parse_value_set(args.range)
    rq.system.range_indices(delta)
    letters = _letters_or_default(spec, args)
    alphabet = spec.alphabet_for(args.system, letters)
    op = rq.system.operator(args.op)
    depth = args.depth
    universe = {"alphabet": list(letters), "depth": depth}
    _need(args, f"valuate --mode {args.mode}", "density" if args.mode == "density" else "state")
    if args.mode == "vector":
        ideal = valuation_vector(alphabet, rq.state(args.state), op, delta, depth)
    elif args.mode == "ray":
        ideal = valuation_ray(alphabet, rq.state(args.state), op, delta, depth)
    else:   # "density": argparse's choices admit no other mode
        rho = spec.lookup(rq.densities, args.density, "density")
        ideal = valuation_density(alphabet, rho, op, delta, depth)
    return {"ideal": bounded_ideal_payload(ideal)}, universe


def cmd_equal(spec: SystemSpec, args) -> tuple[dict, Optional[dict]]:
    rq = _quantum(spec, args.system)
    psi = rq.state(args.state1)
    phi = rq.state(args.state2)
    if args.mode == "sp":
        letters = _letters_or_default(spec, args)
        alphabet = spec.alphabet_for(args.system, letters)
        ideal = truth_ray_equal_strings(alphabet, psi, phi, args.depth)
        return ({"ideal": bounded_ideal_payload(ideal)},
                {"alphabet": list(letters), "depth": args.depth})
    if args.mode == "context":
        _need(args, "equal --mode context", "universe", "rayset")
        universe = spec.universe(args.universe)
        _rayset_over(spec, args.rayset, args.system, "--system")
        xi = _universe_rays(spec, args.universe, args.rayset)
        accepted = context_truth_equal(psi, phi, xi, universe)
        return ({"strings": strings_payload(accepted)},
                _universe_payload(spec, args.universe))
    # "sieve": argparse's choices admit no other mode
    _need(args, "equal --mode sieve", "context")
    context = parse_name_group(args.context)
    alphabet = spec.alphabet_for(args.system, tuple(dict.fromkeys(context)))
    sieve = sieve_truth_equal(alphabet, psi, phi, context)
    return {"sieve": sieve.to_payload()}, None


def _universe_payload(spec: SystemSpec, name: str) -> dict:
    decl = spec.universes[name]
    return {"name": name, "alphabet": list(decl.alphabet), "depth": decl.depth}


def cmd_polar(spec: SystemSpec, args) -> tuple[dict, dict]:
    universe = spec.universe(args.universe)
    if args.rayset and not args.strings:
        xi = _universe_rays(spec, args.universe, args.rayset)
        strings = polar_of_rays(xi, universe)
        return {"strings": strings_payload(strings)}, _universe_payload(spec, args.universe)
    if args.strings:
        _need(args, "polar --strings", "candidates")
        subset = [tuple(parse_name_group(part)) for part in args.strings.split(";") if part.strip()]
        candidates = _universe_rays(spec, args.universe, args.candidates)
        rays = polar_of_strings(universe, subset, candidates)
        return ({"rays": rayset_payload(rays), "candidates": args.candidates},
                _universe_payload(spec, args.universe))
    raise CliError("polar needs --rayset or --strings")


def cmd_closure(spec: SystemSpec, args) -> tuple[dict, dict]:
    universe = spec.universe(args.universe)
    xi = _universe_rays(spec, args.universe, args.rayset)
    candidates = _universe_rays(spec, args.universe, args.candidates)
    closed = closure_rays(xi, universe, candidates)
    return ({
        "closure": rayset_payload(closed),
        "is_full": is_full(xi, universe, candidates),
    }, _universe_payload(spec, args.universe))


def cmd_sieve(spec: SystemSpec, args) -> tuple[dict, None]:
    rq = _quantum(spec, args.system)
    context = parse_name_group(args.context)
    alphabet = spec.alphabet_for(args.system, tuple(dict.fromkeys(context)))
    psi = rq.state(args.state)
    if args.state2:
        sieve = sieve_truth_equal(alphabet, psi, rq.state(args.state2), context)
    else:
        _need(args, "sieve without --state2", "op", "range")
        op = rq.system.operator(args.op)
        delta = parse_value_set(args.range)
        rq.system.range_indices(delta)
        sieve = sieve_valuation(alphabet, psi, op, delta, context)
    return {"sieve": sieve.to_payload()}, None


def cmd_query(spec: SystemSpec, args) -> tuple[dict, Optional[dict]]:
    entries = spec.lookup(spec.queries, args.name, "query")
    if "run" not in entries:
        raise CliError(f"query {args.name!r} has no 'run' entry")
    run = entries["run"]
    argv = [run]
    if args.file:
        argv.append(args.file)
    for key, value in entries.items():
        if key == "run":
            continue
        argv.append(f"--{key.replace('_', '-')}")
        argv.append(value)
    # argparse reports entries it rejects by printing and exiting; they
    # come from the file, so they end in an error report instead.
    printed = io.StringIO()
    try:
        with redirect_stdout(printed), redirect_stderr(printed):
            sub_args = build_parser().parse_args(argv + ["--seed", str(args.seed)])
    except SystemExit:
        reason = printed.getvalue().strip().splitlines()[-1]
        raise CliError(f"query {args.name!r} does not parse: {reason}") from None
    # The file is already resolved at one tolerance; a query cannot change it.
    if sub_args.tol is not None or sub_args.null_threshold is not None:
        raise CliError(f"query {args.name!r} sets a tolerance; set it in the file's "
                       "tolerance block or on the command line")
    _check_limits(spec, sub_args)
    return sub_args.handler(spec, sub_args)


# ---------------------------------------------------------------------------
# Wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float,
                        help="comparison tolerance eps (default: the file's "
                             "tolerance block, else 1e-9)")
    common.add_argument("--null-threshold", type=float,
                        help="norm below which a vector counts as null (default: "
                             "the file's tolerance block, else 1e-9)")
    common.add_argument("--depth", type=int, default=4,
                        help="string verification depth")
    common.add_argument("--max-dim", type=int, default=16)
    common.add_argument("--seed", type=int, default=2027)
    common.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")

    parser = argparse.ArgumentParser(prog="monoidtopos",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, needs_file=True, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        if needs_file:
            p.add_argument("file", help="system definition file")
        p.set_defaults(handler=handler)
        return p

    add("parse", cmd_parse, help="validate a definition file")

    p = add("verify-heyting", cmd_verify_heyting, help="check the ideal algebra laws")
    p.add_argument("monoid")

    p = add("enumerate-ideals", cmd_enumerate_ideals, help="list all left ideals")
    p.add_argument("monoid")

    p = add("truth", cmd_truth, help="point-level truth values in an mset")
    p.add_argument("--mset", required=True)
    p.add_argument("--kind", required=True, choices=["invariant", "subset", "leq", "equal"])
    p.add_argument("--point", type=int, default=0)
    p.add_argument("--point2", type=int, default=0)
    p.add_argument("--subset", default="{}")
    p.add_argument("--subset2", default="{}")

    p = add("valuate-classical", cmd_valuate_classical, help="classical coarse-grained valuation")
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--quantity", required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--check-arrow", action="store_true")

    p = add("valuate-quantum", cmd_valuate_quantum, help="function-monoid quantum valuation")
    p.add_argument("--system", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--check-arrow", action="store_true")

    p = add("valuate", cmd_valuate, help="projector-string reduction valuation")
    p.add_argument("--system", required=True)
    p.add_argument("--state")
    p.add_argument("--density")
    p.add_argument("--op", required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--alphabet", help="defaults to every declared projector")
    p.add_argument("--mode", default="ray", choices=["vector", "ray", "density"])

    p = add("equal", cmd_equal, help="partial equality of two states")
    p.add_argument("--system", required=True)
    p.add_argument("--state1", required=True)
    p.add_argument("--state2", required=True)
    p.add_argument("--mode", default="sp", choices=["sp", "context", "sieve"])
    p.add_argument("--alphabet")
    p.add_argument("--universe")
    p.add_argument("--rayset")
    p.add_argument("--context")

    p = add("polar", cmd_polar, help="polar of a ray set or of strings")
    p.add_argument("--universe", required=True)
    p.add_argument("--rayset")
    p.add_argument("--strings")
    p.add_argument("--candidates")

    p = add("closure", cmd_closure, help="double polar and fullness")
    p.add_argument("--universe", required=True)
    p.add_argument("--rayset", required=True)
    p.add_argument("--candidates", required=True)

    p = add("sieve", cmd_sieve, help="sieve-valued contextual truth")
    p.add_argument("--system", required=True)
    p.add_argument("--context", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--state2")
    p.add_argument("--op")
    p.add_argument("--range")

    p = add("query", cmd_query, help="run a query declared in the file")
    p.add_argument("name")

    p = sub.add_parser("selftest", parents=[common],
                       help="deterministic verification battery")
    p.set_defaults(handler=None, file=None)

    return parser


def _emit(payload: dict, pretty: bool) -> str:
    if pretty:
        return _pretty_text(payload)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _pretty_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_pretty_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_pretty_text(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # An explicit flag takes precedence over the file's tolerance block,
    # which takes precedence over the default.
    eps = DEFAULT_TOL.eps if args.tol is None else args.tol
    null = DEFAULT_TOL.null_threshold if args.null_threshold is None else args.null_threshold
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "tolerance": {"eps": eps, "null_threshold": null},
        "universe": None,
    }
    code = 0
    try:
        tolerance = TolerancePolicy(eps, null)  # rejects bad flags before the file is read
        if args.command == "selftest":
            result = selftest_mod.run_selftest(seed=args.seed, tolerance=tolerance)
            report["result"] = result
            report["status"] = "ok" if result["all_passed"] else "failed"
            code = 0 if result["all_passed"] else 1
        else:
            spec, diagnostics = _load_spec(args.file, args.tol, args.null_threshold)
            if spec is None:
                report["status"] = "error"
                report["diagnostics"] = diagnostics
                code = 1
            else:
                args.tol, args.null_threshold = spec.tolerance.eps, spec.tolerance.null_threshold
                report["tolerance"] = {"eps": args.tol, "null_threshold": args.null_threshold}
                _check_limits(spec, args)
                result, universe = args.handler(spec, args)
                report["result"] = result
                report["universe"] = universe
                report["status"] = "ok"
                report["arguments"] = {
                    k: v for k, v in sorted(vars(args).items())
                    if k not in ("handler", "command", "pretty", "timing")
                    and v is not None
                }
    except MonoidToposError as exc:
        report["status"] = "error"
        report["diagnostics"] = [{"line": 0, "col": 0, "message": str(exc)}]
        code = 1
    except Exception as exc:  # pragma: no cover - internal failure path
        report["status"] = "internal-error"
        report["diagnostics"] = [{"line": 0, "col": 0,
                                  "message": f"{type(exc).__name__}: {exc}"}]
        code = 2
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    sys.stdout.write(_emit(report, args.pretty))
    return code


if __name__ == "__main__":
    sys.exit(main())
