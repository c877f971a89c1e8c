"""Command-line frontend: JSON instances in, JSON verdicts out.

Exit status is 0 when the instance was decided either way, 2 when it falls
outside every fragment this tool can decide, and 1 on bad input.  Verdicts
are printed as a single JSON object on stdout; rotation grids go out as CSV
and `bounds` prints human-readable tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .argand_decider import EXPANSION, TRUNCATION, decide_expansion, decide_truncation
from .errors import (
    ModulusOneSpectrumError,
    NonRationalSpectrumError,
    RoundReachError,
)
from .hyperbolic import (
    HYPERBOLIC,
    Fragment,
    RadiusTable,
    decide_hyperbolic_general,
    decide_hyperbolic_jnf,
    eigenbasis,
    step_cap,
)
from .numerics import Angle
from .polar_decider import POLAR, decide_polar
from .qbf_compiler import (
    GadgetFamily,
    HardnessInstance,
    compile_qbf,
    parse_prefix_formula,
    parse_qdimacs,
    perturb,
)
from .rotation_lab import emit_grid, grid_csv, parse_theta, run_disk
from .rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
    RoundingSpec,
    checked_int,
)
from .system import (
    CycleDetected,
    DivergedPastTarget,
    EscapedRadius,
    JnfSystem,
    JordanBlock,
    NotReached,
    RationalSystem,
    Reached,
    StabilizedMismatch,
    Undecided,
    Verdict,
    simulate,
)

VERSION = 1

Instance = Union[RationalSystem, JnfSystem]


# ---------------------------------------------------------------------------
# Rational / angle / point (de)serialization


def _parse_rational(text) -> Fraction:
    """A rational string as Fraction(text) reads it.  The two forms
    serialize_instance writes, -?d+ and -?d+/d+ in ASCII digits with a
    nonzero denominator, are read as integers; Fraction's own parser takes
    every other string, so it alone decides what is accepted."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    try:
        if text.isascii():
            num, slash, den = text.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit() and den.strip("0"):
                    return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def _rational_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# CPython 3.11 refuses to write an integer of more than 4300 digits in
# decimal, and past a million digits writing one takes minutes
_PRINTABLE = 10**4300


def _bound_str(value: Fraction) -> str:
    """A nonnegative bound as `bounds` prints it: exact, or as < 2^N, N the
    bit length of its ceiling, once it has more than 4300 digits."""
    value = Fraction(value)
    if value.numerator < _PRINTABLE and value.denominator < _PRINTABLE:
        return _rational_str(value)
    return f"< 2^{(-(-value.numerator // value.denominator)).bit_length()}"


def _parse_angle(text) -> Angle:
    if not isinstance(text, str) or not text.endswith("pi"):
        raise ValueError(f"expected an angle like '1/2 pi', got {text!r}")
    return Angle(_parse_rational(text[: -len("pi")].strip()))


def _angle_str(angle: Angle) -> str:
    return f"{_rational_str(angle.pi_multiple)} pi"


def _array(value, what: str) -> list:
    # a JSON string iterates as its characters
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


def _require_fields(obj: dict, required: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    if tuple(obj) == required:  # the key order serialize_instance writes
        return
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{what} is missing field(s) {missing}")
    unknown = [k for k in obj if k not in required]
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {unknown}")


def _parse_rounding(obj) -> RoundingSpec:
    if not isinstance(obj, dict):
        raise ValueError("rounding must be an object")
    shape = obj.get("shape")
    if shape == "argand":
        _require_fields(obj, ("shape", "kind", "granularity"), "argand rounding")
        return ArgandRounding(
            RoundingKind(obj["kind"]), _parse_rational(obj["granularity"])
        )
    if shape == "polar":
        _require_fields(
            obj, ("shape", "kind", "angle_resolution", "granularity"), "polar rounding"
        )
        return PolarRounding(
            RoundingKind(obj["kind"]),
            obj["angle_resolution"],
            _parse_rational(obj["granularity"]),
        )
    raise ValueError(f"unknown rounding shape {shape!r}")


def _rounding_json(spec: RoundingSpec) -> dict:
    if isinstance(spec, PolarRounding):
        return {
            "shape": "polar",
            "kind": spec.modulus_kind.value,
            "angle_resolution": spec.angle_resolution,
            "granularity": _rational_str(spec.granularity),
        }
    return {
        "shape": "argand",
        "kind": spec.kind.value,
        "granularity": _rational_str(spec.granularity),
    }


def _parse_point(obj, spec: RoundingSpec):
    if not isinstance(obj, dict):
        raise ValueError(f"expected a point object, got {obj!r}")
    if isinstance(spec, PolarRounding):
        _require_fields(obj, ("modulus", "angle_index"), "polar point")
        return PolarPoint(
            _parse_rational(obj["modulus"]), checked_int(obj["angle_index"], "angle_index")
        )
    _require_fields(obj, ("re", "im"), "argand point")
    return ArgandPoint(_parse_rational(obj["re"]), _parse_rational(obj["im"]))


def _point_json(point) -> dict:
    if isinstance(point, PolarPoint):
        return {
            "modulus": _rational_str(point.modulus),
            "angle_index": point.angle_index,
        }
    return {"re": _rational_str(point.re), "im": _rational_str(point.im)}


# ---------------------------------------------------------------------------
# Instance files


def parse_instance(text: str) -> Instance:
    """Parse an instance file; rejects unknown fields and bad shapes."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("instance file must hold a JSON object")
    version = obj.get("version")
    if isinstance(version, bool) or version != VERSION:
        raise ValueError(f"unsupported instance version {version!r}")
    kind = obj.get("kind")
    if kind == "rational":
        _require_fields(
            obj,
            ("version", "kind", "rounding", "matrix", "initial", "target"),
            "rational instance",
        )
        spec = _parse_rounding(obj["rounding"])
        matrix = tuple(
            tuple(_parse_rational(c) for c in _array(row, "a matrix row"))
            for row in _array(obj["matrix"], "matrix")
        )
        initial = tuple(_parse_rational(v) for v in _array(obj["initial"], "initial"))
        target = tuple(_parse_rational(v) for v in _array(obj["target"], "target"))
        return RationalSystem(matrix, initial, target, spec)
    if kind == "jnf":
        _require_fields(
            obj,
            ("version", "kind", "rounding", "blocks", "initial", "target"),
            "jnf instance",
        )
        spec = _parse_rounding(obj["rounding"])
        blocks = []
        for entry in _array(obj["blocks"], "blocks"):
            _require_fields(entry, ("size", "modulus", "angle"), "jordan block")
            blocks.append(
                JordanBlock(
                    entry["size"],
                    _parse_rational(entry["modulus"]),
                    _parse_angle(entry["angle"]),
                )
            )
        initial = tuple(_parse_point(p, spec) for p in _array(obj["initial"], "initial"))
        target = tuple(_parse_point(p, spec) for p in _array(obj["target"], "target"))
        return JnfSystem(tuple(blocks), initial, target, spec)
    raise ValueError(f"unknown instance kind {kind!r}")


def serialize_instance(system: Instance) -> str:
    """Canonical instance text; parse followed by serialize is the identity
    on its own output."""
    if isinstance(system, RationalSystem):
        obj = {
            "version": VERSION,
            "kind": "rational",
            "rounding": _rounding_json(system.rounding),
            "matrix": [[_rational_str(c) for c in row] for row in system.matrix],
            "initial": [_rational_str(v) for v in system.initial],
            "target": [_rational_str(v) for v in system.target],
        }
    else:
        obj = {
            "version": VERSION,
            "kind": "jnf",
            "rounding": _rounding_json(system.rounding),
            "blocks": [
                {
                    "size": b.size,
                    "modulus": _rational_str(b.eigen_modulus),
                    "angle": _angle_str(b.eigen_angle),
                }
                for b in system.blocks
            ],
            "initial": [_point_json(p) for p in system.initial],
            "target": [_point_json(p) for p in system.target],
        }
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Dispatch


@dataclass(frozen=True)
class Route:
    """The decider covering an instance and the fragment whose tables and
    step cap it runs on; fragment is None for a rational-matrix system,
    whose tables are built in its eigenbasis."""

    decide: Callable[[Instance], Verdict]
    fragment: Optional[Fragment]


def route(system: Instance) -> Union[Route, Undecided]:
    """The one place an instance is matched to the decider covering it, by
    its kind, rounding shape and kind, and whether it is hyperbolic."""
    if isinstance(system, RationalSystem):
        return Route(decide_hyperbolic_general, None)
    spec = system.rounding
    if isinstance(spec, PolarRounding):
        return Route(decide_polar, POLAR)
    if spec.kind is RoundingKind.TRUNCATE:
        return Route(decide_truncation, TRUNCATION)
    if spec.kind is RoundingKind.EXPAND:
        return Route(decide_expansion, EXPANSION)
    if system.is_hyperbolic:
        return Route(decide_hyperbolic_jnf, HYPERBOLIC)
    return Undecided(
        f"a modulus-one eigenvalue under componentwise {spec.kind.value} rounding "
        "is outside every fragment this tool decides (for minimal-error rounding "
        "even the single rotation block is not known to be decidable)"
    )


def _routed(system: Instance, use: Callable[[Route, Instance], object]):
    """use(route, system) with the route covering the instance, or
    Undecided: no fragment covers it, or it is a rational matrix whose
    spectrum the eigenbasis fragment excludes."""
    chosen = route(system)
    if isinstance(chosen, Undecided):
        return chosen
    if chosen.fragment is not None:
        return use(chosen, system)
    try:
        return use(chosen, system)
    except NonRationalSpectrumError as exc:
        return Undecided(str(exc))
    except ModulusOneSpectrumError:
        return Undecided(
            "the matrix has a modulus-one eigenvalue; for a general rational "
            "matrix no fragment of this tool applies"
        )


def dispatch(system: Instance) -> Union[Verdict, Undecided]:
    """Run the decider the route picks for an instance, if any."""
    return _routed(system, lambda chosen, s: chosen.decide(s))


def _certificate_json(certificate) -> dict:
    if isinstance(certificate, CycleDetected):
        return {"type": "cycle_detected", "step_bound": certificate.step_bound}
    if isinstance(certificate, EscapedRadius):
        return {
            "type": "escaped_radius",
            "dimension": certificate.dimension,
            "radius": _rational_str(certificate.radius),
        }
    if isinstance(certificate, DivergedPastTarget):
        return {"type": "diverged_past_target", "dimension": certificate.dimension}
    if isinstance(certificate, StabilizedMismatch):
        return {"type": "stabilized_mismatch", "dimension": certificate.dimension}
    raise TypeError(f"not a certificate: {certificate!r}")


def verdict_json(verdict: Union[Verdict, Undecided], system: Instance) -> dict:
    if isinstance(verdict, Reached):
        if isinstance(system, RationalSystem):
            witness = [_rational_str(v) for v in system.target]
        else:
            witness = [_point_json(p) for p in system.target]
        return {"outcome": "reached", "step": verdict.step, "witness": witness}
    if isinstance(verdict, NotReached):
        return {
            "outcome": "not-reached",
            "certificate": _certificate_json(verdict.certificate),
        }
    return {"outcome": "undecided-by-this-tool", "reason": verdict.reason}


# ---------------------------------------------------------------------------
# Subcommands


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


def _cmd_decide(args: argparse.Namespace) -> int:
    system = parse_instance(_read(args.instance))
    verdict = dispatch(system)
    _emit(verdict_json(verdict, system))
    return 2 if isinstance(verdict, Undecided) else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    system = parse_instance(_read(args.instance))
    if args.steps < 0:
        raise ValueError("--steps must be nonnegative")
    cell = _rational_str if isinstance(system, RationalSystem) else _point_json
    rows = [[cell(v) for v in s] for s in simulate(system, args.steps)]
    _emit({"states": rows})
    return 0


def _table_lines(chosen: Route, system: Instance) -> list[str]:
    """The tables and step cap of the route's decider, built as it builds
    them: the fragment's, or with no fragment the eigenbasis decider's."""
    fragment = chosen.fragment
    if fragment is None:
        basis, tables, cap = eigenbasis(system)
        lines = [f"eigenbasis rounding effect: {_rational_str(basis.delta)}"]
        blocks, proved = basis.blocks, True
    else:
        tables = fragment.tables(system)
        cap = step_cap(system, tables)
        # the deciders pass system.is_hyperbolic as cap_is_state_bound
        lines, blocks, proved = [], system.blocks, system.is_hyperbolic
    for i, (block, table) in enumerate(zip(blocks, tables)):
        angle = f", angle {_angle_str(block.eigen_angle)}" if fragment is not None else ""
        lines.append(
            f"block {i}: size {block.size}, "
            f"eigenvalue modulus {_rational_str(block.eigen_modulus)}{angle}"
        )
        if isinstance(table, RadiusTable):
            lines.append(
                "  escape radius per dimension: "
                + ", ".join(_bound_str(r) for r in table.radii)
            )
            continue
        lines.append(
            "  modulus ceiling per dimension: "
            + ", ".join(_bound_str(u) for u in table.modulus_bounds)
        )
        lines.append(
            "  settle bound per dimension:    "
            + ", ".join(_bound_str(t) for t in table.settle_bounds)
        )
        lines.append(f"  growth base: {_bound_str(table.growth_base)}")
    label = "proved state bound" if proved else "safety net"
    lines.append(f"step cap: {_bound_str(cap)} ({label})")
    return lines


def _cmd_bounds(args: argparse.Namespace) -> int:
    system = parse_instance(_read(args.instance))
    lines = _routed(system, _table_lines)
    if isinstance(lines, Undecided):
        _emit(verdict_json(lines, system))
        return 2
    for line in lines:
        print(line)
    return 0


def hardness_json(instance: HardnessInstance) -> dict:
    """Sparse serialization of a compiled hardness instance."""
    return {
        "version": VERSION,
        "kind": "hardness",
        "family": instance.program.family.value,
        "rounding": _rounding_json(instance.rounding),
        "dimension": instance.dimension,
        "variables": instance.program.var_count,
        "sweep_length": instance.program.step_count,
        "factor": _rational_str(instance.factor),
        "rows": [
            [[col, _rational_str(coef)] for col, coef in row]
            for row in instance.rows
        ],
        "initial": list(instance.initial),
        "target": list(instance.target),
    }


def _cmd_compile_qbf(args: argparse.Namespace) -> int:
    if args.perturb and args.family is GadgetFamily.CEIL:
        raise ValueError(
            "--family ceil cannot be used with --perturb: a ceiling copy row "
            "rounds 11/10 up to 2; use --family floor or minerr"
        )
    text = _read(args.formula)
    formula = parse_qdimacs(text) if args.qdimacs else parse_prefix_formula(text)
    instance = compile_qbf(formula, args.family)
    if args.perturb:
        instance = perturb(instance, Fraction(11, 10))
    payload = json.dumps(hardness_json(instance), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        _emit(
            {
                "dimension": instance.dimension,
                "sweep_length": instance.program.step_count,
                "out": args.out,
            }
        )
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_rotate(args: argparse.Namespace) -> int:
    if args.radius < 1:
        raise ValueError("--radius must be positive")
    if args.budget < 1:
        raise ValueError("--budget must be positive")
    theta = parse_theta(args.theta)
    report = run_disk(args.radius, theta, budget=args.budget)
    if args.out:
        emit_grid(report, args.out)
        _emit(
            {
                "radius": args.radius,
                "theta": report.theta,
                "starts": len(report.orbits),
                "unresolved": len(report.unresolved),
                "cells": len(report.cells),
                "max_modulus_sq": _rational_str(report.max_modulus_sq()),
                "out": args.out,
            }
        )
    else:
        sys.stdout.write(grid_csv(report))
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundreach",
        description="decide reachability for linear systems with per-step rounding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide an instance file ('-' for stdin)")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("simulate", help="print the first N+1 orbit states")
    p.add_argument("instance")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="print the resource tables for an instance")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("compile-qbf", help="compile a quantified formula")
    p.add_argument("formula", help="formula file ('-' for stdin)")
    p.add_argument(
        "--family",
        type=GadgetFamily,
        default=GadgetFamily.MINIMAL_ERROR,
        metavar="{" + ",".join(f.value for f in GadgetFamily) + "}",
        help="gadget family; minimal_error_up also names minerr",
    )
    p.add_argument("--qdimacs", action="store_true", help="input is QDIMACS")
    p.add_argument("--perturb", action="store_true", help="scale gadgets by 11/10")
    p.add_argument("-o", "--out", help="write the instance here instead of stdout")
    p.set_defaults(func=_cmd_compile_qbf)

    p = sub.add_parser("rotate", help="round-and-rotate every lattice point in a disk")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--theta", required=True, help="angle, e.g. '1/42 pi'")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_rotate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RoundReachError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
