"""Command line interface.

Exit codes: 0 success, 2 bad arguments, 3 computation or input errors.
Errors go to stderr as one JSON object per failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import geometry
from .builder import build_chp
from .chp import (
    CountInput,
    count_configurations,
    chp_density,
    disk_count,
    enumerate_dnas,
    solve_border,
)
from .configio import dumps_config, read_config
from .errors import ChpError
from .geometry import Sigma
from .optimizer import OptimizerParams, algorithm1, algorithm2
from .svg import render_svg
from .validation import density as packing_density
from .validation import packing_radius, validate_config

_TABLE_SIGMAS = "12,18,24,30,36,42,48,54,60"


class _BadArguments(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _BadArguments(message)


def _sigma_arg(text: str) -> Sigma:
    try:
        sigma: Sigma = int(text)
    except ValueError:
        sigma = text
    try:
        geometry.check_sigma(sigma)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return sigma


def _sigma_list_arg(text: str) -> List[int]:
    # the table lists each side count once, in ascending order
    try:
        values = sorted({int(s) for s in text.split(",") if s.strip()})
    except ValueError:
        values = []
    if not values or values[0] < 3:
        raise argparse.ArgumentTypeError(f"expected comma-separated integer side counts >= 3, got {text!r}")
    return values


def _int_at_least(low: int):
    """An argparse ``type=`` that reads an integer and refuses one below ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    parse.__name__ = "integer"
    return parse


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _build_parser() -> _Parser:
    p = _Parser(prog="chp-pack", description="Curved hexagonal disk packings in regular polygons.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_sigma_k(sp):
        sp.add_argument("--sigma", type=_sigma_arg, required=True, help='polygon side count (multiple of 6) or "circle"')
        sp.add_argument("--k", type=int, required=True, help="number of shells")

    sp = sub.add_parser("solve", help="border chain angles and chord length")
    add_sigma_k(sp)

    sp = sub.add_parser("density", help="packing fraction of the k-shell configuration")
    add_sigma_k(sp)

    sp = sub.add_parser("count", help="number of inequivalent configurations")
    add_sigma_k(sp)

    sp = sub.add_parser("enumerate", help="list canonical DNA strings")
    add_sigma_k(sp)
    sp.add_argument("--limit", type=_int_at_least(1), default=100000, help="refuse when the class count exceeds this")

    sp = sub.add_parser("build", help="construct a configuration deterministically")
    add_sigma_k(sp)
    sp.add_argument("--dna", default=None, help="DNA letters (default: lexicographically first)")
    sp.add_argument("-o", "--output", default=None, help="output JSON path (default: stdout)")

    sp = sub.add_parser("tables", help="reproduce the configuration-count tables")
    sp.add_argument("--sigma-list", type=_sigma_list_arg, default=_TABLE_SIGMAS, help="comma-separated side counts")
    sp.add_argument("--k-max", type=_int_at_least(1), default=8, help="largest shell count per sigma")
    sp.add_argument("--enumerate-limit", type=_int_at_least(0), default=2520, help="enumerate only rows with count at most this")
    sp.add_argument("-o", "--output", default=None, help="output CSV path (default: stdout)")

    sp = sub.add_parser("pack", help="random-start basin-hopping packing")
    sp.add_argument("--sigma", type=_sigma_arg, required=True)
    sp.add_argument("--n", type=_int_at_least(2), required=True, help="number of disks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_int_at_least(1), default=1)
    sp.add_argument("-o", "--output", default=None, help="write best configuration JSON here")

    sp = sub.add_parser("shake", help="perturb and re-pack an existing configuration")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("--trials", type=_int_at_least(1), default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pin", choices=["border", "none"], default="none")
    sp.add_argument("-o", "--output", default=None, help="write retained configuration JSON here")

    sp = sub.add_parser("validate", help="check separation and containment")
    sp.add_argument("-i", "--input", required=True)

    sp = sub.add_parser("render", help="draw a configuration as SVG")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output", default=None, help="output SVG path (default: stdout)")
    sp.add_argument("--contacts", action="store_true", help="draw contact-graph edges")
    sp.add_argument("--fundamental", action="store_true", help="shade the fundamental sector")
    return p


def _cmd_solve(args) -> int:
    b = solve_border(args.sigma, args.k)
    doc = {
        "sigma": b.sigma,
        "k": b.k,
        "n_disks": disk_count(b.k),
        "d": b.d,
        "phi": list(b.phi),
        "degeneracies": list(b.degeneracies),
        "blocks": len(b.degeneracies),
        "eta": b.eta,
        "n_V": b.n_V,
        "vertex_hits": list(b.vertex_hits),
        "vertex_angles": list(b.vertex_angles),
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_density(args) -> int:
    sys.stdout.write(format(chp_density(args.sigma, args.k), ".12g") + "\n")
    return 0


def _cmd_count(args) -> int:
    b = solve_border(args.sigma, args.k)
    sys.stdout.write(str(count_configurations(CountInput.from_border(b))) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    dnas = enumerate_dnas(args.sigma, args.k, cap=args.limit)
    sys.stdout.write("".join(d.letters + "\n" for d in dnas))
    return 0


def _cmd_build(args) -> int:
    _emit(dumps_config(build_chp(args.sigma, args.k, args.dna)), args.output)
    return 0


def _table_row(sigma: int, k: int, limit: int) -> tuple:
    b = solve_border(sigma, k)
    cnt = count_configurations(CountInput.from_border(b))
    if cnt <= limit:
        enumerated = str(len(enumerate_dnas(sigma, k, cap=limit)))
    else:
        enumerated = ""
    return (
        sigma,
        k,
        len(b.degeneracies),
        ";".join(str(n) for n in b.degeneracies),
        b.eta,
        b.n_V,
        k % (sigma // 6),
        cnt,
        enumerated,
    )


def _cmd_tables(args) -> int:
    ks = range(1, args.k_max + 1)
    rows = [_table_row(s, k, args.enumerate_limit) for s in args.sigma_list for k in ks]
    lines = ["sigma,k,blocks,degeneracies,eta,n_V,k_mod,formula_count,enumerated_count"]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _config_summary(config) -> dict:
    return {
        "sigma": config.sigma,
        "n_disks": config.n_disks,
        "min_distance": _fmt17(packing_radius(config.centers)),
        "density": _fmt17(packing_density(config)),
    }


def _cmd_pack(args) -> int:
    best = None
    best_d = -math.inf
    for t in range(args.trials):
        params = OptimizerParams(seed=args.seed + t)
        cand = algorithm1(args.sigma, args.n, params)
        cand_d = packing_radius(cand.centers)
        if cand_d > best_d:
            best, best_d = cand, cand_d
    _emit(dumps_config(best), args.output)
    if args.output is not None:
        sys.stdout.write(json.dumps(_config_summary(best)) + "\n")
    return 0


def _border_pins(config) -> np.ndarray:
    excess = geometry.outside_by(config.sigma, config.centers)
    return np.flatnonzero(np.abs(excess) <= 1e-7)


def _cmd_shake(args) -> int:
    config = read_config(args.input)
    pins = _border_pins(config) if args.pin == "border" else ()
    params = OptimizerParams(seed=args.seed)
    # the header goes out with the first trial's row, so a trial that
    # rejects its input leaves stdout empty
    rows: List[str] = ["trial,lps,stop,density"]
    current = config
    for t in range(args.trials):

        def record(hop) -> None:
            rows.append(f"{t},{hop.lps},{hop.stop},{format(packing_density(hop.config), '.12g')}")

        current = algorithm2(current, params, pins, trial=t, record=record)
        sys.stdout.write("".join(r + "\n" for r in rows))
        rows.clear()
    if args.output is not None:
        _emit(dumps_config(current), args.output)
    return 0


def _cmd_validate(args) -> int:
    config = read_config(args.input)
    report = validate_config(config)
    sys.stdout.write(json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0 if report.is_valid else 3


def _cmd_render(args) -> int:
    config = read_config(args.input)
    _emit(render_svg(config, contacts=args.contacts, fundamental=args.fundamental), args.output)
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "density": _cmd_density,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "build": _cmd_build,
    "tables": _cmd_tables,
    "pack": _cmd_pack,
    "shake": _cmd_shake,
    "validate": _cmd_validate,
    "render": _cmd_render,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _BadArguments as exc:
        sys.stderr.write(json.dumps({"error": "bad_arguments", "message": str(exc)}) + "\n")
        return 2
    try:
        return _HANDLERS[args.command](args)
    except FileNotFoundError as exc:
        sys.stderr.write(json.dumps({"error": "bad_arguments", "message": str(exc)}) + "\n")
        return 2
    except (ChpError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
