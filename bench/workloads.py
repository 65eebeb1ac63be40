"""The three workloads: their inputs, one operation each, and its check.

``inputs`` is what a fresh process generates before measuring (it is
inside ``setup_s``); it solves no border.  ``operations`` turns the
inputs into callables and derives the reference values the checks need
(it may solve borders and is timed by nothing).  Each operation is
checked after its clock stops.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from chp_pack import builder, chp, configio, optimizer, svg, validation

NAMES = ("catalog", "construct", "search")

HIT_TOL = 1e-6  # a packing whose density is this close to chp_density is the CHP

# catalog: the default `tables` sweep plus the two rows of tables_golden_12_k10.csv it lacks
CATALOG_ROWS = [(s, k) for s in range(12, 61, 6) for k in range(1, 9)] + [(12, 9), (12, 10)]
ENUMERATE_LIMIT = 2520

# construct: default-DNA cells, each with a cold solve
CONSTRUCT_SIGMAS = (12, 18, 24, 36, chp.CIRCLE)
CONSTRUCT_KS = (4, 8, 12, 16, 20)
ALL_DNA_CELL = (12, 8)  # every canonical DNA, all sharing one solve
GOLDEN_CELL = (12, 2)  # output compared byte for byte with build_12_2.json

# search: (sigma, k) per run.  The optimizer seed is fixed and the workload
# seed only sets the order: the ladder's cost per optimizer seed is
# heavy-tailed (algorithm1 at N=19 in the dodecagon takes 0.8-6.6 s over
# seeds 1-10), so drawing optimizer seeds would make the work itself differ
# between workload seeds by far more than any bound.
SEARCH_RANDOM = ((12, 2), (chp.CIRCLE, 2))  # algorithm1 from a random start, N = 19
SEARCH_GUIDED = ((12, 3), (24, 4), (chp.CIRCLE, 4), (12, 5))  # seed_guided + pinned algorithm2, N = 37..91
SEARCH_OPT_SEED = 1
GUIDED_THETA, GUIDED_SCALE = 0.1, 0.97


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Tuple[bool, bool]]  # output -> (passed, hit the reference value)
    cold: bool = False  # clear solve_border's memo first


def inputs(name: str, seed: int, root: Path) -> dict:
    """The workload's inputs, in an order drawn from ``seed``."""
    rng = random.Random(seed)
    data = root / "tests" / "data"
    if name == "catalog":
        golden: Dict[Tuple[int, int], str] = {}
        for path in sorted(data.glob("tables_golden*.csv")):
            with path.open(newline="") as fh:
                for row in csv.reader(fh):
                    if row[0] != "sigma":
                        golden[(int(row[0]), int(row[1]))] = ",".join(row)
        rows = list(CATALOG_ROWS)
        rng.shuffle(rows)
        return {"rows": rows, "golden": golden}
    if name == "construct":
        cells: List[tuple] = [(s, k) for s in CONSTRUCT_SIGMAS for k in CONSTRUCT_KS]
        cells += [ALL_DNA_CELL + ("all",), GOLDEN_CELL]
        rng.shuffle(cells)
        golden_doc = (data / "build_12_2.json").read_text(encoding="utf-8")
        return {"cells": cells, "golden": golden_doc, "order": rng.random()}
    if name == "search":
        runs = [("random", s, k) for s, k in SEARCH_RANDOM] + [("guided", s, k) for s, k in SEARCH_GUIDED]
        rng.shuffle(runs)
        return {"runs": runs}
    raise ValueError(f"unknown workload {name!r}")


def operations(name: str, data: dict) -> List[Operation]:
    if name == "catalog":
        return [_catalog_row(s, k, data["golden"][(s, k)]) for s, k in data["rows"]]
    if name == "construct":
        ops: List[Operation] = []
        for cell in data["cells"]:
            sigma, k = cell[:2]
            if cell[2:] == ("all",):
                dnas = [d.letters for d in chp.enumerate_dnas(sigma, k)]
                random.Random(data["order"]).shuffle(dnas)
                ops += [_construct(sigma, k, dna, cold=i == 0) for i, dna in enumerate(dnas)]
            else:
                golden = data["golden"] if (sigma, k) == GOLDEN_CELL else None
                ops.append(_construct(sigma, k, None, cold=True, golden=golden))
        return ops
    if name == "search":
        return [_search(*run) for run in data["runs"]]
    raise ValueError(f"unknown workload {name!r}")


def _catalog_row(sigma: int, k: int, golden: str) -> Operation:
    def run() -> str:
        b = chp.solve_border(sigma, k)
        count = chp.count_configurations(chp.CountInput.from_border(b))
        enumerated = len(chp.enumerate_dnas(sigma, k, cap=ENUMERATE_LIMIT)) if count <= ENUMERATE_LIMIT else ""
        degs = ";".join(str(n) for n in b.degeneracies)
        return f"{sigma},{k},{len(b.degeneracies)},{degs},{b.eta},{b.n_V},{k % (sigma // 6)},{count},{enumerated}"

    def check(row: str) -> Tuple[bool, bool]:
        return row == golden, row == golden

    return Operation(f"row {sigma} {k}", run, check, cold=True)


def _construct(sigma, k: int, dna: Optional[str], cold: bool, golden: Optional[str] = None) -> Operation:
    target = chp.chp_density(sigma, k)

    def run():
        cfg = builder.build_chp(sigma, k, dna)
        report = validation.validate_config(cfg)
        found = builder.extract_dna(cfg, sigma, k)
        doc = configio.dumps_config(cfg)
        svg.render_svg(cfg, contacts=True)
        return cfg, report, found, doc

    def check(out) -> Tuple[bool, bool]:
        cfg, report, found, doc = out
        passed = (
            report.is_valid
            and found.letters == cfg.meta["dna"]
            and (dna is None or cfg.meta["dna"] == dna)
            and (golden is None or doc == golden)
        )
        return passed, passed and abs(report.density - target) <= HIT_TOL

    return Operation(f"build {sigma} {k} {dna or 'default'}", run, check, cold=cold)


def _search(mode: str, sigma, k: int) -> Operation:
    target = chp.chp_density(sigma, k)
    params = optimizer.OptimizerParams(seed=SEARCH_OPT_SEED)

    def run():
        if mode == "random":
            return None, optimizer.algorithm1(sigma, chp.disk_count(k), params)
        start, pins = optimizer.seed_guided(sigma, k, GUIDED_THETA, GUIDED_SCALE)
        return start, optimizer.algorithm2(start, params, pins, trial=0)

    def check(out) -> Tuple[bool, bool]:
        start, cfg = out  # algorithm1's random start stays inside it, so only guided runs compare
        passed = (
            validation.validate_config(cfg).is_valid
            and cfg.n_disks == chp.disk_count(k)
            and (start is None or validation.packing_radius(cfg) >= validation.packing_radius(start))
        )
        return passed, passed and abs(validation.density(cfg) - target) <= HIT_TOL

    return Operation(f"{mode} {sigma} N={chp.disk_count(k)}", run, check)
