"""The four workloads: inputs made from a seed, timed calls, output checks.

Each workload is a class with ``setup()`` (the work a user does once:
build or load the inputs and fill the library's caches) and ``round(r,
run)`` (one round of timed calls, checked against ``references``).  Every
round makes the same operations, so failures are a fixed share of the
calls attempted.  Inputs depend on the seed and on the round index only.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import references as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Denominator of the seeded levels and windows.  It is prime, so a level is
# one of the half-integer vertex values of the meshes below only when it is
# an integer; spread_point moves those off the vertex values.
DENOM = 10007
CHILD_TIMEOUT_S = 120


class Run:
    """Per-call wall times, units of work, failures and failed checks."""

    def __init__(self):
        self.call_s = []
        self.units = 0
        self.attempted = 0
        self.failures = []
        self.problems = []

    def call(self, fn, *args, **kwargs):
        """Time one library call; a raised error counts as a failed call."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            return None
        self.call_s.append(time.perf_counter() - start)
        return result

    def fail(self, what: str):
        self.failures.append(what)

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def clear_caches():
    """Empty every functools cache of the library, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("ruminslice"):
            continue
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if clear is None:
                clear = getattr(getattr(obj, "__wrapped__", None), "cache_clear", None)
            if callable(clear):
                clear()


def van_der_corput(index: int) -> float:
    """Base-2 radical inverse: any prefix of the sequence is evenly spread."""
    value, scale = 0.0, 0.5
    while index:
        if index & 1:
            value += scale
        index >>= 1
        scale /= 2
    return value


def spread_point(offset: float, r: int, lo, hi, avoid=()) -> Fraction:
    """The r-th point of a shifted van der Corput sequence in (lo, hi)."""
    u = (offset + van_der_corput(r)) % 1.0
    lo, hi = Fraction(lo), Fraction(hi)
    steps = int((hi - lo) * DENOM)
    k = min(max(1, round(u * steps)), steps - 1)
    point = lo + Fraction(k, DENOM)
    while point in avoid:
        point += Fraction(1, DENOM)
    return point


def cube_mesh(size: int):
    """Unit cube in H^1 as 6*size^3 tetrahedra (translated Kuhn cells)."""
    from ruminslice import HeisParams, Simplex, SimplicialCurrent

    h = Fraction(1, size)
    simplices = []
    for i in range(size):
        for j in range(size):
            for k in range(size):
                for order in permutations(range(3)):
                    corner = [i * h, j * h, k * h]
                    vertices = [tuple(corner)]
                    for axis in order:
                        corner[axis] += h
                        vertices.append(tuple(corner))
                    odd = sum(order[a] > order[b] for a in range(3) for b in range(a + 1, 3)) % 2
                    if odd:
                        vertices[1], vertices[2] = vertices[2], vertices[1]
                    simplices.append(Simplex(tuple(vertices), Fraction(1)))
    return SimplicialCurrent(HeisParams(1), 3, simplices)


def affine(a, b, c):
    from ruminslice import AffineFunction

    return AffineFunction((Fraction(a), Fraction(b), Fraction(c)))


def grid_values(size: int, coeffs):
    """The values of a*x + b*y + c*t on the vertices of the size-mesh."""
    a, b, c = coeffs
    steps = range(size + 1)
    return {Fraction(a * i + b * j + c * k, size) for i in steps for j in steps for k in steps}


# Horizontal levels and windows of 3x1+4y1 stay inside (2, 5).  There the
# level plane cuts the cube's middle and about the same number of
# tetrahedra at every level, so per-call times form one cluster; near 0 and
# 7 a slice costs a third as much, and a seed that drew many such levels
# would move the medians.
HORIZONTAL_BAND = (2, 5)


class MeshSlice:
    """Certified slice_plus and slice_minus on a refined cube mesh."""

    size = 2
    trace_rounds = 2
    horizontal = (3, 4, 0)
    vertical = (0, 0, 1)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.offsets = (rng.random(), rng.random())
        self.t_mass = ref.t_slice_mass()
        self.avoid = (grid_values(self.size, self.horizontal),
                      grid_values(self.size, self.vertical))

    def setup(self):
        from ruminslice import slice_plus

        self.mesh = cube_mesh(self.size)
        self.f_h = affine(*self.horizontal)
        self.f_t = affine(*self.vertical)
        slice_plus(self.mesh, self.f_h, Fraction(1, 3), certify=False)
        slice_plus(self.mesh, self.f_t, Fraction(1, 3), certify=False)

    def round(self, r: int, run: Run):
        from ruminslice import slice_minus, slice_plus

        levels = [(self.f_h, self.horizontal,
                   spread_point(self.offsets[0], r, *HORIZONTAL_BAND, self.avoid[0])),
                  (self.f_t, self.vertical, spread_point(self.offsets[1], r, 0, 1, self.avoid[1]))]
        for f, coeffs, level in levels:
            plus = run.call(slice_plus, self.mesh, f, level)
            minus = run.call(slice_minus, self.mesh, f, level)
            if plus is None or minus is None:
                continue
            run.units += 1
            tag = f"f={coeffs} t={level}"
            for side in (plus, minus):
                if coeffs == self.horizontal:
                    run.check(ref.exact_match(side.mass, ref.segment_length(*coeffs[:2], level)),
                              f"{tag}: mass {side.mass} is not the segment length")
                else:
                    run.check(ref.close_match(side.mass, self.t_mass),
                              f"{tag}: mass {side.mass} is off the reference {self.t_mass}")
                run.check(side.residual == 0.0, f"{tag}: residual {side.residual} on an exact chain")
            run.check(plus.chain == minus.chain and not plus.chain.is_empty(),
                      f"{tag}: plus and minus slices differ")
            run.check(all(sum(a * x for a, x in zip(coeffs, v)) == level
                          for s in plus.chain.simplices for v in s.vertices),
                      f"{tag}: a slice vertex is off the level")


class MeshCoarea:
    """coarea_sweep with horizontal f over windows of a refined cube mesh."""

    size = 2
    trace_rounds = 2
    # (f coefficients, range of the window, window width, grid cells); the
    # grids make both sweeps take about the same time
    plans = (((3, 4, 0), HORIZONTAL_BAND, Fraction(1), 2),
             ((1, 0, 0), (0, 1), Fraction(1, 2), 4))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.offsets = [rng.random() for _ in self.plans]
        self.avoid = [grid_values(self.size, plan[0]) for plan in self.plans]

    def setup(self):
        from ruminslice import coarea_sweep

        self.mesh = cube_mesh(self.size)
        self.fs = [affine(*plan[0]) for plan in self.plans]
        coarea_sweep(self.mesh, self.fs[1], Fraction(1, 7), Fraction(2, 7), 1)

    def window(self, index: int, r: int):
        """Round r's window for plan ``index``; its grid midpoints are generic."""
        _, (lo, hi), width, grid = self.plans[index]
        u = self.offsets[index]
        while True:
            a = spread_point(u, r, lo, hi - width)
            mids = [a + width * Fraction(2 * i + 1, 2 * grid) for i in range(grid)]
            if not any(m in self.avoid[index] for m in mids):
                return a, a + width
            u = (u + 0.5 / DENOM) % 1.0

    def round(self, r: int, run: Run):
        from ruminslice import coarea_sweep

        for index, (coeffs, _, _, grid) in enumerate(self.plans):
            a, b = self.window(index, r)
            result = run.call(coarea_sweep, self.mesh, self.fs[index], a, b, grid)
            if result is None:
                continue
            run.units += grid
            self.check(run, coeffs, a, b, grid, result)

    def check(self, run: Run, coeffs, a, b, grid, result):
        tag = f"f={coeffs} window=({a}, {b})"
        ca, cb = coeffs[0], coeffs[1]
        width = (b - a) / grid
        lip = ref.exact_sqrt(ca * ca + cb * cb)
        lengths = []
        for row in result.rows:
            length = ref.segment_length(ca, cb, row.t)
            lengths.append(length)
            run.check(ref.exact_match(row.mass, length),
                      f"{tag}: row t={row.t} mass {row.mass} != length {length}")
            cell = ref.slab_area(ca, cb, row.t - width / 2, row.t + width / 2)
            run.check(row.band_bound == lip * cell / width,
                      f"{tag}: row t={row.t} band bound {row.band_bound} != Lip*volume/width")
        run.check(len(result.rows) == grid, f"{tag}: {len(result.rows)} rows")
        run.check(result.integral == width * sum(lengths, Fraction(0)),
                  f"{tag}: integral {result.integral} is not the midpoint sum")
        run.check(result.band_measure / lip == ref.slab_area(ca, cb, a, b),
                  f"{tag}: band measure / Lip is not the slab volume")
        run.check(result.ratio <= 1 + ref.midpoint_excess(ca, cb, a, b, grid) + 1e-12,
                  f"{tag}: ratio {result.ratio} above 1 + the midpoint-rule error bound")
        if coeffs == (1, 0, 0):
            run.check(result.ratio == 1.0, f"{tag}: ratio {result.ratio} != 1 for x1")


class RuminBatteries:
    """complex_battery and lemma_battery over H^1 and H^2."""

    trace_rounds = 2
    # (battery, n, count), sized so each battery takes a similar time
    plan = (("complex", 1, 32), ("complex", 2, 5), ("lemma", 1, 10), ("lemma", 2, 1))

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from ruminslice import verify

        for kind, n, _ in self.plan:
            getattr(verify, f"{kind}_battery")(n, 0, 1)

    def round(self, r: int, run: Run):
        from ruminslice import verify

        for index, (kind, n, count) in enumerate(self.plan):
            seed = (self.seed * 1000 + r) * len(self.plan) + index
            battery = run.call(getattr(verify, f"{kind}_battery"), n, seed, count)
            if battery is None:
                continue
            cases = sum(total for _, _, total in battery.checks)
            run.units += cases
            for name, passed, total in battery.checks:
                run.check(passed == total == count,
                          f"{kind} n={n} seed={seed}: {name} {passed}/{total} of {count}")


class CliFixtures:
    """Every subcommand on the shipped fixtures, one fresh interpreter each."""

    trace_rounds = 1

    def __init__(self, seed: int):
        self.rng_seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.trace_dir = None
        self.child_traces = []

    def setup(self):
        """A fresh interpreter imports the CLI and loads the three fixtures."""
        code = ("import ruminslice.cli\n"
                "from ruminslice.formio import load_chain\n"
                "for name in ('cube_h1', 'square_h2', 'segment_h1'):\n"
                "    load_chain(f'fixtures/{name}.json')\n")
        proc = run_child([sys.executable, "-c", code], self.env, capture=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}")

    def invocations(self, r: int):
        """(arguments, checker) pairs of round r."""
        rng = random.Random(self.rng_seed * 1000 + r)
        seeds = [rng.randrange(1, 10 ** 6) for _ in range(4)]
        lo, hi = HORIZONTAL_BAND
        cube_level = Fraction(rng.randrange(lo * DENOM + 1, hi * DENOM), DENOM)
        while cube_level.denominator == 1:
            cube_level += Fraction(1, DENOM)
        segment_level = Fraction(rng.randrange(1, DENOM), DENOM)
        cube, square, segment = (str(Path("fixtures") / name) for name in
                                 ("cube_h1.json", "square_h2.json", "segment_h1.json"))
        # Sorted by time, six invocations take under 0.35 s, six over 0.55 s,
        # and the two cube slices (about 0.5 s) sit between them, so the
        # median call is one of those two whatever the verify seeds draw.
        return [
            (["verify-complex", "--n", "1", "--seed", str(seeds[0]), "--count", "20"], _result_pass),
            (["verify-complex", "--n", "2", "--seed", str(seeds[1]), "--count", "8"], _result_pass),
            (["verify-lemmas", "--n", "1", "--seed", str(seeds[2]), "--count", "15"], _result_pass),
            (["verify-lemmas", "--n", "2", "--seed", str(seeds[3]), "--count", "2"], _result_pass),
            (["slice", "--chain", cube, "--f", "x1", "--t", "1/2"],
             _slice_check((1, 0, 0), Fraction(1, 2), Fraction(1))),
            (["slice", "--chain", square, "--f", "x1", "--t", "1/3"],
             _slice_check((1, 0, 0, 0, 0), Fraction(1, 3), Fraction(1))),
            (["slice", "--chain", segment, "--f", "x1", "--t", str(segment_level), "--minus"],
             _slice_check((1, 0, 0), segment_level, Fraction(1))),
            (["slice", "--chain", cube, "--f", "3*x1+4*y1", "--t", str(cube_level), "--minus"],
             _slice_check((3, 4, 0), cube_level, ref.segment_length(3, 4, cube_level))),
            (["coarea", "--chain", cube, "--f", "x1", "--a", "0", "--b", "1", "--grid", "8"],
             _coarea_check(8)),
            (["coarea", "--chain", square, "--f", "x1", "--a", "0", "--b", "1", "--grid", "8"],
             _coarea_check(8)),
            (["coarea", "--chain", segment, "--f", "x1", "--a", "0", "--b", "1", "--grid", "8"],
             _coarea_check(8)),
            (["report", "--chain", square, "--f", "x1", "--levels", "2"], _report_check),
            (["report", "--chain", segment, "--f", "x1", "--levels", "2"], _report_check),
            (["report", "--chain", cube, "--f", "x1", "--levels", "2",
              "--properties", "0,1,2,3,4,6"], _report_check),
        ]

    def command(self, args):
        if self.trace_dir is None:
            return [sys.executable, "-m", "ruminslice.cli"] + args
        out = self.trace_dir / f"child-{len(self.child_traces)}.json"
        self.child_traces.append(out)
        return [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(out)] + args

    def round(self, r: int, run: Run):
        for args, checker in self.invocations(r):
            proc = run.call(run_child, self.command(args), self.env)
            if proc is None:
                continue
            tag = "ruminslice " + " ".join(args)
            if proc.returncode != 0:
                run.fail(f"{tag}: exit {proc.returncode}: {proc.stderr[-200:]}")
                continue
            run.units += 1
            for problem in checker(proc.stdout):
                run.check(False, f"{tag}: {problem}")


def run_child(command, env, capture: bool = True) -> subprocess.CompletedProcess:
    """Run a child to its end; kill it after CHILD_TIMEOUT_S.

    ``subprocess.run(timeout=...)`` polls for the exit with sleeps of up to
    50 ms, which would round every measured time; this waits blocking and
    leaves the timeout to a timer thread.
    """
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=pipe, stderr=pipe, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    return subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)


def _last_line(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def _result_pass(stdout: str):
    if _last_line(stdout) != "RESULT PASS":
        yield "no RESULT PASS"
    for line in stdout.splitlines():
        if line.strip().endswith("[FAIL]"):
            yield f"failed check: {line.strip()}"


def _report_check(stdout: str):
    yield from _result_pass(stdout)
    keys = [line.split()[0] for line in stdout.splitlines() if line[:1] == "P"]
    for line in stdout.splitlines():
        if line[:1] == "P" and line.split()[1] not in ("PASS", "SKIP"):
            yield f"property not passed: {line}"
    if not keys:
        yield "no property lines"


def _slice_check(coeffs, level, mass):
    def check(stdout: str):
        lines = stdout.splitlines()
        printed = next((line.split()[1] for line in lines if line.startswith("mass ")), None)
        if printed != f"{float(mass):.12g}":
            yield f"mass {printed} != {float(mass):.12g}"
        start = stdout.find("{")
        chain = json.loads(stdout[start:]) if start >= 0 else {}
        vertices = [[Fraction(c) for c in v] for v in chain.get("vertices", [])]
        if not vertices:
            yield "empty slice chain"
        if any(sum(a * c for a, c in zip(coeffs, v)) != level for v in vertices):
            yield "a slice vertex is off the level"
    return check


def _coarea_check(grid: int):
    def check(stdout: str):
        lines = stdout.splitlines()
        rows = [line.split(",") for line in lines[1:] if line.count(",") == 3]
        if lines[:1] != ["t,mass,band_bound,ratio"] or len(rows) != grid:
            yield f"expected a CSV header and {grid} rows"
        for row in rows:
            if row[1] != "1" or row[2] != "1" or row[3] != "1":
                yield f"row {row} is not mass 1, bound 1, ratio 1"
        if not any(line.startswith("ratio 1 bound ") and line.endswith("[PASS]") for line in lines):
            yield "coarea ratio is not exactly 1"
    return check


WORKLOADS = {
    "mesh-slice": MeshSlice,
    "mesh-coarea": MeshCoarea,
    "rumin-batteries": RuminBatteries,
    "cli-fixtures": CliFixtures,
}
