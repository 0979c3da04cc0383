"""The four workloads: series, modules, cyclotomic and cli.

A workload has a set-up (the program calls that build fields, levels and
input files; timed as setup_s) and rounds.  A round is a fixed list of
tasks whose inputs come from the seeded generator; every round of a workload
runs the same operations, so the share of known-fault failures is the same in
every run.  A task is one call, or one short chain of calls, into senlab's
public API, followed by a check against bench/oracle.py or a property the
method must have.  Checks run outside the timed part of a task.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import oracle as O
from senlab import cli, dpseries, field, gamma, jsonio, padic, senmod

PadicScalar = padic.PadicScalar


class Task:
    """One timed operation; check(output) runs afterwards, untimed."""

    __slots__ = ("name", "run", "check", "known_fault")

    def __init__(self, name, run, check, known_fault=False):
        self.name = name
        self.run = run
        self.check = check
        self.known_fault = known_fault


class Round:
    """The tasks of one round plus checks that span several of its tasks.

    known_faults is how many of the tasks marked known_fault fail today; a
    round with more known-fault failures than that is not correct, so a
    regression among the points where the faulty code is right today shows.
    """

    def __init__(self, tasks, post_checks=(), known_faults=0):
        self.tasks = tasks
        self.post_checks = list(post_checks)
        self.known_faults = known_faults


# ---------------------------------------------------------------------------
# comparisons between program output and oracle values
# ---------------------------------------------------------------------------

def lift(s):
    """Exact rational representative of a PadicScalar."""
    return Fraction(0) if s.val is None else Fraction(s.p) ** s.val * s.unit


def elem_agrees(x, coords, floor):
    """Every coordinate of x matches the oracle to its own claimed precision,
    and every claimed precision reaches the floor."""
    for c, q in zip(x.coordinates(), coords):
        if c.prec < floor or not O.agrees(lift(c), q, c.p, c.prec):
            return False
    return True


def elems_equal(x, y, floor):
    """Two program values agree to the coarser of their claimed precisions."""
    for a, b in zip(x.coordinates(), y.coordinates()):
        prec = min(a.prec, b.prec)
        if prec < floor or not O.agrees(lift(a), lift(b), a.p, prec):
            return False
    return True


def program_elem(K, coords):
    """FieldElement with the given integer coordinates (order t = j e + i)."""
    e = K.e_ram
    grid = []
    for j in range(K.f):
        row = []
        for i in range(e):
            c = Fraction(coords[j * e + i])
            if c.denominator != 1:
                raise ValueError("generated inputs are integral")
            row.append(PadicScalar.from_int(int(c), K.p, K.prec))
        grid.append(row)
    return K.from_grid(grid)


def random_coords(rng, F, span=3 ** 6):
    return [Fraction(rng.randrange(-span, span + 1)) for _ in range(F.degree)]


def matrix_lift(F, mat):
    return [[[lift(c) for c in x.coordinates()] for x in row] for row in mat]


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

Q3_ORACLE = O.NumberField(3, [-1, 1], [[-3], [1]])      # Q_3 as senlab presents it
K2_ORACLE = O.eisenstein(3, [-3, 0, 1])                  # Q_3(sqrt 3), E = u^2 - 3

# claimed precision must reach prec - SLACK; the slack covers the digits
# the methods provably give up (division by e and by n in the recursions)
SERIES_SLACK = 12


class Series:
    """Divided-power series over Q_3 and Q_3(sqrt 3) plus the exp/log sweep."""

    name = "series"

    def __init__(self, root, seed):
        self.preimage = {}
        for key, F, trunc in (("A", K2_ORACLE, 24), ("B", K2_ORACLE, 96)):
            self.preimage[key] = O.theta_preimage_of_one(F, trunc)
        self.log_coords = O.theta_preimage_of_one(Q3_ORACLE, 96)
        self.sweep_expected = {}
        for p in (2, 3, 5, 7):
            for N in range(1, 30):
                self.sweep_expected[(p, N, "exp")] = O.exp_exact(self._exp_arg(p), p, N)
                self.sweep_expected[(p, N, "log")] = O.log_exact(self._log_arg(p), p, N)

    @staticmethod
    def _exp_arg(p):
        return 4 if p == 2 else p

    @staticmethod
    def _log_arg(p):
        return 1 + p

    def setup(self):
        return {
            "A": field.eisenstein_field(3, [-3, 0, 1], 40),
            "B": field.eisenstein_field(3, [-3, 0, 1], 60),
            "C": field.qp_field(3, 20),
            "D": field.qp_field(3, 40),
        }

    def round(self, state, rng):
        A, B, C, D = state["A"], state["B"], state["C"], state["D"]
        tasks = []
        for K, F, N in ((A, K2_ORACLE, 24), (B, K2_ORACLE, 96), (C, Q3_ORACLE, 96)):
            tasks.append(self._round_trip(K, F, N, rng))
        for key, K in (("A", A), ("B", B)):
            tasks.append(self._preimage_of_one(K, self.preimage[key]))
        for K, F, N in ((A, K2_ORACLE, 24), (C, Q3_ORACLE, 96), (B, K2_ORACLE, 96)):
            tasks.append(self._product(K, F, N, rng))
        tasks.append(self._coaction_log(D, Q3_ORACLE, 96, rng))
        tasks.append(self._coaction_log(A, K2_ORACLE, 24, rng))
        for K, F in ((A, K2_ORACLE), (C, Q3_ORACLE)):
            tasks.append(self._gsharp(K, F, 24, rng))
        for p in (2, 3, 5, 7):
            for N in range(1, 30):
                tasks.append(self._sweep(p, N, "exp"))
                tasks.append(self._sweep(p, N, "log"))
        # 28 ConvergenceErrors and 17 wrong values of the window stop rule
        return Round(tasks, known_faults=45)

    def _series(self, K, F, N, rng):
        ints = [random_coords(rng, F) for _ in range(N + 1)]
        return ints, dpseries.DPSeries(K, [program_elem(K, c) for c in ints])

    def _round_trip(self, K, F, N, rng):
        ints, g = self._series(K, F, N, rng)
        floor = K.prec - SERIES_SLACK

        def run():
            f = dpseries.solve_theta(g)
            return f, dpseries.sen_theta(f)

        def check(out):
            f, back = out
            if back.valid_to != N - 1 or not f.coeffs[0].is_zero():
                return False
            return all(elem_agrees(back.coeffs[n], ints[n], floor) for n in range(N))

        return Task("solve_theta_round_trip", run, check)

    def _preimage_of_one(self, K, expected):
        N = len(expected) - 1
        one = dpseries.DPSeries.one(K, N)
        floor = K.prec - SERIES_SLACK

        def check(f):
            return all(elem_agrees(f.coeffs[n], expected[n], floor) for n in range(N + 1))

        return Task("solve_theta_of_one", lambda: dpseries.solve_theta(one), check)

    def _product(self, K, F, N, rng):
        fi, f = self._series(K, F, N, rng)
        gi, g = self._series(K, F, N, rng)
        floor = K.prec - SERIES_SLACK

        def check(h):
            want = O.dp_product(F, fi, gi)
            if not all(elem_agrees(h.coeffs[n], want[n], floor) for n in range(N + 1)):
                return False
            if N > 24:
                return True
            # theta is a derivation: theta(fg) = theta(f) g + f theta(g)
            lhs = dpseries.sen_theta(h)
            rhs_a = dpseries.dp_mul(dpseries.sen_theta(f), g)
            rhs_b = dpseries.dp_mul(f, dpseries.sen_theta(g))
            return all(elems_equal(lhs.coeffs[n], rhs_a.coeffs[n] + rhs_b.coeffs[n], floor)
                       for n in range(N - 1))

        return Task("dp_mul", lambda: dpseries.dp_mul(f, g), check)

    def _coaction_log(self, K, F, N, rng):
        if F is Q3_ORACLE:
            b_coords = [Fraction(3 * rng.randrange(1, 30))]
            base = self.log_coords[:N + 1]
        else:
            b_coords = [Fraction(3 * rng.randrange(1, 30)), Fraction(3 * rng.randrange(0, 30))]
            base = self.preimage["A"][:N + 1]
        b = program_elem(K, b_coords)
        floor = K.prec - SERIES_SLACK

        def run():
            return dpseries.coaction(dpseries.log_t(K, N), b)

        def check(s):
            want = O.substitution(F, base, F.different(), b_coords)
            if not all(elem_agrees(s.coeffs[n], want[n], floor) for n in range(N + 1)):
                return False
            if F is not Q3_ORACLE:
                return True
            # over Q_3 (e = 1) at truncation 96 the tail clears 3^40: the
            # constant term is log(1 + b) and degrees 1..24 are unchanged
            prec = min(K.prec, s.coeffs[0].coordinates()[0].prec)
            if not O.agrees(lift(s.coeffs[0].coordinates()[0]),
                            O.log_exact(1 + b_coords[0], 3, prec), 3, prec):
                return False
            return all(O.agrees(lift(s.coeffs[n].coordinates()[0]), base[n][0], 3,
                                min(K.prec, s.coeffs[n].coordinates()[0].prec))
                       for n in range(1, 25))

        return Task("coaction_log_t", run, check)

    def _gsharp(self, K, F, N, rng):
        ints, f = self._series(K, F, N, rng)
        floor = K.prec - SERIES_SLACK

        def run():
            there = dpseries.gsharp_transport(f, "to_gsharp")
            return dpseries.gsharp_transport(there, "from_gsharp")

        def check(back):
            return all(elem_agrees(back.coeffs[n], ints[n], floor)
                       for n in range(back.valid_to + 1)) and back.valid_to == N

        return Task("gsharp_round_trip", run, check)

    def _sweep(self, p, N, kind):
        expected = self.sweep_expected[(p, N, kind)]
        if kind == "exp":
            x = PadicScalar.from_int(self._exp_arg(p), p, N)
            fn = padic.padic_exp
        else:
            x = PadicScalar.from_int(self._log_arg(p), p, N)
            fn = padic.padic_log

        def check(r):
            return r.prec == N and O.agrees(lift(r), expected, p, N)

        # fixed inputs: the stop-rule fault in sum_padic_series shows here
        return Task("padic_" + kind, lambda: fn(x), check, known_fault=True)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

K6_ORACLE = O.NumberField(3, [1, 0, 1], [[0, -3], [0], [0], [1]])   # g = y^2+1, E = u^3 - 3y
WEIGHTS = (-2, -1, 0, 1, 3)
# (field, weight multiset, nearly Hodge-Tate, group law): the multisets are
# fixed so that every round does comparable work; the seed permutes them and
# draws P and b
MODULE_LAYOUT = (
    ("K2", (-2, 0, 1, 3), True, True),
    ("K2", (-1, -1, 0, 3), True, False),
    ("K2", (-2, -1, 1, 1), True, False),
    ("K2", (-2, -1, 0, 3), False, False),
    ("K2", (-2, -2, -1, 0, 0, 1, 3, 3), True, True),
    ("K6", (-2, -1, 0, 3), True, True),
)
MODULE_PREC = 56
MODULE_SLACK = 6


def _small_b(rng, F):
    """b with v(b) = 3 exactly: 27 k on the constant coordinate with
    k = 1 mod 3, and multiples of 27 elsewhere.

    Over p = 3 the operator-series terms then have nondecreasing valuations
    up to n = 81 and exceed the target after it, which is the regime where
    the current window stop rule is provably exact.  The rule's fault is
    exercised by the fixed rank-one grid instead.  Since k = 1 mod 3 for
    both factors, b + b' + e b b' has valuation exactly 3 as well, so every
    round sums series of the same length.
    """
    coords = [Fraction(27 * rng.randrange(-20, 21)) for _ in range(F.degree)]
    coords[0] = Fraction(27 * (3 * rng.randrange(-7, 7) + 1))
    return coords


class Modules:
    """Sen modules P e diag(w) P^-1 of dimension 4 and 8, plus rank-one series."""

    name = "modules"

    def __init__(self, root, seed):
        self.e = {"K2": K2_ORACLE.different(), "K6": K6_ORACLE.different()}

    def setup(self):
        return {
            "K2": field.eisenstein_field(3, [-3, 0, 1], MODULE_PREC),
            "K6": field.build_field(field.LocalFieldSpec(
                3, [1, 0, 1], [[0, -3], [0], [0], [1]], MODULE_PREC)),
            "Q3": {N: field.qp_field(3, N) for N in (10, 20, 30)},
        }

    def round(self, state, rng):
        tasks, post_checks = [], []
        for key, multiset, ht, group_law in MODULE_LAYOUT:
            K = state[key]
            F = K2_ORACLE if key == "K2" else K6_ORACLE
            e = self.e[key]
            d = len(multiset)
            P, P_inv = O.unimodular_pair(rng, d, steps=4 * d)
            weights = list(multiset)
            rng.shuffle(weights)
            lams = [F.scale(e, w) for w in weights]
            if not ht:
                lams[0] = F.add(F.one(), lams[0])
            theta = O.conjugated_diagonal(F, P, P_inv, lams)
            M = senmod.SenModule(K, [[program_elem(K, x) for x in row] for row in theta])
            tasks.extend(self._module_tasks(M, F, lams, ht))
            if group_law:
                series_tasks, law = self._group_law(M, F, e, P, P_inv, weights, rng)
                tasks.extend(series_tasks)
                post_checks.append(law)
        K2 = state["K2"]
        for w in WEIGHTS:
            tasks.append(self._rank_one(K2, w, rng))
        for N, K in state["Q3"].items():
            for b in (3, 6, 12):
                tasks.append(self._rank_one_fixed(K, N, b))
        # the window stop rule misses the last digit at N = 10, b in {3, 6, 12}
        return Round(tasks, post_checks, known_faults=3)

    def _module_tasks(self, M, F, lams, ht):
        want_poly = O.char_poly_of_diagonal(F, lams)
        zeros = sum(1 for lam in lams if not any(lam))
        floor = MODULE_PREC - MODULE_SLACK

        def check_poly(coeffs):
            return len(coeffs) == len(want_poly) and all(
                elem_agrees(c, w, floor) for c, w in zip(coeffs, want_poly))

        def check_coh(c):
            return c.h0_dim == zeros and c.h1_dim == zeros

        return [
            Task("char_poly", lambda: senmod.char_poly(M), check_poly),
            Task("nearly_ht_test", lambda: senmod.nearly_ht_test(M),
                 lambda r: r.verdict is ht),
            Task("cohomology", lambda: senmod.cohomology(M), check_coh),
        ]

    def _group_law(self, M, F, e, P, P_inv, weights, rng):
        """S(b), S(b') and S(b + b' + e b b') as three tasks, each against the
        closed form, plus the group law S(b) S(b') = S(b + b' + e b b')
        multiplied exactly as a round check."""
        b1c, b2c = _small_b(rng, F), _small_b(rng, F)
        b3c = F.add(F.add(b1c, b2c), F.mul(e, F.mul(b1c, b2c)))
        floor = MODULE_PREC - MODULE_SLACK
        out = {}
        tasks = []
        for key, bc in (("s1", b1c), ("s2", b2c), ("s3", b3c)):
            b = program_elem(M.field, bc)
            want = O.operator_series_closed_form(F, P, P_inv, weights, e, bc)

            def check(s, key=key, want=want):
                out[key] = s
                return all(elem_agrees(x, w, floor)
                           for row, wrow in zip(s, want) for x, w in zip(row, wrow))

            tasks.append(Task("operator_series", lambda b=b: senmod.operator_series(M, b),
                              check))

        def group_law():
            s1, s2, s3 = out["s1"], out["s2"], out["s3"]
            prod = O.mat_mul(F, matrix_lift(F, s1), matrix_lift(F, s2))
            prec = min(c.prec for s in (s1, s2, s3) for row in s for x in row
                       for c in x.coordinates())
            return prec >= floor and all(
                O.agrees(a, lift(c), F.p, prec)
                for prow, srow in zip(prod, s3)
                for pv, x in zip(prow, srow)
                for a, c in zip(pv, x.coordinates()))

        return tasks, group_law

    def _rank_one(self, K, w, rng):
        F, e = K2_ORACLE, self.e["K2"]
        bc = _small_b(rng, F)
        b = program_elem(K, bc)
        M = senmod.SenModule.diagonal_weights(K, [w])
        want = F.power(F.add(F.one(), F.mul(e, bc)), w)
        floor = MODULE_PREC - MODULE_SLACK
        return Task("rank_one_binomial", lambda: senmod.operator_series(M, b),
                    lambda s: elem_agrees(s[0][0], want, floor))

    def _rank_one_fixed(self, K, N, b):
        M = senmod.SenModule.diagonal_weights(K, [-2])
        want = [O.binomial_power(b, -2)]
        bb = K.from_int(b)
        # fixed inputs: the stop-rule fault in the operator series shows here
        return Task("rank_one_binomial_fixed", lambda: senmod.operator_series(M, bb),
                    lambda s: elem_agrees(s[0][0], want, N), known_fault=True)


# ---------------------------------------------------------------------------
# cyclotomic
# ---------------------------------------------------------------------------

# (3, 1, 4) has sigma = 1 (4 = 1 mod 3): the order-one edge of the oracle
LEVELS = ((3, 1, 2), (3, 1, 4), (3, 2, 2), (3, 3, 2), (3, 2, 10), (5, 2, 2))
TWISTS = tuple(n for n in range(-10, 11) if n)
# (e, truncation, dense solve too) per level: y = (a - 1)/e has v(y) >= 1.
# The degree-20 level skips the dense route: its 40 x 40 elimination would
# sit next to g_minus_one at the 90th percentile and make it flip between
# the two from run to run.
INVERSIONS = {(3, 1, 2): (Fraction(1, 3), 8, True), (3, 2, 2): (Fraction(1, 3), 4, True),
              (3, 2, 10): (Fraction(1), 4, True), (3, 3, 2): (Fraction(1, 3), 2, True),
              (5, 2, 2): (Fraction(1, 5), 2, False)}
LEVEL_PREC = 40
SOLVE_FLOOR = LEVEL_PREC - 10


class Cyclotomic:
    """Tate bounds and Neumann inversion at levels p = 3, m = 1..3 and p = 5, m = 2."""

    name = "cyclotomic"

    def __init__(self, root, seed):
        self.oracles = {key: O.CyclotomicOracle(*key) for key in LEVELS}
        self.exponents = {key: {n: self.oracles[key].rho_exponent(n) for n in TWISTS}
                          for key in LEVELS}
        self.operators = {key: self.oracles[key].g_minus_one(e, trunc)
                          for key, (e, trunc, _dense) in INVERSIONS.items()}

    def setup(self):
        return {key: gamma.build_level(*key, LEVEL_PREC) for key in LEVELS}

    def round(self, state, rng):
        tasks = []
        seen = {}
        for key in LEVELS:
            tasks.append(self._rho(state[key], key, seen))
        for key, (e, trunc, dense) in INVERSIONS.items():
            tasks.extend(self._inversion(state[key], key, e, trunc, dense, rng))

        def delta_is_level_independent():
            deltas = [seen[(3, m, 2)] for m in (1, 2, 3)]
            return deltas[0] == deltas[1] == deltas[2]

        return Round(tasks, [delta_is_level_independent])

    def _rho(self, level, key, seen):
        want = self.exponents[key]

        def check(report):
            seen[key] = report.delta
            return report.per_n == want and report.delta == max(want.values())

        return Task("rho_bound", lambda: gamma.rho_bound(level, TWISTS), check)

    def _inversion(self, level, key, e, trunc, dense, rng):
        p = key[0]
        G = self.operators[key]
        size = trunc * level.degree
        rhs_ints = [rng.randrange(-3 ** 10, 3 ** 10 + 1) for _ in range(size)]
        rhs = [PadicScalar.from_int(x, p, LEVEL_PREC) for x in rhs_ints]
        e_scalar = PadicScalar.from_fraction(e, p, LEVEL_PREC)
        box = {}

        def build():
            box["T"] = gamma.g_minus_one(level, e_scalar, trunc)
            return box["T"]

        def check_matrix(T):
            if T.size != size:
                return False
            return all(x.prec >= SOLVE_FLOOR and O.agrees(lift(x), g, p, x.prec)
                       for row, grow in zip(T.matrix, G) for x, g in zip(row, grow))

        def check_contraction(rep):
            return rep["nilpotent"] and len(rep["power_exponents"]) <= trunc

        def solves(x):
            prec = min(c.prec for c in x)
            if prec < SOLVE_FLOOR:
                return False
            res = O.mat_vec(G, [lift(c) for c in x])
            return all(O.agrees(r, b, p, prec) for r, b in zip(res, rhs_ints))

        def neumann():
            box["neumann"] = gamma.neumann_invert(box["T"], rhs)["solution"]
            return box["neumann"]

        def check_dense(x):
            return solves(x) and all(
                O.agrees(lift(a), lift(b), p, min(a.prec, b.prec))
                for a, b in zip(x, box["neumann"]))

        tasks = [
            Task("g_minus_one", build, check_matrix),
            Task("contraction_report", lambda: box["T"].contraction_report(),
                 check_contraction),
            Task("neumann_invert", neumann, solves),
        ]
        if dense:
            tasks.append(Task("dense_solve", lambda: gamma.dense_solve(box["T"], rhs),
                              check_dense))
        return tasks


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_PREC = 40
# name -> (p, integer Eisenstein polynomial of the presentation)
CLI_FIELDS = {
    "q5": (5, [-5, 1]),
    "q5z5": (5, O.cyclotomic_poly_shifted(5, 1)),
    "q3z9": (3, O.cyclotomic_poly_shifted(3, 2)),
    "q3z27": (3, O.cyclotomic_poly_shifted(3, 3)),
    "q5z25": (5, O.cyclotomic_poly_shifted(5, 2)),
}
SMALL_FIELDS = ("q5", "q5z5", "q3z9")


def _spec_json(p, coeffs, prec=CLI_PREC):
    return {"p": p, "prec": prec, "unramified_poly": ["-1", "1"],
            "eisenstein_poly": [[str(c)] for c in coeffs]}


def _elem_json(coords):
    return {"coeffs": [[str(int(c)) for c in coords]]}


def _scalar_value(obj):
    """(value, prec) of a wire-format scalar."""
    p, prec = obj["p"], obj["prec"]
    if obj["val"] is None:
        return Fraction(0), prec
    return Fraction(p) ** obj["val"] * int(obj["unit"]), prec


def _coords_of(elem_obj):
    return [_scalar_value(s) for row in elem_obj["coeffs"] for s in row]


class Cli:
    """README commands as fresh processes (one child at a time)."""

    name = "cli"
    in_process = False

    def __init__(self, root, seed):
        self.root = root
        self.workdir = os.path.join(root, "bench", "out", "cli-%d-%d" % (seed, os.getpid()))
        self.env = dict(os.environ)
        self.env.pop("SENLAB_PREC", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.oracles = {name: O.eisenstein(p, E) for name, (p, E) in CLI_FIELDS.items()}
        self.traces = {name: O.totally_ramified_traces(E, -2, len(E) - 2)
                       for name, (p, E) in CLI_FIELDS.items()}
        self.gamma_exponents = {key: {n: O.CyclotomicOracle(*key).rho_exponent(n)
                                      for n in TWISTS} for key in ((3, 2, 10), (3, 1, 2))}
        self.counter = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        specs = dict((name, _spec_json(p, E)) for name, (p, E) in CLI_FIELDS.items())
        specs["q3sqrt3"] = _spec_json(3, [-3, 0, 1])
        specs["p4"] = _spec_json(4, [-4, 1], prec=20)
        specs["p0"] = _spec_json(0, [0, 1], prec=20)
        built = {}
        for name, spec in specs.items():
            with open(self.path(name + ".json"), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            if name not in ("p4", "p0"):
                built[name] = jsonio.decode_field_spec(spec)
        for name in ("q3sqrt3", "q5z5"):
            degree = len(specs[name]["eisenstein_poly"]) - 1
            with open(self.path("one-%s.json" % name), "w", encoding="utf-8") as fh:
                json.dump({"coeffs": [{"coeffs": [["1"] + ["0"] * (degree - 1)]}]}, fh)
        return built

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- running one command -----------------------------------------------

    def invoke(self, argv):
        """(exit code, stdout) of one command, as a child or in-process."""
        if self.in_process:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:       # what a child would report as exit code 1
                code = 1
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "senlab.cli"] + argv,
                              capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=170)
        return proc.returncode, proc.stdout

    def import_time_ms(self):
        """import senlab.cli measured inside a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import senlab.cli; "
                "print((time.perf_counter() - t) * 1000.0)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=self.env, cwd=self.workdir, timeout=170)
        return float(proc.stdout.strip())

    def _write(self, stem, obj):
        self.counter += 1
        path = self.path("%s-%d.json" % (stem, self.counter))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _task(self, name, argv, check, known_fault=False):
        def run():
            return self.invoke(argv)

        def checked(out):
            code, text = out
            if known_fault:
                return code in (2, 3, 4, 5) and "error" in json.loads(text)
            return code == 0 and check(json.loads(text))

        return Task(name, run, checked, known_fault)

    # -- the round ---------------------------------------------------------

    def round(self, state, rng):
        tasks = []
        for name in CLI_FIELDS:
            tasks.append(self._build(name))
        for name in CLI_FIELDS:
            # six on each small field: two rounds then hold 142 commands, and
            # their 90th percentile falls in the middle of the degree-18
            # commands rather than between them and the degree-20 ones
            for _ in range(6 if name in SMALL_FIELDS else 1):
                tasks.append(self._trace(name, rng, "trace"))
                tasks.append(self._trace(name, rng, "boundary"))
        for name in SMALL_FIELDS:
            for _ in range(2):
                tasks.append(self._kernel(name, rng.randrange(0, 3)))
                tasks.append(self._witness(name, rng.randrange(0, 5)))
        # once each on the degree-18 and degree-20 fields, where they take seconds
        tasks.append(self._kernel("q3z27", rng.randrange(0, 3)))
        tasks.append(self._witness("q5z25", rng.randrange(0, 5)))
        for ext in ("q5z5", "q5z25"):
            tasks.append(self._functorial(ext, rng))
        tasks.append(self._delta((3, 2, 10)))
        tasks.append(self._delta((3, 1, 2)))
        for ht in (True, False, True, False):
            tasks.append(self._nearly_ht(rng, ht))
        tasks.append(self._solve_theta("q3sqrt3"))
        tasks.append(self._solve_theta("q5z5"))
        # fixed inputs: p is never checked for primality
        for bad in ("p4", "p0"):
            tasks.append(self._task("field_build_bad_prime",
                                    ["field", "build", "--spec", self.path(bad + ".json")],
                                    None, known_fault=True))
        # both bad primes fail: p = 4 exits 0, p = 0 exits 1
        return Round(tasks, known_faults=2)

    def _build(self, name):
        p, E = CLI_FIELDS[name]
        F = self.oracles[name]
        e = F.different()

        def check(out):
            if (out["p"], out["degree"], out["ramification_index"], out["residue_degree"]) \
                    != (p, F.degree, F.e, 1):
                return False
            got = _coords_of(out["different_e"])
            if any(prec < CLI_PREC - 2 or not O.agrees(v, w, p, prec)
                   for (v, prec), w in zip(got, e)):
                return False
            return Fraction(int(out["v_e"]["num"]), int(out["v_e"]["den"])) == F.valuation(e)

        return self._task("field_build", ["field", "build", "--spec", self.path(name + ".json")],
                          check)

    def _trace_of(self, name, coords):
        tr = self.traces[name]
        return sum((c * tr[k] for k, c in enumerate(coords)), Fraction(0))

    def _trace(self, name, rng, kind):
        p, _E = CLI_FIELDS[name]
        coords = [Fraction(rng.randrange(-p ** 8, p ** 8 + 1)) for _ in range(self.oracles[name].degree)]
        elem = self._write("elem", _elem_json(coords))
        tr = self._trace_of(name, coords)
        spec = self.path(name + ".json")
        if kind == "trace":
            def check(out):
                v, prec = _scalar_value(out["trace"])
                return prec >= CLI_PREC and O.agrees(v, tr, p, prec)
            return self._task("field_trace", ["field", "trace", "--field", spec, "--elem", elem],
                              check)
        num, den_pow = O.boundary_of_trace(tr, p)

        def check(out):
            return (int(out["num"]), out["den_pow"], out["in_kernel"]) == (num, den_pow, den_pow == 0)

        return self._task("picard_boundary", ["picard", "boundary", "--field", spec, "--elem", elem],
                          check)

    def _kernel(self, name, s):
        p, _E = CLI_FIELDS[name]
        F = self.oracles[name]
        tr = self.traces[name]
        mu = min(O.vp(tr[k - s], p) for k in range(F.degree) if tr[k - s])
        order = max(0, 1 - mu)

        def check(out):
            if out["image_order_exponent"] != order or len(out["basis"]) != F.degree:
                return False
            for x in out["basis"]:
                t = sum((v * tr[k] for k, (v, _prec) in enumerate(_coords_of(x))), Fraction(0))
                if t and O.vp(t, p) < 1:
                    return False
            return True

        return self._task("picard_kernel", ["picard", "kernel", "--field", self.path(name + ".json"),
                                            "--s", str(s)], check)

    def _witness(self, name, k):
        p, _E = CLI_FIELDS[name]

        def check(out):
            coords = _coords_of(out["witness"])
            t = self._trace_of(name, [v for v, _prec in coords])
            num, den_pow = O.boundary_of_trace(t, p)
            return den_pow == k and (int(out["boundary"]["num"]), out["boundary"]["den_pow"]) \
                == (num, den_pow)

        return self._task("picard_witness", ["picard", "witness", "--field", self.path(name + ".json"),
                                             "--k", str(k)], check)

    def _functorial(self, ext, rng):
        j = rng.randrange(0, 3)
        unit = rng.choice([u for u in range(1, 200) if u % 5])
        x = Fraction(unit, 5 ** j)
        elem = self._write("scalar", {"coeffs": [[{"p": 5, "val": -j, "unit": str(unit),
                                                    "prec": CLI_PREC}]]})
        rel = self.oracles[ext].degree
        num, den_pow = O.boundary_of_trace(rel * x, 5)

        def check(out):
            want = {"num": str(num), "den_pow": den_pow}
            return out["equal"] is True and out["relative_degree"] == rel and all(
                {"num": out[side]["num"], "den_pow": out[side]["den_pow"]} == want
                for side in ("lhs", "rhs"))

        return self._task("picard_functorial",
                          ["picard", "functorial", "--field", self.path("q5.json"),
                           "--ext", self.path(ext + ".json"), "--elem", elem], check)

    def _delta(self, key):
        p, m, a = key
        want = self.gamma_exponents[key]

        def check(out):
            got = {int(n): Fraction(int(v["num"]), int(v["den"])) for n, v in out["per_n"].items()}
            delta = Fraction(int(out["delta"]["num"]), int(out["delta"]["den"]))
            return got == want and delta == max(want.values())

        return self._task("gamma_delta", ["gamma", "delta", "--p", str(p), "--m", str(m),
                                          "--a", str(a), "--nmin", "-10", "--nmax", "10"], check)

    def _nearly_ht(self, rng, ht):
        F = K2_ORACLE
        e = F.different()
        d = 3
        P, P_inv = O.unimodular_pair(rng, d)
        lams = [F.scale(e, rng.choice(WEIGHTS)) for _ in range(d)]
        if not ht:
            lams[0] = F.add(F.one(), lams[0])
        theta = O.conjugated_diagonal(F, P, P_inv, lams)
        path = self._write("theta", [[{"coeffs": [[str(int(c)) for c in x]]} for x in row]
                                     for row in theta])
        return self._task("senmod_nearly_ht",
                          ["senmod", "nearly-ht", "--field", self.path("q3sqrt3.json"),
                           "--theta", path], lambda out: out["verdict"] is ht)

    def _solve_theta(self, name):
        F = K2_ORACLE if name == "q3sqrt3" else self.oracles[name]
        want = O.theta_preimage_of_one(F, 24)
        p = F.p
        one = self.path("one-%s.json" % name)

        def check(out):
            coeffs = out["result"]["coeffs"]
            if len(coeffs) != 25:
                return False
            for got, w in zip(coeffs, want):
                for (v, prec), x in zip(_coords_of(got), w):
                    if prec < CLI_PREC - 12 or not O.agrees(v, x, p, prec):
                        return False
            return True

        return self._task("dps_solve_theta",
                          ["dps", "solve-theta", "--field", self.path(name + ".json"),
                           "--g", one, "--trunc", "24"], check)


WORKLOADS = {w.name: w for w in (Series, Modules, Cyclotomic, Cli)}
