"""The benchmark's workloads: fixed task lists of shiftlab verdict jobs.

Each task is a job a user of the command line or the library would run.  It
builds its own oracle from scratch and calls the layers through the tracer
``t`` (see ``tracing.py``).  Every task checks its answers against facts the
code under test does not compute itself: known complexity functions, graph
identities, brute-force rescans and the CLI report digests recorded in
``cli_digests.json``.  A wrong answer raises :class:`WrongVerdict`.

Inputs are fixed files under ``bench/inputs`` plus values drawn from the
workload seed when the task list is built; the program sees only those.

Every task is kept short (tens of milliseconds, none above 0.2 s on a 2 GHz
Xeon), so a run holds dozens of passes and each task's fastest pass is a
steady figure on a shared machine; see ``best_latencies`` in ``run.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from shiftlab import cli
from shiftlab.abstract_graphs import (
    bound_check,
    build_xi,
    exhaustive_bound_probe,
    graph_from_json,
    move_effect,
    random_abc_move,
    random_graph_with_loops,
    random_twist_shrink_log,
    search_colorings,
    validate,
)
from shiftlab.density import special_density_floor, special_window_check
from shiftlab.errors import HorizonExceeded
from shiftlab.exitwords import (
    check_overlap_bound,
    classify_occurrence,
    decompose,
    enumerate_exit_words,
)
from shiftlab.generators import (
    IETSpec,
    SequencePrefix,
    SubstitutionSpec,
    iet_encode,
    oracle_from_prefix,
    rotation_coding,
    substitution_fixed_point,
)
from shiftlab.language import (
    LanguageOracle,
    analysis_report,
    check_rbc,
    growth_profile,
    periodicity_check,
)
from shiftlab.rauzy import build_rauzy, build_special_rauzy, evolve
from shiftlab.words import Alphabet, Word, minimal_step, valid_steps

BENCH = Path(__file__).resolve().parent
# CLI reports embed their input paths, so these stay relative to the repo root
INPUTS = "bench/inputs"

ZO = Alphabet(("0", "1"))
AB = Alphabet(("a", "b"))
FIBONACCI = SubstitutionSpec(AB, {"a": ("a", "b"), "b": ("a",)}, "a")
IET3 = IETSpec(
    (Fraction(169, 408), Fraction(233, 610), Fraction(25363, 124440)),
    (3, 2, 1),
    Fraction(1, 7),
)
IET4 = IETSpec(
    (
        Fraction(670085, 2688988),
        Fraction(154479, 672247),
        Fraction(592127, 2688988),
        Fraction(202215, 672247),
    ),
    (4, 3, 2, 1),
    Fraction(1, 7),
)
BLOCK_W = ZO.word("1111")
BLOCK_Z = ZO.word("0" + "1" * 15 + "0")  # the README block word

# the README command-line examples, the two 1e5-letter ones at 5000 letters
# to keep every task short; names key the recorded report digests
CLI_EXAMPLES = (
    ("analyze-fib", ["analyze", "--substitution", f"{INPUTS}/fib.json", "--horizon", "40"]),
    ("analyze-iet3", ["analyze", "--iet", f"{INPUTS}/iet3.json", "--horizon", "40",
                      "--length", "5000"]),
    ("rauzy-fib-dot", ["rauzy", "--substitution", f"{INPUTS}/fib.json", "--horizon", "12",
                       "--n", "4", "--format", "dot"]),
    ("evolve-fib", ["evolve", "--substitution", f"{INPUTS}/fib.json", "--horizon", "16",
                    "--n", "2", "--n-max", "10"]),
    ("exitwords-block", ["exitwords", "--seq", f"{INPUTS}/block.txt", "--horizon", "20",
                         "--w", "1111", "--q", "3", "--z", BLOCK_Z.data]),
    ("density-fib", ["density", "--substitution", f"{INPUTS}/fib.json", "--horizon", "24",
                     "--length", "5000", "--n", "8", "--special", "--window-check"]),
    ("abstract-k3", ["abstract", "--graph", f"{INPUTS}/k3.json", "--search", "2"]),
    ("xi-itinerary", ["xi", "--itinerary", f"{INPUTS}/itinerary.json"]),
)


class WrongVerdict(Exception):
    """A task produced an answer that contradicts the known one."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongVerdict(what)


@dataclass(frozen=True)
class Sizes:
    prefix: int  # letters per sequence prefix
    horizon: int  # oracle horizon of the sequence pipelines
    deep_horizon: int  # horizon of the deep Fibonacci pipeline
    floors: dict[int, tuple[int, ...]]  # density-floor lengths by branching constant
    classify_samples: int  # occurrences checked one by one against a rescan
    full_shift_h: int
    bernoulli_prefixes: int
    bernoulli: int  # letters of each Bernoulli prefix
    bernoulli_h: int
    rauzy_ns: tuple[int, ...]
    step_words_max: int  # valid_steps runs on every binary word up to this length
    bound_batches: int
    bound_instances: int  # per batch
    move_batches: int
    batch_moves: int
    probe_vertices: int


FULL = Sizes(
    prefix=4_000,
    horizon=32,
    deep_horizon=64,
    floors={1: (4, 8, 16), 2: (5, 10, 20), 3: (5, 10, 20)},
    classify_samples=50,
    full_shift_h=15,
    bernoulli_prefixes=2,
    bernoulli=20_000,
    bernoulli_h=11,
    rauzy_ns=(7, 8),
    step_words_max=10,
    bound_batches=4,
    bound_instances=25,
    move_batches=10,
    batch_moves=50,
    probe_vertices=4,
)

# a few seconds for all three workloads, for the harness self-test
SMOKE = Sizes(
    prefix=5_000,
    horizon=16,
    deep_horizon=30,
    floors={1: (4, 6), 2: (4, 6), 3: (4, 6)},
    classify_samples=20,
    full_shift_h=12,
    bernoulli_prefixes=1,
    bernoulli=5_000,
    bernoulli_h=9,
    rauzy_ns=(4, 5),
    step_words_max=8,
    bound_batches=1,
    bound_instances=10,
    move_batches=2,
    batch_moves=10,
    probe_vertices=4,
)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable  # run(t) with t a tracing.Tracer


def build(workload: str, seed: int, sizes: Sizes) -> list[Task]:
    """Draw the seeded inputs and return the workload's fixed task list."""
    rng = random.Random(seed)
    return BUILDERS[workload](rng, sizes)


# -- sequence-verdicts ---------------------------------------------------------


def _cli_task(name: str, argv: list[str], digest: str) -> Task:
    def run(t) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = t(cli.main, argv)
        expect(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        report = out.getvalue().encode()
        t.count("cli.report_bytes", len(report))
        expect(hashlib.sha256(report).hexdigest() == digest, "report digest changed")

    return Task(f"cli-{name}", run)


def _brute_classify(x: SequencePrefix, w: Word, q: int, j: int):
    """Rescan from the definition: the periodic run through position ``j``."""
    period = w.data[:q]
    lo = j
    while lo > 1 and x.data[lo - 2] == period[(lo - 1 - j) % q]:
        lo -= 1
    if lo == 1:
        return ("suffix-of-power", None)
    hi = j + len(w) - 1
    while hi < len(x.data) and x.data[hi] == period[(hi + 1 - j) % q]:
        hi += 1
    if hi == len(x.data):
        return ("insufficient", None)
    return ("inside-exit-word", (lo - 1, hi + 1))


def _periodic_word(t, oracle: LanguageOracle) -> tuple[Word, int]:
    """The least factor of length 6 or more that has a valid step, and that step."""
    for length in range(6, 2 * oracle.horizon // 3 + 1):
        for w in oracle.words(length):
            q = t(minimal_step, w, oracle)
            if q is not None:
                return w, q
    raise WrongVerdict("no factor within the horizon has a valid step")


def _pipeline(name: str, make_prefix: Callable, horizon: int, K: int, sizes: Sizes) -> Task:
    """generator -> oracle -> growth, periodicity, RBC -> density floors and
    windows -> evolve chain -> occurrence classification and overlap bounds.

    Every input here is an aperiodic sequence with p(n) = K n + 1
    (Sturmian: K = 1; interval exchange on d intervals: K = d - 1).
    """

    def run(t) -> None:
        x = make_prefix(t)
        oracle = t(oracle_from_prefix, x, horizon)
        t.count("generators.factors_stored", sum(oracle.p(n) for n in range(1, horizon + 1)))
        profile = t(growth_profile, oracle)
        expect(
            all(profile.p[n] == K * n + 1 for n in range(1, horizon + 1)),
            f"complexity is not {K}n+1",
        )
        expect(profile.K == K, f"branching constant {profile.K}, expected {K}")
        expect(not t(periodicity_check, oracle).periodic_within_horizon, "reported periodic")
        expect(t(check_rbc, oracle).holds_within_horizon, "regular-bispecial condition fails")

        for n in sizes.floors[K]:
            for side in ("left", "right"):
                floor = t(special_density_floor, oracle, x, n, side, K)
                expect(
                    floor.passed and floor.best >= Fraction(1, K) - Fraction(1, 20),
                    f"density floor fails at n={n} side={side}",
                )
            window = t(special_window_check, oracle, x, n, K)
            t.count("density.windows_checked", window.windows)
            expect(
                window.ok and window.windows == len(x) - (K + 2) * n + 2,
                f"window check fails at n={n}",
            )

        n, events = (2 if K == 1 else 3), 0
        while events < 5:
            try:
                step = t(evolve, oracle, n)
            except HorizonExceeded:
                break
            events += len(step.rbs_events)
            expect(step.profile_preserved, f"type profile changed at {step.n_prime}")
            expect(
                step.after.edge_count - step.after.vertex_count == K,
                f"special graph at {step.n_prime} breaks edges - vertices = K",
            )
            n = step.n_prime
        t.count("rauzy.evolve.events", events)
        expect(events > 0, "no rewrite event within the horizon")

        w, q = _periodic_word(t, oracle)
        starts = []
        i = x.data.find(w.data)
        while i != -1:
            starts.append(i + 1)
            i = x.data.find(w.data, i + 1)
        stride = max(1, len(starts) // sizes.classify_samples)
        for j in starts[::stride]:
            case, span = _brute_classify(x, w, q, j)
            if case == "insufficient":
                try:
                    t(classify_occurrence, x, w, j, oracle)
                except HorizonExceeded:
                    continue
                raise WrongVerdict(f"occurrence at {j} classified past the prefix end")
            got = t(classify_occurrence, x, w, j, oracle)
            expect(got.case == case, f"occurrence at {j}: {got.case}, expected {case}")
            if span is not None:
                expect((got.exit_start, got.exit_end) == span, f"exit word at {j} misplaced")
        overlap = t(check_overlap_bound, x, w, q, oracle)
        expect(overlap.all_satisfied and overlap.pairs, "overlap bounds fail")

    return Task(name, run)


def _sequence_verdicts(rng: random.Random, sizes: Sizes) -> list[Task]:
    digests = json.loads((BENCH / "cli_digests.json").read_text())
    tasks = [_cli_task(name, argv, digests[name]) for name, argv in CLI_EXAMPLES]
    N = sizes.prefix

    def fib(t):
        return t(substitution_fixed_point, FIBONACCI, N)

    def iet(spec):
        def make(t):
            prefix, keane = t(iet_encode, spec, N)
            expect(not keane.violated, "orbit hit a division point")
            return prefix
        return make

    def rotation(quotients):
        return lambda t: t(rotation_coding, quotients, N)

    tasks += [
        _pipeline(f"fibonacci-h{sizes.horizon}", fib, sizes.horizon, 1, sizes),
        _pipeline("fibonacci-deep", fib, sizes.deep_horizon, 1, sizes),
        _pipeline("iet3", iet(IET3), sizes.horizon, 2, sizes),
        _pipeline("iet4", iet(IET4), sizes.horizon, 3, sizes),
    ]
    for i in (1, 2):
        # 30 quotients keep the convergent's denominator above 1e6, so the
        # coding is Sturmian on the whole prefix
        quotients = [rng.randint(1, 3) for _ in range(30)]
        tasks.append(_pipeline(f"rotation-{i}", rotation(quotients), sizes.horizon, 1, sizes))
    return tasks


# -- wide-language -------------------------------------------------------------


def _periods(data: str) -> list[int]:
    """Steps by definition: q <= n/2 with w[i] == w[i+q]; in the full shift
    every doubled power is a factor, so all of them are valid."""
    n = len(data)
    return [q for q in range(1, n // 2 + 1) if data[q:] == data[: n - q]]


def _wide_language(rng: random.Random, sizes: Sizes) -> list[Task]:
    H = sizes.full_shift_h

    def full_shift_exit_words(t) -> None:
        oracle = t(LanguageOracle.full_shift, ZO, H)
        profile = t(growth_profile, oracle)
        expect(all(profile.p[n] == 2**n for n in range(1, H + 1)), "p(n) != 2^n")
        report = t(enumerate_exit_words, BLOCK_W, 3, oracle)
        t.count("exitwords.exit_words_found", len(report.exit_words))
        if len(BLOCK_Z) <= H:
            expect(BLOCK_Z in [e.z for e in report.exit_words], "block word not enumerated")
        reps = [r.as_tuple() for r in t(decompose, BLOCK_Z, BLOCK_W, 3, oracle)]
        expect(("0", 4, "110") in reps, "block word does not decompose as (0, 4, 110)")

    # every word no longer than log2(N) - 4 is expected at least 16 times
    # (19 at N = 2e4), so one missing is a wrong answer, not bad luck
    full_below = int(math.log2(sizes.bernoulli)) - 4

    def bernoulli_oracle(t, prefix: SequencePrefix) -> LanguageOracle:
        h = sizes.bernoulli_h
        oracle = t(oracle_from_prefix, prefix, h)
        t.count("generators.factors_stored", sum(oracle.p(n) for n in range(1, h + 1)))
        return oracle

    def bernoulli_report(prefix: SequencePrefix):
        def run(t) -> None:
            report = t(analysis_report, bernoulli_oracle(t, prefix))
            p = report["growth"]["p"]
            expect(all(p[n - 1] == 2**n for n in range(1, full_below + 1)), "p(n) != 2^n")
            expect(not report["periodicity"]["periodic_within_horizon"], "reported periodic")
        return run

    def bernoulli_rauzy(prefix: SequencePrefix):
        def run(t) -> None:
            oracle = bernoulli_oracle(t, prefix)
            for n in sizes.rauzy_ns:
                g = t(build_rauzy, oracle, n)
                expect(
                    (len(g.vertices), len(g.edges)) == (2**n, 2 ** (n + 1)),
                    f"factor graph at n={n} has wrong size",
                )
            n = sizes.rauzy_ns[-1]
            sg = t(build_special_rauzy, oracle, n)
            expect(sg.edge_count - sg.vertex_count == 2**n, "special graph breaks edges - vertices = p(n+1) - p(n)")
        return run

    words = [
        ZO.word_from_codes(format(bits_, f"0{n}b"))
        for n in range(1, sizes.step_words_max + 1)
        for bits_ in range(2**n)
    ]
    periods = [_periods(w.data) for w in words]

    def step_table(t) -> None:
        oracle = t(LanguageOracle.full_shift, ZO, H)
        for w, expected in zip(words, periods):
            got = [c.q for c in t(valid_steps, w, oracle)]
            expect(got == expected, f"valid steps of {w}: {got}, expected {expected}")

    tasks = [Task("full-shift-exit-words", full_shift_exit_words)]
    for i in range(1, sizes.bernoulli_prefixes + 1):
        bits = "".join(rng.choice("01") for _ in range(sizes.bernoulli))
        prefix = SequencePrefix(ZO, bits, "bernoulli p=1/2", recurrent=None)
        tasks += [Task(f"bernoulli-report-{i}", bernoulli_report(prefix)),
                  Task(f"bernoulli-rauzy-{i}", bernoulli_rauzy(prefix))]
    tasks.append(Task("step-table", step_table))
    return tasks


# -- loop-bound ----------------------------------------------------------------


def _loop_bound(rng: random.Random, sizes: Sizes) -> list[Task]:
    k3_file = json.loads((BENCH / "inputs" / "k3.json").read_text())
    k3 = graph_from_json(k3_file["graph"])

    def quotient_bounds(seed: int):
        def run(t) -> None:
            r = random.Random(seed)
            for _ in range(sizes.bound_instances):
                graph, loops = t(random_graph_with_loops, r)
                moves = t(random_twist_shrink_log, r, graph, loops, r.randint(0, 5))
                E = len(loops)
                xi = t(build_xi, graph, loops, moves)
                expect(len(xi.edges) - len(xi.vertices) == graph.K - 2 * E, "|E(Xi)|-|V(Xi)| != K-2E")
                report = t(bound_check, graph, loops, moves)
                if report.xi_connected:
                    # a connected graph has at least |V| - 1 edges
                    expect(2 * E <= graph.K + 1 and report.bound_satisfied, "loop bound fails")
        return run

    def move_effects(seed: int):
        def run(t) -> None:
            r = random.Random(seed)
            done = 0
            while done < sizes.batch_moves:
                graph, loops = t(random_graph_with_loops, r)
                mv = t(random_abc_move, r, graph, loops)
                if mv is None:
                    continue
                effect = t(move_effect, graph, loops, mv)
                done += 1
                if effect.kind in ("A", "C"):
                    expect(effect.before.as_set() == effect.after.as_set(), "A/C move changed tags")
                else:
                    expect(
                        len(effect.before.components) - len(effect.after.components) in (0, 1),
                        "B move merged more than two components",
                    )
                    expect(
                        all(effect.ejected not in set().union(*tag) for tag in effect.after.tags),
                        "ejected vertex still tagged",
                    )
        return run

    def k3_search(t) -> None:
        res = t(search_colorings, k3, 2)
        t.count("abstract_graphs.candidates_tried", res.candidates_tried)
        t.count("abstract_graphs.colorings_found", int(res.found is not None))
        expect(res.found is not None, "no 2-loop coloring on the K=3 example")
        coloring, loops = res.found
        expect(len(loops) == 2 and t(validate, k3, coloring).ok, "found coloring is invalid")

    def probe(e_target: int, attainable: bool):
        def run(t) -> None:
            cert, witness = t(exhaustive_bound_probe, 3, e_target, sizes.probe_vertices)
            t.count("abstract_graphs.graphs_examined", cert.graphs_examined)
            t.count("abstract_graphs.witnesses", cert.witnesses)
            expect(cert.graphs_examined > 0, "probe examined no graphs")
            if attainable:
                expect(witness is not None, f"no witness for E={e_target} at K=3")
                graph, coloring, loops = witness
                expect(len(loops) == e_target and t(validate, graph, coloring).ok, "invalid witness")
            else:
                # 2E <= K + 1 rules out E = 3 at K = 3
                expect(cert.impossible and witness is None, f"witness for E={e_target} at K=3")
        return run

    tasks = [
        Task(f"quotient-bounds-{i}", quotient_bounds(rng.getrandbits(64)))
        for i in range(1, sizes.bound_batches + 1)
    ]
    tasks += [
        Task(f"move-effects-{i}", move_effects(rng.getrandbits(64)))
        for i in range(1, sizes.move_batches + 1)
    ]
    tasks += [
        Task("k3-search", k3_search),
        Task("probe-k3-e2", probe(2, attainable=True)),
        Task("probe-k3-e3", probe(3, attainable=False)),
    ]
    return tasks


BUILDERS = {
    "sequence-verdicts": _sequence_verdicts,
    "wide-language": _wide_language,
    "loop-bound": _loop_bound,
}
