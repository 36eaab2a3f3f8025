"""Mutation runner for the differential tests.

Each row of ``MUTANTS`` names a file under ``src/``, an exact text in it,
the text that replaces it, the test node ids that must kill the mutant,
and the expected verdict: ``killed``, or ``equivalent`` with the reason.
For each row the runner copies ``src/`` to a temporary directory, applies
that one replacement, runs the named tests against the copy with
``pytest -x -q`` and prints one verdict line.  Before the rows it runs
every named test once against an unchanged copy, since a test that
already fails would "kill" every mutant.

    python tests/mutants.py              # every row
    python tests/mutants.py NAME ...     # the named rows only

It exits non-zero when a mutant expected to be killed survives, when an
equivalent one is killed, or when an old text does not occur exactly once
in its file.  Stdlib only; pytest does not collect this file.  A fast path
adds its mutants here as rows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str = "killed"  # or "equivalent"
    reason: str = ""


DERIVED_INDEX = "tests/test_rbs_admissibility.py::test_derived_index_matches_fresh_index"
REWRITE_MEMO = "tests/test_rbs_admissibility.py::test_rewrite_memo_matches_fresh_graph"
RANDOM_MOVES = "tests/test_random_moves.py"
TRACK_REFERENCE = f"{RANDOM_MOVES}::test_track_move_matches_label_order_reference"
LOOP_KERNELS = "tests/test_loop_kernels.py"
GRAPHS = "shiftlab/abstract_graphs.py"
LANGUAGE = "shiftlab/language.py"
FULL_SHIFT = "tests/test_language.py::TestComputedFullShift"
RAUZY = "shiftlab/rauzy.py"
EVOLVE_REFERENCE = "tests/test_rauzy.py::TestEvolveMatchesReference"
EXITWORDS = "shiftlab/exitwords.py"
LAYOUTS = "tests/test_exitword_layouts.py"
OVERLAP_NAIVE = "tests/test_exitwords.py::TestOverlapScanMatchesNaive"
DENSITY = "shiftlab/density.py"
BLOCK_HITS = "tests/test_density.py::TestBlockHitsMatchReference"
PREFIX = "shiftlab/generators.py"
PREFIX_REFUSAL = "tests/test_factor_engine.py::TestPrefixRefusal"
WINDOWS = (
    "tests/test_factor_engine.py::TestWindows::test_matches_naive_levels",
    "tests/test_factor_engine.py::TestAgainstNaiveReference",
)
WINDOWS_MEMORY = "tests/test_factor_engine.py::TestWindows::test_compiled_format_not_retained"
REPLAY = "tests/test_itinerary_replay.py"
ITINERARY = "tests/test_abstract_graphs.py::TestItinerary"
SELF_LOOP = "tests/test_rbs_admissibility.py::test_untouched_self_loop_not_blamed"

MUTANTS = (
    Mutant(
        "derived index: u's in-list not sorted",
        GRAPHS,
        "    ins[u] = sorted([e0, *(e for e in ins[u] if e != chosen_in)])\n",
        "    ins[u] = [e0, *(e for e in ins[u] if e != chosen_in)]\n",
        (DERIVED_INDEX,),
    ),
    Mutant(
        "derived index: v's out-list left stale",
        GRAPHS,
        "    outs[v] = sorted([e0, *(e for e in outs[v] if e != chosen_out)])\n",
        "",
        (DERIVED_INDEX,),
    ),
    Mutant(
        "union-find: union without find on one side",
        "shiftlab/_graphutil.py",
        "            while (p := parent[b]) != b:\n"
        "                parent[b] = b = parent[p]\n",
        "",
        ("tests/test_graph_index.py::TestWeakComponents::test_matches_naive_dfs",),
    ),
    Mutant(
        "loop check: the consecutive-edge check stops one pair short",
        GRAPHS,
        "targets[:-1] != verts[1:]",
        "targets[:-2] != verts[1:-1]",
        (f"{LOOP_KERNELS}::TestCheckLoops::test_matches_reference_on_random_states",),
    ),
    Mutant(
        "checked families: a key without labels",
        GRAPHS,
        "    key = tuple((lab, loops[lab].edges) for lab in labels)\n",
        "    key = tuple(loops[lab].edges for lab in labels)\n",
        (f"{LOOP_KERNELS}::TestCheckLoops",),
        expect="equivalent",
        reason="whether a family is accepted depends on its loops' edges alone; "
        "the labels only order the checks, which decides which refusal is "
        "raised, and a refused family is never kept",
    ),
    Mutant(
        "checked families: a key without edges",
        GRAPHS,
        "    key = tuple((lab, loops[lab].edges) for lab in labels)\n",
        "    key = tuple(labels)\n",
        (f"{LOOP_KERNELS}::TestCheckLoops",),
    ),
    Mutant(
        "checked families: a refused family stored",
        GRAPHS,
        "    if key in checked:\n        return\n",
        "    if key in checked:\n        return\n    checked.add(key)\n",
        (f"{LOOP_KERNELS}::TestCheckLoops::test_refused_family_is_never_kept",),
    ),
    Mutant(
        "random instances: an edge appended to its source's in-list",
        GRAPHS,
        "        ins[d].append(eid)\n",
        "        ins[s].append(eid)\n",
        (f"{LOOP_KERNELS}::TestIndexes::test_generator_index_matches_arc_index",),
    ),
    Mutant(
        "random moves: a collapse is accepted",
        GRAPHS,
        "        if kind != COLLAPSE:\n"
        "            return mv, graph_after, loops_after\n",
        "        return mv, graph_after, loops_after\n",
        (f"{RANDOM_MOVES}::test_generators_match_old_first_tracked",),
    ),
    Mutant(
        "local admissibility: the search runs from v to u",
        GRAPHS,
        "reaches(u, v, successors_after)",
        "reaches(v, u, successors_after)",
        ("tests/test_rbs_admissibility.py::test_local_admissibility_matches_whole_graph_reference",),
    ),
    Mutant(
        "graph enumeration: counts tried from low to high",
        GRAPHS,
        "        for c in range(hi, lo - 1, -1):\n",
        "        for c in range(lo, hi + 1):\n",
        ("tests/test_graph_enumeration.py::test_matches_naive_in_order",),
    ),
    Mutant(
        "random instances: an ear without its edge back to the core",
        GRAPHS,
        "        add(rng.choice(ring_rights), rng.choice(core_lefts))\n",
        "",
        ("tests/test_abstract_graphs.py::TestRandomInstances::test_instances_valid_by_construction",),
    ),
    Mutant(
        "random instances: edge ids counted from 1",
        GRAPHS,
        '        eid = f"e{len(edges):03d}"\n',
        '        eid = f"e{len(edges) + 1:03d}"\n',
        (f"{RANDOM_MOVES}::test_random_graph_matches_reference",),
    ),
    Mutant(
        "rewrite memo: a key without chosen_out",
        GRAPHS,
        "    key = (e0, chosen_in, chosen_out)\n",
        "    key = (e0, chosen_in)\n",
        (REWRITE_MEMO,),
    ),
    Mutant(
        "rewrite memo: the lookup swaps chosen_in and chosen_out",
        GRAPHS,
        "    if key in rewrites:\n        return rewrites[key]\n",
        "    if (e0, chosen_out, chosen_in) in rewrites:\n"
        "        return rewrites[e0, chosen_out, chosen_in]\n",
        (REWRITE_MEMO,),
    ),
    Mutant(
        "move tracking: an off-loop move at a loop vertex is not refused",
        GRAPHS,
        "        if loop_vs.intersection(graph.edges[move.e0]):\n",
        "        if False:\n",
        (TRACK_REFERENCE,),
    ),
    Mutant(
        "move tracking: twist and collapse swapped",
        GRAPHS,
        "            kind = TWIST if in_on_loop else COLLAPSE\n",
        "            kind = COLLAPSE if in_on_loop else TWIST\n",
        (TRACK_REFERENCE,),
    ),
    Mutant(
        "move tracking: a shrink in a 2-loop accepted",
        GRAPHS,
        "            if len(eids) == 2:\n"
        '                raise PreconditionFailure("shrink is never allowed in a 2-loop")\n',
        "",
        (TRACK_REFERENCE,),
    ),
    Mutant(
        "move tracking: the only-side test reads < 1",
        GRAPHS,
        "== side for e in eids) < 2:",
        "== side for e in eids) < 1:",
        (TRACK_REFERENCE,),
    ),
    Mutant(
        "move tracking: shrink-u and shrink-v swapped",
        GRAPHS,
        '("left", SHRINK_U) if in_on_loop else ("right", SHRINK_V)',
        '("left", SHRINK_V) if in_on_loop else ("right", SHRINK_U)',
        (TRACK_REFERENCE,),
    ),
    Mutant(
        "move tracking: the shrunk loop keeps e0",
        GRAPHS,
        "        loops_after[label] = Loop(tuple(e for e in eids if e != move.e0))\n",
        "        loops_after[label] = Loop(eids)\n",
        (TRACK_REFERENCE,),
    ),
    Mutant(
        "full shift: membership ignores the length",
        LANGUAGE,
        "isinstance(w, str) and len(w) == self.n and not",
        "isinstance(w, str) and not",
        (FULL_SHIFT,),
    ),
    Mutant(
        "full shift: membership strips codes from the left only",
        LANGUAGE,
        "not w.strip(self.codes)",
        "not w.lstrip(self.codes)",
        (FULL_SHIFT,),
        expect="equivalent",
        reason="a string strips to empty from one end iff it does from both: "
        "every character is a code",
    ),
    Mutant(
        "full shift: p(n) counts one letter short",
        LANGUAGE,
        "len(self.codes) ** self.n",
        "len(self.codes) ** (self.n - 1)",
        (FULL_SHIFT,),
    ),
    Mutant(
        "prefix extendability: the search starts at the first letter",
        PREFIX,
        "data.find(window, 1, N - 1)",
        "data.find(window, 0, N - 1)",
        (PREFIX_REFUSAL,),
    ),
    Mutant(
        "prefix extendability: the search may reach the last letter",
        PREFIX,
        "data.find(window, 1, N - 1)",
        "data.find(window, 1, N)",
        (PREFIX_REFUSAL,),
    ),
    Mutant(
        "prefix extendability: only the first end is checked",
        PREFIX,
        '(("first", data[:m]), ("last", data[N - m :]))',
        '(("first", data[:m]),)',
        (PREFIX_REFUSAL,),
    ),
    Mutant(
        "prefix extendability: the length checked is horizon - 3",
        PREFIX,
        "    m = horizon - 2\n",
        "    m = horizon - 3\n",
        (PREFIX_REFUSAL,),
    ),
    Mutant(
        "prefix windows: the last start offset skipped",
        PREFIX,
        "    for s in range(n):\n",
        "    for s in range(n - 1):\n",
        WINDOWS,
    ),
    Mutant(
        "prefix windows: the windows after the last whole record dropped",
        PREFIX,
        "        found.update([raw[i : i + n] for i in range(end, s + count * n, n)])\n",
        "",
        WINDOWS,
    ),
    Mutant(
        "prefix windows: end one record short",
        PREFIX,
        "end = s + count // _RECORD * record.size",
        "end = s + (count // _RECORD - 1) * record.size",
        WINDOWS,
    ),
    Mutant(
        "prefix windows: one format string per offset",
        PREFIX,
        "        end = s + count // _RECORD * record.size\n"
        "        found.update(chain.from_iterable(record.iter_unpack(view[s:end])))\n"
        "        found.update([raw[i : i + n] for i in range(end, s + count * n, n)])\n",
        "        found.update(struct.unpack(f\"{n}s\" * count, view[s : s + count * n]))\n",
        (WINDOWS_MEMORY,),
    ),
    Mutant(
        "follow step: the key reads the letter after the first one",
        RAUZY,
        'paths[f][n] if kinds[s] == "right"',
        'paths[f][n + 1] if kinds[s] == "right"',
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "follow step: the reversed internal edge keeps its old letter",
        RAUZY,
        "        letters[internal] = b_hat",
        "        pass",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "follow step: the target is not compared",
        RAUZY,
        "if found is None or found[1] != dst:",
        "if found is None:",
        ("tests/test_factor_engine.py::TestChecksFire::"
         "test_evolve_sees_a_target_change_after_the_rewrites",),
    ),
    Mutant(
        "replay: the last rewrite dropped",
        RAUZY,
        "            sim = apply_rbs(sim, internal, chosen_in, chosen_out)\n",
        "            if w is not rbs_events[-1]:\n"
        "                sim = apply_rbs(sim, internal, chosen_in, chosen_out)\n",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "replay: the vertices read the bispecial's suffix and prefix swapped",
        RAUZY,
        "head, tail = w.data[:n], w.data[-n:]",
        "head, tail = w.data[-n:], w.data[:n]",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "replay: the in-edge matched on a_hat w",
        RAUZY,
        "paths[e].endswith(a_hat + head)",
        "paths[e].endswith(a_hat + w.data)",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "replay: the out-edge matched on w b_hat",
        RAUZY,
        "paths[e].startswith(tail + b_hat)",
        "paths[e].startswith(w.data + b_hat)",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "replay: a refused precondition not mapped to InvariantViolation",
        RAUZY,
        "        except PreconditionFailure as exc:\n",
        "        except InvariantViolation as exc:\n",
        ("tests/test_factor_engine.py::TestChecksFire::"
         "test_evolve_refuses_a_rewrite_it_cannot_replay",),
    ),
    Mutant(
        "replay: a self-loop refusal mapped to InvariantViolation",
        RAUZY,
        "        except PreconditionFailure as exc:\n",
        "        except Exception as exc:\n",
        ("tests/test_rauzy.py::test_accepted_prefix_never_trips_an_invariant",),
    ),
    Mutant(
        "identification: right-special words tagged as left vertices",
        RAUZY,
        '(("left", "L:"), ("right", "R:"))',
        '(("left", "L:"), ("right", "L:"))',
        ("tests/test_language.py::TestSpecialExtensionMap",),
    ),
    Mutant(
        "loops: a loop of one vertex kind accepted",
        GRAPHS,
        "    if len(set(itemgetter(*verts)(graph.vertices))) != 2:\n",
        "    if not verts:\n",
        ("tests/test_cli.py::TestAbstractAndXi::"
         "test_malformed_graph_file_exits_one_without_traceback[one-kind-loop]",),
    ),
    Mutant(
        "quotient: a vertex named like a merged loop vertex accepted",
        GRAPHS,
        "    if clash:\n",
        "    if False:\n",
        ("tests/test_cli.py::TestAbstractAndXi::"
         "test_malformed_graph_file_exits_one_without_traceback[merged-name-taken]",),
    ),
    Mutant(
        "witness letters: the two slices swapped",
        LANGUAGE,
        "            if v[:-1] in table:\n"
        "                table[v[:-1]][0].append(v[-1])\n"
        '        for v in self.special_strings(n + 1, "right"):\n'
        "            if v[1:] in table:\n"
        "                table[v[1:]][1].append(v[0])\n",
        "            if v[1:] in table:\n"
        "                table[v[1:]][0].append(v[-1])\n"
        '        for v in self.special_strings(n + 1, "right"):\n'
        "            if v[:-1] in table:\n"
        "                table[v[:-1]][1].append(v[0])\n",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "witness letters: the left side grouped by v[1:]",
        LANGUAGE,
        "            if v[:-1] in table:\n"
        "                table[v[:-1]][0].append(v[-1])\n",
        "            if v[1:] in table:\n"
        "                table[v[1:]][0].append(v[-1])\n",
        ("tests/test_code_strings.py::TestCheckRbc",),
    ),
    Mutant(
        "special sets: one extension counts as special",
        LANGUAGE,
        "if c >= 2)",
        "if c >= 1)",
        ("tests/test_language.py::TestSpecialWords::test_fibonacci_unique_left_special",),
    ),
    Mutant(
        "bispecials: no check that length n + 2 is stored",
        LANGUAGE,
        '        self.require_length(n + 2, "bispecial query")\n',
        "",
        ("tests/test_language.py::test_bispecial_table_needs_two_longer_lengths",),
    ),
    Mutant(
        "evolve: the bispecial scan starts one length late",
        RAUZY,
        "    for n_tilde in range(n, top + 1):\n",
        "    for n_tilde in range(n + 1, top + 1):\n",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "is_dendric: as many edges as vertices",
        LANGUAGE,
        "len(self.both) == len(verts) - 1",
        "len(self.both) == len(verts)",
        ("tests/test_language.py::TestExtensionGraph",),
    ),
    Mutant(
        "special graph: the walk probes codes in reverse order",
        RAUZY,
        "next(b for b in codes if cur + b in longer)",
        "next(b for b in reversed(codes) if cur + b in longer)",
        (EVOLVE_REFERENCE,),
        expect="equivalent",
        reason="exactly one code extends a walk word, so the order of the "
        "probes cannot change which one is found",
    ),
    Mutant(
        "periodic stretch: the start one letter late",
        "shiftlab/words.py",
        "    start = (lo - 1) % q\n",
        "    start = lo % q\n",
        (f"{LAYOUTS}::test_periodic_power_matches_reference",),
    ),
    Mutant(
        "exit-word enumeration: the entering letter may continue the circuit",
        EXITWORDS,
        "                    if a == ext[0]:\n                        continue\n",
        "",
        (f"{LAYOUTS}::test_enumeration_matches_reference",),
    ),
    Mutant(
        "run scan: the left step compares the letter one period and one further",
        EXITWORDS,
        "data[j1 - 2] == data[j1 - 2 + q]",
        "data[j1 - 2] == data[j1 - 1 + q]",
        (f"{LAYOUTS}::test_classification_matches_reference",),
    ),
    Mutant(
        "run scan: a run from position 1 that reaches the end raises",
        EXITWORDS,
        "    if t > N and j1 > 1:\n",
        "    if t > N:\n",
        (f"{LAYOUTS}::test_classification_matches_reference",),
    ),
    Mutant(
        "run scan: a run from position 1 not searched to the right",
        EXITWORDS,
        "    # extend rightward: find the first break after the occurrence\n",
        "    if j1 == 1:\n        return 1, j\n",
        (f"{OVERLAP_NAIVE}::test_run_from_position_one_classified_once",),
    ),
    Mutant(
        "block hits: the block index read one letter late",
        DENSITY,
        "        j = k // size\n",
        "        j = (k + 1) // size\n",
        (BLOCK_HITS,),
    ),
    Mutant(
        "block hits: the search resumes one block late",
        DENSITY,
        "k = data.find(needle, (j + 1) * size)",
        "k = data.find(needle, (j + 2) * size)",
        (BLOCK_HITS,),
    ),
    Mutant(
        "window check: a gap of exactly one window's starts fails",
        DENSITY,
        "if max(map(sub, bounds[1:], bounds)) > span:",
        "if max(map(sub, bounds[1:], bounds)) >= span:",
        ("tests/test_density.py::TestWindowCheck::test_matches_rolling_reference",),
    ),
    Mutant(
        "decompose: the repetition count without the - 1",
        EXITWORDS,
        "r = (len(z) - p_len - n - 1) // q + 1",
        "r = (len(z) - p_len - n) // q + 1",
        (f"{LAYOUTS}::test_decompose_matches_reference",),
    ),
    Mutant(
        "overlap scan: the exit word one letter short",
        EXITWORDS,
        "(j2 + n - j1 + 2, r)",
        "(j2 + n - j1 + 1, r)",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the repetition count without its left part",
        EXITWORDS,
        "                    r = (j2 - j) // q + (j - j1) // q + 1\n",
        "                    r = (j2 - j) // q + 1\n",
        (OVERLAP_NAIVE,),
        expect="equivalent",
        reason="the scan classifies the first start of each run on its grid, "
        "fewer than q letters after j1, so the left part is 0",
    ),
    Mutant(
        "overlap scan: the repetition count one short",
        EXITWORDS,
        "                    r = (j2 - j) // q + (j - j1) // q + 1\n",
        "                    r = (j2 - j) // q + (j - j1) // q\n",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the exit word starts at j1",
        EXITWORDS,
        "occ_exits.setdefault(j1 - 1, ",
        "occ_exits.setdefault(j1, ",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the bisect bounds moved by two",
        EXITWORDS,
        "bisect_right(starts, end - n + 1) - bisect_left(starts, i)",
        "bisect_right(starts, end - n - 1) - bisect_left(starts, i + 2)",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: later starts of an end-reaching run not skipped",
        EXITWORDS,
        "                last, skip = j + (len(x.data) - j) // q * q, True\n",
        "                last, skip = j + (len(x.data) - j) // q * q, False\n"
        "                skipped.append(j)\n",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: no grid test before reusing a run",
        EXITWORDS,
        "        if j > last or (last - j) % q:\n",
        "        if j > last:\n",
        (OVERLAP_NAIVE,),
        expect="equivalent",
        reason="an occurrence at phase d != 0 in a q-periodic run gives w the "
        "period gcd(d, q) < q, a smaller valid step than the minimal one",
    ),
    *(
        Mutant(
            f"overlap scan: union count bound off by one ({label})",
            EXITWORDS,
            "bisect_right(starts, end - n + 1) - bisect_left(starts, i)",
            new,
            (OVERLAP_NAIVE,),
            expect="equivalent",
            reason="no occurrence of w starts at an exit word's first letter or "
            "the one before, and none ends at its last letter or the one after",
        )
        for label, new in (
            ("last start end - n", "bisect_right(starts, end - n) - bisect_left(starts, i)"),
            ("last start end - n + 2",
             "bisect_right(starts, end - n + 2) - bisect_left(starts, i)"),
            ("first start after i",
             "bisect_right(starts, end - n + 1) - bisect_right(starts, i)"),
            ("first start i - 1",
             "bisect_right(starts, end - n + 1) - bisect_left(starts, i - 1)"),
        )
    ),
    Mutant(
        "itinerary replay: state loops unchecked",
        GRAPHS,
        "        try:\n"
        "            _check_loops(g, track)\n"
        "        except PreconditionFailure as exc:\n"
        '            raise PreconditionFailure(f"state {i} loops: {exc}") from None\n',
        "",
        (REPLAY,),
    ),
    Mutant(
        "itinerary replay: a collapse logged, not refused",
        GRAPHS,
        '                raise PreconditionFailure(f"collapse on tracked loop {lab} at step {i}")\n',
        "                log.append(mv)\n"
        "                continue\n",
        (REPLAY,),
    ),
    Mutant(
        "itinerary replay: an off-loop move logged",
        GRAPHS,
        "            if lab is not None:\n"
        "                moves_per_loop[lab].append((k, kind))\n"
        "                log.append(mv)\n",
        "            log.append(mv)\n"
        "            if lab is not None:\n"
        "                moves_per_loop[lab].append((k, kind))\n",
        (REPLAY,),
    ),
    Mutant(
        "itinerary check: the final state's loops unchecked",
        GRAPHS,
        "    for lab in sorted(it.partitions[M]):\n"
        "        try:\n"
        "            check_loop(it.graphs[M], it.partitions[M][lab])\n"
        "        except PreconditionFailure as exc:\n"
        '            v.append(f"state {M} loop {lab}: {exc}")\n',
        "",
        (ITINERARY,),
    ),
    Mutant(
        "itinerary check: spread loop's vertices read in the next state",
        GRAPHS,
        "            lverts = set(loop_vertices(g, lp))\n",
        "            lverts = set(loop_vertices(g_next, lp))\n",
        (ITINERARY,),
    ),
    Mutant(
        "itinerary check: spread checks on untracked labels",
        GRAPHS,
        "        for lab in sorted(spread.intersection(part)):\n",
        "        for lab in sorted(spread):\n",
        (ITINERARY,),
    ),
    Mutant(
        "apply_rbs: self-loop test reads the ends before the move",
        GRAPHS,
        "    for eid, (s, d) in moved.items():\n",
        "    for eid, (s, d) in ((e, graph.edges[e]) for e in moved):\n",
        (SELF_LOOP,),
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def fresh_src(tmp: Path) -> Path:
    src = tmp / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(names: list[str]) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        all_tests = tuple(dict.fromkeys(t for m in rows for t in m.tests))
        if run_tests(fresh_src(Path(tmp)), all_tests) != 0:
            print("baseline: the named tests fail on unchanged src/")
            return 2
        for m in rows:
            src = fresh_src(Path(tmp))
            path = src / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old text occurs {text.count(m.old)} times in {m.file}")
                failures += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            code = run_tests(src, m.tests)
            if code not in (0, 1):
                verdict, ok = f"ERROR (pytest exit {code})", False
            else:
                verdict = "killed" if code == 1 else "survived"
                ok = (verdict == "killed") == (m.expect == "killed")
            note = f" (expected {m.expect}{': ' + m.reason if m.reason else ''})"
            print(f"{'ok' if ok else 'FAIL':9s} {m.name}: {verdict}{'' if ok else note}")
            failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
