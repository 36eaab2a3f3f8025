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
WORDS = "shiftlab/words.py"
FULL_SHIFT = "tests/test_language.py::TestComputedFullShift"
TRAFFIC = "tests/test_level_sources.py::TestLevelTraffic"
EXACT_COUNTS = "tests/test_level_sources.py::TestExactFullShiftCounts"
GROWTH_RULE = "tests/test_growth_rule.py"
SPECIAL_WALK = "tests/test_factor_engine.py::TestSpecialWalk"
BISPECIAL_TABLE = "tests/test_factor_engine.py::TestBispecialTable"
FULL_LEVELS = "tests/test_factor_engine.py::TestFullLevels"
RAUZY = "shiftlab/rauzy.py"
EVOLVE_REFERENCE = "tests/test_rauzy.py::TestEvolveMatchesReference"
RENDERING = "tests/test_code_strings.py::TestWordRendering"
PINNED_ANALYZE = "tests/test_cli.py::TestAnalyze::test_reports_with_violations_are_pinned"
EXITWORDS = "shiftlab/exitwords.py"
LAYOUTS = "tests/test_exitword_layouts.py"
OVERLAP_NAIVE = "tests/test_exitwords.py::TestOverlapScanMatchesNaive"
DENSITY = "shiftlab/density.py"
BLOCK_HITS = "tests/test_density.py::TestBlockHitsMatchReference"
WINDOW_REFERENCE = "tests/test_density.py::TestWindowCheck::test_matches_rolling_reference"
WINDOW_FAST = "tests/test_density.py::TestWindowCheck::test_fixtures_pass_without_listing_starts"
PREFIX = "shiftlab/generators.py"
PREFIX_REFUSAL = "tests/test_factor_engine.py::TestPrefixRefusal"
WINDOWS = (
    "tests/test_factor_engine.py::TestWindows::test_matches_naive_levels",
    "tests/test_factor_engine.py::TestAgainstNaiveReference",
)
WINDOWS_MEMORY = "tests/test_factor_engine.py::TestWindows::test_compiled_format_not_retained"
GENERATORS = "tests/test_generators.py::TestGeneratorsMatchReference"
REPLAY = "tests/test_itinerary_replay.py"
ITINERARY = "tests/test_abstract_graphs.py::TestItinerary"
SELF_LOOP = "tests/test_rbs_admissibility.py::test_untouched_self_loop_not_blamed"
# the three parts of classify_occurrence's run walk after the left walk
RUN_RETURN = (
    "    if j1 == 1:\n"
    '        return OccurrenceClassification(j, "suffix-of-power", r=ceil((j - 1) / q) + 1)\n'
)
RUN_RIGHT_WALK = (
    "    # extend rightward: find the first break after the occurrence\n"
    "    N = len(data)\n"
    "    t = j + n  # next position to test, 1-based\n"
    "    while t <= N and data[t - 1] == data[t - 1 - q]:\n"
    "        t += 1\n"
)
RUN_RAISE = (
    "    if t > N:\n"
    "        raise HorizonExceeded(\n"
    '            f"periodic match from position {j} runs to the end of the "\n'
    '            "prefix; cannot resolve the enclosing exit word"\n'
    "        )\n"
)

# Retired rows, whose text is gone from src/:
# - "checked families: a key without labels", "checked families: a key
#   without edges", "checked families: a refused family stored": the memo
#   of accepted loop families is deleted, and every _check_loops call
#   checks in full.
# - "overlap scan: the repetition count without its left part" (equivalent):
#   the left part ``(j - j1) // q`` is deleted, as it is always 0.
# - "overlap scan: no grid test before reusing a run" (equivalent): the grid
#   test is deleted, as no start up to ``last`` lies off the run's grid.
#   Both proofs are a comment in check_overlap_bound.
# - The per-start texts of "overlap scan: the exit word one letter short",
#   "... the repetition count one short", "... the exit word starts at j1"
#   and "... later starts of an end-reaching run not skipped", and the
#   sliced remainder of "prefix windows: the windows after the last whole
#   record dropped" and "... one format string per offset": the overlap
#   scan now reads the runs off one shift-mismatch string and _windows
#   unpacks the remainder in one call, so these rows plant the same faults
#   in the new text.  The per-start scan is tests/exitword_reference.py's
#   ref_overlap_per_start.
# - "run scan: a run from position 1 not searched to the right"
#   (equivalent): _classify_run is folded into classify_occurrence, which
#   now returns the suffix-of-power case before its right walk, so the
#   mutant's text is the code.  "run scan: a run from position 1 that
#   reaches the end raises" plants its fault in the new text as the raise
#   moved before that return, and "run scan: the right walk before the
#   suffix-of-power return" keeps the old order as an equivalent row.
# - "is_dendric: as many edges as vertices": extensions and ExtensionRecord
#   moved to tests/factor_language.py as the per-word reference, and this
#   runner copies only src/, so a fault in the reference is out of its reach.

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
        "oracle p: the count read as the size of the level",
        LANGUAGE,
        "        self.require_length(n)\n        return self.source.p(n)\n",
        "        self.require_length(n)\n        return len(self.source.level(n))\n",
        (f"{TRAFFIC}::test_p_asks_the_source_once_and_reads_no_level", EXACT_COUNTS),
    ),
    Mutant(
        "full-shift source: p(n) one power short",
        LANGUAGE,
        "            return len(level.codes) ** n\n",
        "            return len(level.codes) ** (n - 1)\n",
        (EXACT_COUNTS,),
    ),
    Mutant(
        "stored source: p(n) counts level n + 1",
        LANGUAGE,
        "        level = self._levels[n]\n",
        "        level = self._levels[n + 1]\n",
        (f"{TRAFFIC}::test_p_asks_the_source_once_and_reads_no_level",),
    ),
    Mutant(
        "stored source: a computed level past a machine word counted by len",
        LANGUAGE,
        "        except OverflowError:  # a computed level past a machine word\n"
        "            return len(level.codes) ** n\n",
        "        except OverflowError:  # a computed level past a machine word\n"
        "            raise\n",
        (EXACT_COUNTS,),
    ),
    Mutant(
        "prefix cascade: a level taken as full one power short",
        PREFIX,
        "if len(level) == len(codes) ** n:",
        "if len(level) == len(codes) ** (n - 1):",
        (FULL_LEVELS, *WINDOWS),
    ),
    Mutant(
        "prefix cascade: fullness compared by >=",
        PREFIX,
        "if len(level) == len(codes) ** n:",
        "if len(level) >= len(codes) ** n:",
        (FULL_LEVELS, *WINDOWS),
        expect="equivalent",
        reason="a level of length n holds at most |A|^n words, so >= holds "
        "exactly when == does",
    ),
    Mutant(
        "full-level specials: one letter taken as full",
        LANGUAGE,
        "if size >= 2 and count == size ** (n + 1):",
        "if count == size ** (n + 1):",
        (f"{FULL_LEVELS}::test_one_letter",),
    ),
    Mutant(
        "full-level specials: level n + 1 taken as full at |A|**n words",
        LANGUAGE,
        "if size >= 2 and count == size ** (n + 1):",
        "if size >= 2 and count == size**n:",
        (FULL_LEVELS,),
    ),
    Mutant(
        "full-level specials: fullness compared by >=",
        LANGUAGE,
        "if size >= 2 and count == size ** (n + 1):",
        "if size >= 2 and count >= size ** (n + 1):",
        (FULL_LEVELS, SPECIAL_WALK),
        expect="equivalent",
        reason="a level of length n + 1 holds at most |A|^(n+1) words, so >= "
        "holds exactly when == does",
    ),
    Mutant(
        "step scan: the doubled power looked up one length short",
        WORDS,
        "in oracle.source.level(n + q):",
        "in oracle.source.level(n + q - 1):",
        (f"{TRAFFIC}::test_minimal_step_reads_only_shift_matched_lengths",),
    ),
    Mutant(
        "K rule: a run from exactly H/2 refused",
        LANGUAGE,
        "if 2 * n0 <= H else None",
        "if 2 * n0 < H else None",
        (f"{GROWTH_RULE}::TestRule",),
    ),
    Mutant(
        "K rule: the old run rule restored",
        LANGUAGE,
        "if 2 * n0 <= H else None",
        "if n0 <= H - 2 else None",
        (f"{GROWTH_RULE}::TestThueMorse",
         "tests/test_cli.py::TestAnalyze::test_growth_verdict"),
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
        '        found.update(struct.unpack_from(f"{n}s" * (count % _RECORD), raw, end))\n',
        "",
        WINDOWS,
    ),
    Mutant(
        "prefix windows: the remainder unpacked one window late",
        PREFIX,
        "(count % _RECORD), raw, end))",
        "(count % _RECORD), raw, end + n))",
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
        '        found.update(struct.unpack_from(f"{n}s" * (count % _RECORD), raw, end))\n',
        "        found.update(struct.unpack(f\"{n}s\" * count, view[s : s + count * n]))\n",
        (WINDOWS_MEMORY,),
    ),
    Mutant(
        "cylinder table: the doubling keeps an empty overlap",
        PREFIX,
        "bisect_left(lefts, hi + s)",
        "bisect_right(lefts, hi + s)",
        (f"{GENERATORS}::test_cylinders",),
    ),
    Mutant(
        "cylinder table: an overlap not cut at the left end",
        PREFIX,
        "pieces.append((lo, u + words[v]",
        "pieces.append((lefts[v] - s, u + words[v]",
        (f"{GENERATORS}::test_cylinders",),
    ),
    Mutant(
        "cylinder table: a composed shift drops s_v",
        PREFIX,
        "(lefts[v] - s, u + words[v], s + shifts[v])",
        "(lefts[v] - s, u + words[v], s)",
        (f"{GENERATORS}::test_iet_encode",),
    ),
    Mutant(
        "iet blocks: the Keane walk skipped at left ends",
        PREFIX,
        "            if p == lefts[i] and not diag.violated:\n",
        "            if False:\n",
        (f"{GENERATORS}::test_first_keane_hit",),
    ),
    Mutant(
        "iet blocks: the tail starts one letter late",
        PREFIX,
        "self.walk(p, length - blocks, blocks)",
        "self.walk(p, length - blocks, blocks + 1)",
        (f"{GENERATORS}::test_first_keane_hit",),
    ),
    Mutant(
        "rotation: the exchange keeps the intervals in place",
        PREFIX,
        "(1 - alpha, alpha), (2, 1)",
        "(1 - alpha, alpha), (1, 2)",
        (f"{GENERATORS}::test_rotation_small_denominators",),
    ),
    Mutant(
        "substitution: a letter image not cut",
        PREFIX,
        '"".join(map(images.__getitem__, rule))[:length]',
        '"".join(map(images.__getitem__, rule))',
        # a deterministic spec whose images all grow slowly: a random spec
        # can grow an unreachable letter exponentially, uncut
        (f"{GENERATORS}::test_linearly_growing_seed",),
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
        "validation: a color on one vertex kind accepted",
        GRAPHS,
        "            if len(kinds) != 2:\n",
        "            if not kinds:\n",
        ("tests/test_abstract_graphs.py::TestValidate::test_missing_side_for_color",),
    ),
    Mutant(
        "quotient: the merged names _l and _r swapped",
        GRAPHS,
        'side = "l" if graph.vertices[w] == "left" else "r"',
        'side = "r" if graph.vertices[w] == "left" else "l"',
        ("tests/test_abstract_graphs.py::TestQuotient::test_four_loop_picture",),
    ),
    Mutant(
        "search: the quotient built without the last loop",
        GRAPHS,
        "        if not _quotient(graph, loops).is_connected():\n",
        "        if not _quotient(graph, dict(list(loops.items())[:-1])).is_connected():\n",
        ("tests/test_abstract_graphs.py::TestSearch::test_direct_quotients_match_checked_build_xi",),
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
        "witness letters: the two sides swapped",
        LANGUAGE,
        "                tuple([b for b in codes if w + b in left_up]),\n"
        "                tuple([a for a in codes if a + w in right_up]),\n",
        "                tuple([b for b in codes if w + b in right_up]),\n"
        "                tuple([a for a in codes if a + w in left_up]),\n",
        (EVOLVE_REFERENCE,),
    ),
    Mutant(
        "witness letters: the left side reads b w",
        LANGUAGE,
        "tuple([b for b in codes if w + b in left_up])",
        "tuple([b for b in codes if b + w in left_up])",
        ("tests/test_code_strings.py::TestCheckRbc",),
    ),
    Mutant(
        "special sets: one extension counts as special",
        LANGUAGE,
        "map((2).__le__, counts.values())",
        "map((1).__le__, counts.values())",
        ("tests/test_language.py::TestSpecialWords::test_fibonacci_unique_left_special",),
    ),
    Mutant(
        "special walk: right candidates built as w + a",
        LANGUAGE,
        "v = a + w if right else w + a",
        "v = w + a if right else w + a",
        (SPECIAL_WALK,),
    ),
    Mutant(
        "special walk: one extension counts as special",
        LANGUAGE,
        "in longer for b in codes]) >= 2:",
        "in longer for b in codes]) >= 1:",
        (SPECIAL_WALK,),
    ),
    Mutant(
        "special memo: the key without the side",
        LANGUAGE,
        '("special", n, side), lambda',
        '("special", n), lambda',
        (SPECIAL_WALK, *WINDOWS),
    ),
    Mutant(
        "minimal step: no alphabet check",
        WORDS,
        "which run once per call.\"\"\"\n"
        "    if w.alphabet is not oracle.alphabet and w.alphabet != oracle.alphabet:\n"
        "        raise AlphabetMismatch(\"word and oracle use different alphabets\")\n",
        "which run once per call.\"\"\"\n",
        ("tests/test_words.py::TestMinimalStep::test_refusals_come_before_the_memo",),
    ),
    Mutant(
        "minimal step: a miss checks again through valid_steps",
        WORDS,
        "lambda: next((c.q for c in _step_scan(w, oracle)), None)",
        "lambda: next((c.q for c in valid_steps(w, oracle)), None)",
        ("tests/test_words.py::TestMinimalStep::test_a_miss_checks_the_horizon_once",),
    ),
    Mutant(
        "valid steps: the alphabet identity taken as the only match",
        WORDS,
        "skip the comparison then\n"
        "    if w.alphabet is not oracle.alphabet and w.alphabet != oracle.alphabet:\n",
        "skip the comparison then\n"
        "    if w.alphabet is not oracle.alphabet:\n",
        ("tests/test_words.py::TestValidSteps::test_alphabet_compared_by_value",),
    ),
    Mutant(
        "periodicity memo: the key collides with the growth profile's",
        LANGUAGE,
        '("periodicity",), lambda',
        '("growth",), lambda',
        ("tests/test_density.py::TestSpecialFloor::test_periodicity_scanned_once_per_oracle",),
    ),
    Mutant(
        "bispecials: no check that length n + 2 is stored",
        LANGUAGE,
        '        self.require_length(n + 2, "bispecial query")\n',
        "",
        ("tests/test_language.py::test_bispecial_table_needs_two_longer_lengths",),
    ),
    Mutant(
        "full-level table: |A| two-sided extensions per word in place of |A|^2",
        LANGUAGE,
        "self.source.p(n + 2) == size ** (n + 2)",
        "self.source.p(n + 2) == size ** (n + 1)",
        (BISPECIAL_TABLE, "tests/test_language.py::TestRbc::test_fibonacci_holds"),
    ),
    Mutant(
        "full-level table: one letter taken as a full level",
        LANGUAGE,
        "if size >= 2 and self.source",
        "if self.source",
        (f"{BISPECIAL_TABLE}::test_one_letter_has_no_bispecials",),
    ),
    Mutant(
        "full-level table: counts compared by >=",
        LANGUAGE,
        "self.source.p(n + 2) == size ** (n + 2)",
        "self.source.p(n + 2) >= size ** (n + 2)",
        (BISPECIAL_TABLE,),
        expect="equivalent",
        reason="level n + 2 holds at most every word, p(n+2) <= |A|^(n+2), "
        "so >= holds exactly when == does",
    ),
    Mutant(
        "RBC reasons: the memo keyed on the left-special group alone",
        LANGUAGE,
        "                key = b, a\n",
        "                key = b\n",
        ("tests/test_language.py::TestRbc::test_reasons_match_reference",),
    ),
    Mutant(
        "RBC: n0_estimate the last irregular length, not one past it",
        LANGUAGE,
        "                n0_estimate = n + 1\n",
        "                n0_estimate = n\n",
        ("tests/test_code_strings.py::TestCheckRbc::test_matches_reference_for_every_n_min",),
    ),
    Mutant(
        "analysis report: a short horizon leaves the RBC scan unchecked",
        LANGUAGE,
        '    oracle.require_length(n_min + 3, "bispecial scan")\n',
        "",
        ("tests/test_cli.py::TestAnalyze::test_short_horizon_exits_two",),
    ),
    Mutant(
        "bispecials: length 0 reaches the full-level rule",
        LANGUAGE,
        '        self.require_length(n, "bispecial query")\n',
        "",
        ("tests/test_language.py::TestSpecialWords::test_length_zero_refused",),
    ),
    Mutant(
        "render: multi-character tokens through the translate table",
        WORDS,
        "        if self._single_char_tokens:\n"
        "            return data.translate(self._render_table)\n",
        "        return data.translate(self._render_table)\n",
        (RENDERING, PINNED_ANALYZE),
    ),
    Mutant(
        "render: multi-character tokens joined without the space",
        WORDS,
        'return " ".join(map(self._code_to_token.__getitem__, data))',
        'return "".join(map(self._code_to_token.__getitem__, data))',
        (RENDERING, PINNED_ANALYZE),
    ),
    Mutant(
        "evolve: the refusal prints the raw code string",
        RAUZY,
        "in range: {rbc.alphabet.render(rbc.violations[0][0])}",
        "in range: {rbc.violations[0][0]}",
        ("tests/test_rauzy.py::TestEvolve::test_refusal_spells_the_bispecial_in_tokens",),
    ),
    Mutant(
        "evolve: the bispecial scan starts one length late",
        RAUZY,
        "    for n_tilde in range(n, top + 1):\n",
        "    for n_tilde in range(n + 1, top + 1):\n",
        (EVOLVE_REFERENCE,),
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
        WORDS,
        "    start = (lo - 1) % q\n",
        "    start = lo % q\n",
        (f"{LAYOUTS}::test_periodic_stretch_matches_reference",
         f"{LAYOUTS}::test_enumeration_matches_reference"),
    ),
    Mutant(
        "exit-word enumeration: the entering letter may continue the circuit",
        EXITWORDS,
        "                if a == ext[0]:\n                    continue\n",
        "",
        (f"{LAYOUTS}::test_enumeration_matches_reference",),
    ),
    Mutant(
        "exit-word layouts: the repetition count one short",
        EXITWORDS,
        "        r = (size - p_len - n - 1) // q + 1\n",
        "        r = (size - p_len - n - 1) // q\n",
        (f"{LAYOUTS}::test_enumeration_matches_reference",),
    ),
    Mutant(
        "exit-word layouts: a prefix length up to size - n",
        EXITWORDS,
        "range(1, min(q, size - n - 1) + 1)",
        "range(1, min(q, size - n) + 1)",
        (f"{LAYOUTS}::test_enumeration_matches_reference",),
    ),
    Mutant(
        "decompose: the last letter may continue the circuit",
        EXITWORDS,
        " and d[-1] != ext[-1]\n",
        "\n",
        (f"{LAYOUTS}::test_decompose_matches_reference",),
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
        RUN_RETURN + RUN_RIGHT_WALK + RUN_RAISE,
        RUN_RIGHT_WALK + RUN_RAISE + RUN_RETURN,
        (f"{LAYOUTS}::test_classification_matches_reference",),
    ),
    Mutant(
        "run scan: the right walk before the suffix-of-power return",
        EXITWORDS,
        RUN_RETURN + RUN_RIGHT_WALK,
        RUN_RIGHT_WALK + RUN_RETURN,
        (f"{LAYOUTS}::test_classification_matches_reference",),
        expect="equivalent",
        reason="the walk reads letters and sets t, which the suffix-of-power "
        "return does not read: only the cost changes",
    ),
    Mutant(
        "decompose: words over different alphabets accepted",
        EXITWORDS,
        "    _require_same_alphabet(z, w)\n",
        "",
        ("tests/test_exitwords.py::TestDecompose::test_words_over_another_alphabet_refused",),
    ),
    Mutant(
        "classification: a sequence over another alphabet accepted",
        EXITWORDS,
        "    _require_same_alphabet(x, w)\n",
        "",
        ("tests/test_exitwords.py::TestClassification::"
         "test_sequence_over_another_alphabet_refused",),
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
        "window check: a sequence over another alphabet accepted",
        DENSITY,
        "    if x.alphabet != oracle.alphabet:\n"
        '        raise AlphabetMismatch("sequence and oracle use different alphabets")\n'
        "    width = (K + 2) * n - 1\n",
        "    width = (K + 2) * n - 1\n",
        ("tests/test_density.py::TestWindowCheck::test_sequence_over_another_alphabet_refused",),
    ),
    Mutant(
        "window check: a gap of exactly one window's starts fails",
        DENSITY,
        "if max(map(sub, bounds[1:], bounds)) > span:",
        "if max(map(sub, bounds[1:], bounds)) >= span:",
        (WINDOW_REFERENCE,),
    ),
    Mutant(
        "window check: the inner match gap without the match length",
        DENSITY,
        "                n + max(map(len, set(pieces[1:-1])), default=0),\n",
        "                max(map(len, set(pieces[1:-1])), default=0),\n",
        (WINDOW_REFERENCE,),
    ),
    Mutant(
        "window check: a match bound of exactly one window's starts listed",
        DENSITY,
        "            if bound <= span:\n",
        "            if bound < span:\n",
        (WINDOW_FAST,),
    ),
    Mutant(
        "window check: the last match read one past its start",
        DENSITY,
        "last = len(data) - len(pieces[-1]) - n + 1",
        "last = len(data) - len(pieces[-1]) - n + 2",
        (WINDOW_REFERENCE,),
    ),
    Mutant(
        "evolve: a start past the horizon ends an empty list",
        "shiftlab/cli.py",
        '    oracle.require_length(n + 3, f"--n {n}")\n',
        "",
        ("tests/test_cli.py::TestEvolve::test_start_past_the_horizon_exits_two",),
    ),
    Mutant(
        "density floor: blocks counted before the special set is read",
        DENSITY,
        "    specials = sorted(oracle.special_strings(n, side))\n"
        "    if block_count(x, n, K) < 32:\n"
        '        raise PreconditionFailure("prefix too short: need at least 32 blocks")\n',
        "    if block_count(x, n, K) < 32:\n"
        '        raise PreconditionFailure("prefix too short: need at least 32 blocks")\n'
        "    specials = sorted(oracle.special_strings(n, side))\n",
        ("tests/test_cli.py::TestDensity::test_special_floor_beyond_the_horizon_exits_two",),
    ),
    Mutant(
        "density floor: the alphabet checked after the growth test",
        DENSITY,
        "    if x.alphabet != oracle.alphabet:\n"
        '        raise AlphabetMismatch("sequence and oracle use different alphabets")\n'
        "    if n < 1:\n"
        '        raise ValueError("length must be >= 1")\n'
        "    if periodicity_check(oracle).periodic_within_horizon:\n"
        "        raise PreconditionFailure(\n"
        '            "periodic language: the branching constant is undefined"\n'
        "        )\n"
        "    profile = growth_profile(oracle)\n"
        "    if profile.K != K or not profile.constant_at(n):\n"
        "        raise PreconditionFailure(\n"
        '            f"growth is not constant {K} at length {n} "\n'
        '            f"(profile: {profile.verdict})"\n'
        "        )\n",
        '    if n < 1:\n'
        '        raise ValueError("length must be >= 1")\n'
        "    if periodicity_check(oracle).periodic_within_horizon:\n"
        "        raise PreconditionFailure(\n"
        '            "periodic language: the branching constant is undefined"\n'
        "        )\n"
        "    profile = growth_profile(oracle)\n"
        "    if profile.K != K or not profile.constant_at(n):\n"
        "        raise PreconditionFailure(\n"
        '            f"growth is not constant {K} at length {n} "\n'
        '            f"(profile: {profile.verdict})"\n'
        "        )\n"
        "    if x.alphabet != oracle.alphabet:\n"
        '        raise AlphabetMismatch("sequence and oracle use different alphabets")\n',
        ("tests/test_density.py::TestSpecialFloor::test_sequence_over_another_alphabet_refused_first",),
    ),
    Mutant(
        "exit-word layouts: the repetition count without the - 1",
        EXITWORDS,
        "r = (size - p_len - n - 1) // q + 1",
        "r = (size - p_len - n) // q + 1",
        (f"{LAYOUTS}::test_decompose_matches_reference",),
    ),
    Mutant(
        "overlap scan: the exit word one letter short",
        EXITWORDS,
        "j2 + n - j1 + 2, ",
        "j2 + n - j1 + 1, ",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the repetition count one short",
        EXITWORDS,
        "(j2 - j) // q + 1))",
        "(j2 - j) // q))",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the exit word starts at j1",
        EXITWORDS,
        "exits.append((j1 - 1, ",
        "exits.append((j1, ",
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
        "skipped = tuple(starts[bisect_left(starts, j) :])",
        "skipped = (j,)",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the zero-run minimum is n - q + 1",
        EXITWORDS,
        r'b"\0{%d,}" % (n - q)',
        r'b"\0{%d,}" % (n - q + 1)',
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the end test is b + q >= N - 1",
        EXITWORDS,
        "        if b + q == N:\n",
        "        if b + q >= N - 1:\n",
        (OVERLAP_NAIVE,),
    ),
    Mutant(
        "overlap scan: the shift string not clamped at length 0",
        EXITWORDS,
        "    m = max(N - q, 0)\n",
        "    m = N - q\n",
        (OVERLAP_NAIVE,),
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
