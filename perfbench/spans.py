"""Layer spans for a traced child.

Tracer.install() wraps the public functions through which nclat's modules
call each other, at every module attribute bound to them, so that each call
records a span: [name, start, end, parent span index, failed].  No source
file is touched and only this process sees the wrappers.  Counts are taken
after their span closes; the time that takes is recorded as a "trace.count"
span, so that it is not charged to the calling layer.  The private geometry
predicates are not wrapped: they run millions of times, and their time stays
in the layer that calls them.
"""

import functools
import time
import weakref
from collections import Counter

import nclat
from nclat import (
    acceptance,
    cli,
    enumeration,
    fixtures,
    geometry,
    partition,
    poset,
    scd,
)


def _cells(table):
    if table and isinstance(table[0], list):
        return sum(len(row) for row in table)
    return len(table)


def _count_elements(counts, args, result):
    counts["partition.enumerate.calls"] += 1
    counts["partition.elements"] += len(result)


def _count_relations(counts, args, result):
    counts["poset.relations"] += sum(
        result.up_mask(i).bit_count() for i in range(len(result))
    )


def _calls(name):
    def count(counts, args, result):
        counts[name] += 1
    return count


def _count_pairs(counts, args, result):
    if result[0]:
        n = len(args[0])
        counts["poset.lattice_check.pairs"] += n * (n - 1) // 2


def _count_chains(counts, args, result):
    counts["scd.chains"] += len(result)


def _count_cells(counts, args, result):
    counts["enumeration.cells"] += _cells(result)


# (span name, functions, counter); the span name is the layer metric prefix
LAYERS = (
    ("geometry.load", (geometry.standard_config, geometry.config_from_json,
                       fixtures.load_builtin), None),
    ("partition.enumerate", (partition.enumerate_noncrossing,), _count_elements),
    ("poset.build", (poset.build_nc_poset,), _count_relations),
    ("poset.graded", (poset.gradedness,), None),
    ("poset.export", (poset.poset_to_dot, poset.poset_to_json_obj), None),
    ("poset.selfdual", (poset.is_self_dual,), None),
    ("poset.isomorphic", (poset.poset_isomorphic,),
     _calls("poset.isomorphic.calls")),
    ("poset.lattice_check", (poset.lattice_check,), _count_pairs),
    ("poset.join", (poset.nc_join,), _calls("poset.join.calls")),
    ("scd.family", (scd.scd_S, scd.scd_T, scd.scd_U, scd.scd_V), _count_chains),
    ("scd.generic", (scd.generic_scd,), None),
    ("scd.verify", (scd.verify_scd,), None),
    ("enumeration.recurrence", (enumeration.u_table, enumeration.v_table,
                                enumeration.s_table, enumeration.t_sequence),
     _count_cells),
    ("enumeration.recurrence", (enumeration.t_closed,), None),
    ("enumeration.series", (enumeration.series_table,), _count_cells),
    ("enumeration.series", (enumeration.series_T, enumeration.series_U,
                            enumeration.series_V, enumeration.series_S), None),
    ("enumeration.brute", (enumeration.brute_table,
                           enumeration.brute_t_sequence), _count_cells),
    ("acceptance", (acceptance.run_criteria,), None),
)

MODULES = (nclat, acceptance, cli, enumeration, fixtures, geometry, partition,
           poset, scd)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._covered = weakref.WeakSet()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec, parent

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, parent = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                self._close(rec)
            if count is not None:
                t0 = time.perf_counter()
                count(self.counts, args, result)
                self.spans.append(
                    ["trace.count", t0, time.perf_counter(), parent, False]
                )
            return result
        return traced

    def _count_covers(self, counts, args, result):
        # covers() caches its list; count each poset's covers once
        if args[0] not in self._covered:
            self._covered.add(args[0])
            counts["poset.covers"] += len(result)

    def install(self):
        wrapped = {}
        for name, fns, count in LAYERS:
            for fn in fns:
                wrapped[id(fn)] = self.wrap(name, fn, count)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
        poset.FinitePoset.covers = self.wrap(
            "poset.covers", poset.FinitePoset.covers, self._count_covers
        )

    def run_root(self, main, argv):
        """Run main(argv) as the root "cli" span, so the CLI layer's self
        time is the part of the operation no other layer claims.  When the
        deadline cuts the run, every open span ends, marked failed, as the
        exception unwinds through the wrappers."""
        rec, _ = self._open("cli")
        try:
            return main(argv)
        except BaseException:
            rec[4] = True
            raise
        finally:
            self._close(rec)
