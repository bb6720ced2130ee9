"""Counters and spans around calls into ``upoblab``'s modules.

Nothing under ``src/`` is edited: :class:`Instrument` rebinds module (and
``OperatorSet`` class) attributes to wrappers and puts the originals back on
``uninstall``.  In ``count`` mode only the two heuristic inner functions are
wrapped, with counters and a start time per heuristic iteration, so the
untraced run can count iterations and time each one.  In ``trace`` mode every boundary listed in
``_bindings`` records a span: name, start, end, parent span, op id and
whether it raised ``SingularError``, kept in flat arrays and written out when
the run ends.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

from upoblab import catalog, cli, locc, product, unextend
from upoblab.errors import SingularError
from upoblab.product import OperatorSet

FACTORIZATIONS = "unextend.factorization_calls"
NEAREST_UNITARY = "matrix.nearest_unitary_calls"


#: Span name -> the counter an op's delta reads; kept in both modes.
COUNTED = {
    "unextend.product_factorization": FACTORIZATIONS,
    "matrix.nearest_unitary": NEAREST_UNITARY,
}


def _bindings():
    """(namespace, attribute, span name) for every wrapped call.

    One original function reached through several namespaces gets one
    wrapper, so a call records one span whichever module made it.
    """
    return [
        (cli, "main", "cli.main"),
        (cli, "construct_by_name", "catalog.construct_by_name"),
        (catalog, "construct_by_name", "catalog.construct_by_name"),
        (OperatorSet, "to_json", "product.to_json"),
        (OperatorSet, "from_json", "product.from_json"),
        (product, "gram", "product.gram"),
        (product, "check_orthonormal", "product.check_orthonormal"),
        (unextend, "check_orthonormal", "product.check_orthonormal"),
        (catalog, "check_orthonormal", "product.check_orthonormal"),
        (product, "check_pairwise_orthogonal", "product.check_pairwise_orthogonal"),
        (unextend, "check_pairwise_orthogonal", "product.check_pairwise_orthogonal"),
        (unextend, "_direction_table", "unextend.direction_table"),
        (unextend, "_greedy_member_order", "unextend.member_order"),
        (unextend, "extendibility_search", "unextend.extendibility_search"),
        (locc, "extendibility_search", "unextend.extendibility_search"),
        (unextend, "extract_witness", "unextend.extract_witness"),
        (cli, "classify", "unextend.classify"),
        (unextend, "classify", "unextend.classify"),
        (unextend, "_all_factors_unitary", "unextend.all_unitary"),
        (unextend, "unitary_witness_search", "unextend.unitary_witness_search"),
        (unextend, "_product_factorization", "unextend.product_factorization"),
        (unextend, "nearest_unitary", "matrix.nearest_unitary"),
        (cli, "run_three_ebit_protocol", "locc.run_three_ebit_protocol"),
        (cli, "genuine_nonlocality_evidence", "locc.genuine_nonlocality_evidence"),
        (locc, "measurement_branch", "locc.measurement_branch"),
    ]


class Instrument:
    """Installs counting or tracing wrappers; one per run."""

    def __init__(self, mode: str):
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown instrument mode {mode!r}")
        self.mode = mode
        self.counts: Counter = Counter()
        #: perf_counter() at the start of every heuristic iteration (count mode).
        self.iteration_starts = array("d")
        self.op_id = -1
        # Span columns; parent and op are indices, -1 for none.
        self.span_names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.raised = array("b")
        self._stack: list[int] = []
        # Results kept by reference and measured after the run, so that no
        # span pays for serializing or verifying them.
        self.json_objects: list = []
        self.witnesses: list = []
        self.construct_sizes: list = []
        self.search_results: list = []
        self.unitary_results: list = []
        self._saved: list = []

    # -- installation ----------------------------------------------------

    def install(self):
        wrappers: dict = {}
        for owner, attr, span in _bindings():
            if self.mode == "count" and span not in COUNTED:
                continue
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, span)
            wrapped = wrappers[id(fn)]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, span):
        counts = self.counts
        count_key = COUNTED.get(span)
        if self.mode == "count":
            marks = self.iteration_starts if count_key == FACTORIZATIONS else None

            def counting(*args, **kwargs):
                counts[count_key] += 1
                if marks is not None:
                    marks.append(perf_counter())
                return fn(*args, **kwargs)
            return counting

        on_result = self._result_hooks().get(span)
        name_id = len(self.span_names)
        self.span_names.append(span)
        names, starts, ends, raised = self.name, self.start, self.end, self.raised
        parents, ops, stack = self.parent, self.op, self._stack

        def traced(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                raised[idx] = 1 if isinstance(exc, SingularError) else 2
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def _result_hooks(self):
        return {
            "catalog.construct_by_name": lambda r, a: self.construct_sizes.append(
                (self.op_id, len(r))
            ),
            "product.to_json": lambda r, a: self.json_objects.append((self.op_id, r)),
            "product.from_json": lambda r, a: self.json_objects.append((self.op_id, a[0])),
            "unextend.extendibility_search": lambda r, a: self.search_results.append(
                (self.op_id, r)
            ),
            "unextend.extract_witness": lambda r, a: self.witnesses.append(
                (self.op_id, r, a[1])
            ),
            "unextend.unitary_witness_search": lambda r, a: self.unitary_results.append(
                (self.op_id, r is not None)
            ),
        }

    # -- read-out --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans run on one thread and nest, so children of one parent never
        overlap and their durations can simply be summed.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def write_spans(self, path, op_names: list[str]):
        """Gzipped JSON of the span columns, with the span and op name tables."""
        payload = {
            "columns": ["name", "start", "end", "parent", "op", "raised"],
            "span_names": self.span_names,
            "op_names": op_names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "raised": list(self.raised),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
