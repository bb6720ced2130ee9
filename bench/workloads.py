"""The four benchmark workloads: inputs made from a seed, the ops that are
timed, and the checks on their outputs.

Each workload builds a fixed op list from its seed.  The runner times only
``Op.call``; ``Op.check`` runs after the clock has stopped and returns an
:class:`Outcome` carrying the verdict of the check and the op's exact counts
(search nodes, verdict, heuristic iterations, ``nearest_unitary`` calls).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from upoblab import cli, unextend
from upoblab.catalog import construct_by_name
from upoblab.matrix import matrix_from_json
from upoblab.product import OperatorSet, ProductOperator

import oracle
from spans import FACTORIZATIONS, NEAREST_UNITARY

ALL_LABELS = frozenset({"UPOB", "strongly-UPUOB", "UPUOB-evidence"})
EVIDENCE = frozenset({"UPUOB-evidence"})
UPOB = frozenset({"UPOB"})
NO_LABELS = frozenset()

#: verdict_labels and exit code that `upoblab verify` must give on each
#: catalog set, from the paper's claims and the README.
CATALOG = {
    "u2": (12, ALL_LABELS),
    "nqubit:3": (48, None),
    "qutrit-uuo": (6, EVIDENCE),
    "weyl:3": (9, ALL_LABELS),
    "weyl:6": (36, ALL_LABELS),
    "lift:2": (30, EVIDENCE),
    "lift:3": (72, EVIDENCE),
    "example2": (30, EVIDENCE),
    "example1-upb": (11, UPOB),
    "example1-upob": (11, UPOB),
}
PROTOCOLS = ("three-ebit", "nonlocality-evidence")

#: Node budget for the nqubit:4 verify: about 200k nodes, undecided today.
NQUBIT4_BUDGET = 200_000
#: Member counts of the generic three-party sets; all exceed 3 * (4 - 1).
GENERIC_SIZES = (10, 11, 12, 13) * 4
#: Sets per fuzz-certify pass; four families take turns.
FUZZ_SETS = 400
#: lift:2 leave-one-out sets per unitary-hunt pass.
LIFT_SAMPLE = 4
#: Heuristic effort on the three-party leave-one-out set, whose ALS
#: factorization costs about 5 ms per iteration.
NQUBIT_HUNT_RESTARTS = 1
NQUBIT_HUNT_ITERS = 60


@dataclass
class Outcome:
    ok: bool
    counts: dict = field(default_factory=dict)
    detail: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], Outcome]
    #: True for the heuristic hunt, whose unit of work is one heuristic
    #: iteration rather than the whole call.
    per_iteration: bool = False


# -- shared helpers ------------------------------------------------------------


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gaussian(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def local_frame(op_set: OperatorSet, rng, swap: bool = False) -> OperatorSet:
    """The set under A_p X B_p on every party, optionally with parties swapped.

    Local unitaries keep orthonormality, unitarity and (un)extendibility, and
    map product-unitary witnesses to product-unitary witnesses.
    """
    left = [random_unitary(rng, r) for r, _ in op_set.shape]
    right = [random_unitary(rng, c) for _, c in op_set.shape]
    members = []
    for m in op_set.members:
        factors = tuple(left[p] @ f @ right[p] for p, f in enumerate(m.factors))
        members.append(ProductOperator(factors[::-1] if swap else factors, m.label))
    shape = op_set.shape[::-1] if swap else op_set.shape
    return OperatorSet(shape, tuple(members))


def leave_one_out(op_set: OperatorSet, j: int) -> OperatorSet:
    return OperatorSet(op_set.shape, op_set.members[:j] + op_set.members[j + 1 :])


def write_set(op_set: OperatorSet, path: Path):
    path.write_text(json.dumps(op_set.to_json()), encoding="utf-8")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def witness_from_json(obj) -> ProductOperator:
    return ProductOperator(tuple(matrix_from_json(f) for f in obj["factors"]), obj["label"])


def classification_counts(c) -> dict:
    return {"status": c.upob.status, "nodes": c.upob.nodes_explored}


def check_witnesses(c, op_set, verify_witness) -> str:
    """Empty if every witness a Classification carries is orthogonal to the set."""
    if c.upob.witness is not None and not verify_witness(c.upob.witness, op_set):
        return "search witness fails verify_witness"
    if c.unitary_witness is not None and not verify_witness(c.unitary_witness, op_set):
        return "unitary witness fails verify_witness"
    return ""


class Workload:
    """Inputs and op list of one workload; subclasses fill ``self.ops``."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        # Checks call the package's own functions as imported here, before
        # any wrapper is installed, so checking never records spans.
        self.verify_witness = unextend.verify_witness
        self.ops: list[Op] = []

    def warm_up(self):
        """Touch the code paths once (``warm_up_calls``, defined by each
        workload) so lazy imports and first-call costs land in set-up, not in
        the first timed op."""
        for call in self.warm_up_calls():
            call()

    def summary(self, records, latency: dict, walls: list[float]) -> dict:
        """Metrics that only this workload defines: name -> (unit, value,
        samples).  ``latency`` holds the run's ops_per_s and op quantiles and
        ``walls`` the timed seconds of each pass."""
        return {}


# -- catalog-cli ---------------------------------------------------------------


class CatalogCli(Workload):
    """The user's CLI path, in-process through ``upoblab.cli.main``."""

    name = "catalog-cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        names = list(CATALOG)
        constructs = [self._construct(n) for n in names]
        verifies = [self._verify(n) for n in names if not n.startswith("nqubit:")]
        simulates = [self._simulate(p) for p in PROTOCOLS]
        # The seed fixes the order inside each phase; constructs must come
        # first because verify reads their files.
        for group in (constructs, verifies, simulates):
            order = self.rng.permutation(len(group))
            self.ops.extend(group[i] for i in order)

    def _path(self, name: str) -> Path:
        return self.workdir / (name.replace(":", "_") + ".json")

    def _construct(self, name: str) -> Op:
        out = self._path(name)
        argv = ["construct", "--name", name, "--out", str(out)]
        want_members = CATALOG[name][0]

        def check(rc, delta):
            if rc != 0:
                return Outcome(False, {}, f"exit {rc}")
            members = len(read_json(out)["result"]["members"])
            ok = members == want_members
            return Outcome(ok, {"exit": rc, "members": members}, "" if ok else f"{members} members")

        return Op(f"construct:{name}", lambda: cli.main(argv), check)

    def _verify(self, name: str) -> Op:
        src = self._path(name)
        report = self.workdir / ("verify-" + name.replace(":", "_") + ".json")
        argv = ["verify", "--set", str(src), "--json", str(report)]
        want = CATALOG[name][1]

        def check(rc, delta):
            if rc != 0:
                return Outcome(False, {}, f"exit {rc}")
            result = read_json(report)["result"]
            labels = frozenset(result["verdict_labels"])
            counts = {
                "exit": rc,
                "status": result["upob"]["status"],
                "nodes": result["upob"]["nodes_explored"],
                "labels": sorted(labels),
            }
            if labels != want:
                return Outcome(False, counts, f"labels {sorted(labels)}")
            op_set = OperatorSet.from_json(read_json(src)["result"])
            for kind, obj in (("search", result["upob"].get("witness")),
                              ("unitary", result.get("unitary_witness"))):
                if obj is not None and not self.verify_witness(witness_from_json(obj), op_set):
                    return Outcome(False, counts, f"{kind} witness fails verify_witness")
            return Outcome(True, counts)

        return Op(f"verify:{name}", lambda: cli.main(argv), check)

    def _simulate(self, protocol: str) -> Op:
        report = self.workdir / f"simulate-{protocol}.json"
        argv = ["simulate", "--protocol", protocol, "--json", str(report)]

        def check(rc, delta):
            if rc != 0:
                return Outcome(False, {}, f"exit {rc}")
            result = read_json(report)["result"]
            if protocol == "three-ebit":
                ebits = result["ebits_consumed"]
                return Outcome(ebits == 3, {"exit": rc, "ebits": ebits}, f"{ebits} ebits")
            passed = bool(result["all_passed"])
            return Outcome(passed, {"exit": rc, "all_passed": passed}, "a fact failed")

        return Op(f"simulate:{protocol}", lambda: cli.main(argv), check)

    def summary(self, records, latency, walls):
        return {
            "cli_calls_per_s": latency["ops_per_s"],
            "cli_p50_ms": latency["op_p50_ms"],
            "cli_p90_ms": latency["op_p90_ms"],
        }

    def warm_up_calls(self):
        # One call of each subcommand, the construct before its verify.
        warm = ("construct:u2", "verify:u2", "simulate:three-ebit")
        return [op.call for op in self.ops if op.name in warm]


# -- deep-certify --------------------------------------------------------------


class DeepCertify(Workload):
    """Certifications where the depth-first search does nearly all the work."""

    name = "deep-certify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        for n in (3, 4):
            write_set(construct_by_name(f"nqubit:{n}"), workdir / f"nqubit_{n}.json")
        self.ops.append(self._verify(3, None))
        self.ops.append(self._verify(4, NQUBIT4_BUDGET))
        shape = ((2, 2),) * 3
        for size in GENERIC_SIZES:
            members = tuple(
                ProductOperator(tuple(gaussian(self.rng, (2, 2)) for _ in shape), f"g_{j}")
                for j in range(size)
            )
            self.ops.append(self._classify(OperatorSet(shape, members)))

    def _verify(self, n: int, budget: int | None) -> Op:
        src = self.workdir / f"nqubit_{n}.json"
        report = self.workdir / f"verify-nqubit_{n}.json"
        argv = ["verify", "--set", str(src), "--json", str(report)]
        if budget is not None:
            argv += ["--budget", str(budget)]

        def check(rc, delta):
            result = read_json(report)["result"] if rc in (0, 1, 3) else None
            if result is None:
                return Outcome(False, {}, f"exit {rc}")
            labels = frozenset(result["verdict_labels"])
            counts = {
                "exit": rc,
                "status": result["upob"]["status"],
                "nodes": result["upob"]["nodes_explored"],
                "labels": sorted(labels),
            }
            # nqubit:N is strongly UPUOB; a budgeted search may stop unknown.
            decided_ok = rc == 0 and labels == ALL_LABELS
            unknown_ok = budget is not None and rc == 3 and counts["status"] == "unknown"
            ok = decided_ok or unknown_ok
            return Outcome(ok, counts, "" if ok else f"exit {rc}, labels {sorted(labels)}")

        name = f"verify:nqubit:{n}" + (f"@{budget}" if budget else "")
        return Op(name, lambda: cli.main(argv), check)

    def _classify(self, op_set: OperatorSet) -> Op:
        want = oracle.generic_verdict(op_set)

        def check(c, delta):
            counts = classification_counts(c)
            if c.upob.status == "unknown":
                return Outcome(True, counts)
            detail = check_witnesses(c, op_set, self.verify_witness)
            if c.upob.status != want:
                detail = f"status {c.upob.status}, counting rule says {want}"
            elif c.verdict_labels != NO_LABELS:
                detail = f"labels {sorted(c.verdict_labels)} on a non-orthogonal set"
            return Outcome(not detail, counts, detail)

        return Op(f"classify:generic{len(op_set)}", lambda: unextend.classify(op_set), check)

    def warm_up_calls(self):
        u2 = construct_by_name("u2")
        return [lambda: unextend.classify(u2)]

    def summary(self, records, latency, walls):
        n3 = [r.calibrated for r in records if r.op.name == "verify:nqubit:3"]
        decided = sum(1 for r in records if r.outcome.counts.get("status") in ("extendible", "unextendible"))
        return {
            "nqubit3_verify_s": ("s", float(np.median(n3)), len(n3)),
            "deep_wall_s": ("s", float(np.median(walls)), len(walls)),
            "decided_ratio": ("ratio", decided / len(records), len(records)),
        }


# -- fuzz-certify --------------------------------------------------------------


class FuzzCertify(Workload):
    """Many small classify calls, where per-call fixed costs dominate."""

    name = "fuzz-certify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from upoblab.catalog import example1_upob

        self.example1 = example1_upob()
        families = (
            lambda k: self._operators_2x2(k, pooled=False),
            lambda k: self._operators_2x2(k, pooled=True),
            self._vectors_3x3,
            self._example1_frame,
        )
        # Member counts cycle through their range in each family, so every
        # seed gives the same mix of sizes and only the entries change.
        for i in range(FUZZ_SETS):
            family = families[i % len(families)]
            self.ops.append(self._classify(*family(i // len(families))))

    def _operators_2x2(self, k: int, pooled: bool):
        """Criterion-10d style: 2-10 members; in a pooled set each factor is
        drawn with probability 1/2 from a pool of four, so directions repeat."""
        rng = self.rng
        n = 2 + k % 9
        pool = [gaussian(rng, (2, 2)) for _ in range(4)]
        members = []
        for j in range(n):
            factors = []
            for _ in range(2):
                if pooled and rng.integers(2):
                    factors.append(pool[rng.integers(4)] * (0.5 + 1j))
                else:
                    factors.append(gaussian(rng, (2, 2)))
            members.append(ProductOperator(tuple(factors), f"m_{j}"))
        family = "pooled2x2" if pooled else "gaussian2x2"
        return family, OperatorSet(((2, 2), (2, 2)), tuple(members)), None

    def _vectors_3x3(self, k: int):
        """Product vectors in C^3 x C^3 (non-square parties), 2-7 members,
        half of the factors drawn from a pool of three."""
        rng = self.rng
        n = 2 + k % 6
        pool = [gaussian(rng, (3, 1)) for _ in range(3)]
        members = tuple(
            ProductOperator(
                tuple(pool[rng.integers(3)] if rng.integers(2) else gaussian(rng, (3, 1)) for _ in range(2)),
                f"psi_{j}",
            )
            for j in range(n)
        )
        return "vectors3x3", OperatorSet(((3, 1), (3, 1)), members), None

    def _example1_frame(self, k: int):
        """Criterion-10c style: example1-upob in a random local frame."""
        swap = bool(self.rng.integers(2))
        return "example1-frame", local_frame(self.example1, self.rng, swap), UPOB

    def _classify(self, family, op_set, want_labels) -> Op:
        # Computed on the first check only; later passes reuse it.
        reference = functools.cache(lambda: oracle.exhaustive_verdict(op_set))

        def check(c, delta):
            counts = classification_counts(c)
            want = reference()
            if c.upob.status != want:
                return Outcome(False, counts, f"status {c.upob.status}, oracle says {want}")
            if want_labels is not None and c.verdict_labels != want_labels:
                return Outcome(False, counts, f"labels {sorted(c.verdict_labels)}")
            detail = check_witnesses(c, op_set, self.verify_witness)
            return Outcome(not detail, counts, detail)

        return Op(f"classify:{family}", lambda: unextend.classify(op_set), check)

    def warm_up_calls(self):
        return [op.call for op in self.ops[:4]]

    def summary(self, records, latency, walls):
        return {
            "fuzz_sets_per_s": latency["ops_per_s"],
            "fuzz_p50_ms": latency["op_p50_ms"],
            "fuzz_p99_ms": latency["op_p99_ms"],
        }


# -- unitary-hunt --------------------------------------------------------------


class UnitaryHunt(Workload):
    """The seeded product-unitary heuristic, on sets where it must iterate."""

    name = "unitary-hunt"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        u2 = construct_by_name("u2")
        lift2 = construct_by_name("lift:2")
        nqubit3 = construct_by_name("nqubit:3")
        for j in range(len(u2)):
            self.ops.append(self._classify_loo("u2", j, local_frame(leave_one_out(u2, j), self.rng)))
        for j in sorted(self.rng.choice(len(lift2), size=LIFT_SAMPLE, replace=False)):
            j = int(j)
            self.ops.append(self._classify_loo("lift:2", j, local_frame(leave_one_out(lift2, j), self.rng)))
        self.ops.append(self._search("u2", u2, False, {}))
        j = int(self.rng.integers(len(nqubit3)))
        loo = local_frame(leave_one_out(nqubit3, j), self.rng)
        kwargs = {"restarts": NQUBIT_HUNT_RESTARTS, "iters": NQUBIT_HUNT_ITERS}
        self.ops.append(self._search(f"nqubit:3-loo{j}", loo, True, kwargs))

    def _heuristic_counts(self, delta):
        return {
            "iterations": delta.get(FACTORIZATIONS, 0),
            "nearest_unitary": delta.get(NEAREST_UNITARY, 0),
        }

    def _classify_loo(self, base: str, j: int, op_set: OperatorSet) -> Op:
        """Every leave-one-out set is extendible: the dropped member, moved by
        the same frame, is a product-unitary witness."""

        def check(c, delta):
            counts = {**classification_counts(c), **self._heuristic_counts(delta)}
            counts["found"] = c.unitary_witness is not None
            if c.upob.status != "extendible":
                return Outcome(False, counts, f"status {c.upob.status} on an extendible set")
            detail = check_witnesses(c, op_set, self.verify_witness)
            want = NO_LABELS if counts["found"] else EVIDENCE
            if not detail and c.verdict_labels != want:
                detail = f"labels {sorted(c.verdict_labels)}"
            return Outcome(not detail, counts, detail)

        return Op(f"classify:{base}-loo{j}", lambda: unextend.classify(op_set), check, True)

    def _search(self, label: str, op_set: OperatorSet, has_witness: bool, kwargs) -> Op:
        def check(w, delta):
            counts = {**self._heuristic_counts(delta), "found": w is not None}
            if w is None:
                return Outcome(True, counts)
            if not has_witness:
                return Outcome(False, counts, "witness returned for an unextendible set")
            ok = self.verify_witness(w, op_set)
            return Outcome(ok, counts, "" if ok else "unitary witness fails verify_witness")

        return Op(
            f"unitary_witness_search:{label}",
            lambda: unextend.unitary_witness_search(op_set, **kwargs),
            check,
            True,
        )

    def warm_up_calls(self):
        # A few iterations on a two-party and a three-party set.
        sets = [leave_one_out(construct_by_name(n), 0) for n in ("u2", "nqubit:3")]
        return [lambda s=s: unextend.unitary_witness_search(s, restarts=1, iters=3) for s in sets]

    def summary(self, records, latency, walls):
        loo = [r for r in records if "-loo" in r.op.name]
        found = sum(1 for r in loo if r.outcome.counts.get("found"))
        return {
            "hunt_wall_s": ("s", float(np.median(walls)), len(walls)),
            "witness_found_ratio": ("ratio", found / len(loo), len(loo)),
        }


WORKLOADS = {w.name: w for w in (CatalogCli, DeepCertify, FuzzCertify, UnitaryHunt)}
