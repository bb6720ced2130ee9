"""Machine-speed calibration for timed ops.

On a shared 2-core host the same fixed work was seen to take anywhere from
0.28 s to 0.52 s within one minute, in phases lasting seconds, with CPU time
moving as much as wall time.  No single run outlasts that, so the benchmark
samples the machine's speed while it measures: a timer interrupts the main
thread every ``INTERVAL_S`` and runs a fixed reference kernel of the same kind
of work as the package (see ``Calibrator.kernel``).  An op's time excludes
the kernel runs that interrupted it and is scaled by ``NOMINAL_S`` over the
median kernel time around the op: the time the op would take on a machine
that runs the kernel in exactly ``NOMINAL_S``.

Set-up (imports, input generation, warm-up) is calibrated the same way by
:class:`SetupCalibrator`, whose kernel needs nothing that set-up imports, so
it can run while ``numpy`` and ``upoblab`` are being imported.

The kernels use no ``upoblab`` code, so a change to the package moves
calibrated times exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import marshal
import signal
import statistics
from array import array
from time import perf_counter

INTERVAL_S = 0.05
#: Kernel samples this far before and after an op count towards its speed.
WINDOW_S = 0.5
#: Median kernel time on the 2-core x86_64 host the benchmark was defined on.
NOMINAL_S = 0.002


class _TimedKernel:
    """Runs ``kernel`` every ``interval`` seconds on a timer and scales the
    time of the code it interrupted by ``nominal`` over the kernel's time."""

    interval = INTERVAL_S
    nominal = NOMINAL_S

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")

    def kernel(self):
        raise NotImplementedError

    def _on_timer(self, signum, frame):
        # With the collector off the kernel cannot trigger a collection of
        # the op's own objects, which would land in the kernel's time.
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        try:
            self.kernel()
        finally:
            self.starts.append(t0)
            self.ends.append(perf_counter())
            if gc_was_on:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_time(self, t0: float, t1: float) -> float:
        """Seconds of kernel runs that started inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def factor(self, t0: float, t1: float) -> float:
        """``nominal`` over the median kernel time in [t0 - WINDOW_S, t1 + WINDOW_S]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        if hi - lo < 3:
            raise RuntimeError("too few calibration samples around an op")
        return self.nominal / statistics.median(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def calibrated(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] less the kernel runs, at nominal speed."""
        return (t1 - t0 - self.kernel_time(t0, t1)) * self.factor(t0, t1)


class Calibrator(_TimedKernel):
    """Calibrates timed ops with a kernel of the package's kinds of work."""

    # numpy is imported inside the methods, not by the module, so that
    # importing this module leaves numpy's import to the set-up it times.

    def __init__(self):
        import numpy as np

        super().__init__()
        rng = np.random.default_rng(0)
        vecs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(6)]
        self._units = [v / np.linalg.norm(v) for v in vecs]
        comp = rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5))
        self._comp = np.linalg.qr(comp)[0].T
        self._doc = {
            "members": [
                {"label": f"m_{j}", "entries": rng.normal(size=(8, 2)).tolist()} for j in range(6)
            ]
        }

    def kernel(self):
        """Three fixed parts: an indented JSON round trip, like the CLI's
        reports; a depth-first span search over six unit vectors with a
        frozenset memo, like the certifier; and eight alternating projections
        with small SVDs, like the unitary-witness heuristic."""
        import numpy as np

        json.loads(json.dumps(self._doc, indent=2))
        self._dfs(0, ([], []), (frozenset(), frozenset()), set())
        comp = self._comp
        v = comp[0].copy()
        for _ in range(8):
            u, s, vh = np.linalg.svd(v.reshape(4, 4), full_matrices=False)
            a, b = (u[:, 0] * s[0]).reshape(2, 2), vh[0].reshape(2, 2)
            ua, _, va = np.linalg.svd(a)
            ub, _, vb = np.linalg.svd(b)
            w = np.multiply.outer((ua @ va).ravel(), (ub @ vb).ravel()).ravel()
            proj = (comp.conj() @ w) @ comp
            v = proj / np.linalg.norm(proj)

    def _dfs(self, depth, bases, held, failed):
        import numpy as np

        if depth == len(self._units):
            return
        key = (depth, held[0], held[1])
        if key in failed:
            return
        for p in (0, 1):
            v = self._units[depth].copy()
            for b in bases[p]:
                v -= np.vdot(b, v) * b
            nrm = np.linalg.norm(v)
            if nrm > 1e-9 and len(bases[p]) < 3:
                grown = bases[p] + [v / nrm]
                if p == 0:
                    self._dfs(depth + 1, (grown, bases[1]), (held[0] | {depth}, held[1]), failed)
                else:
                    self._dfs(depth + 1, (bases[0], grown), (held[0], held[1] | {depth}), failed)
        failed.add(key)


#: Synthetic module the set-up kernel loads: function and class definitions,
#: as an import runs them.
_MODULE_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    return [x + y * k for k in range({i % 7})]\n"
    f"class C{i}:\n    a = {i}\n    def m(self, z):\n        return {{'k': z, 'v': {i}}}\n"
    for i in range(80)
)


class SetupCalibrator(_TimedKernel):
    """Calibrates set-up with a pure-Python kernel: unmarshal and run a
    compiled module, as an import does, and an indented JSON round trip.
    Set-up lasts a fraction of a second, so the timer fires more often."""

    interval = 0.02
    #: Median set-up kernel time on the host the benchmark was defined on.
    nominal = 0.0017

    def __init__(self):
        super().__init__()
        self._code = marshal.dumps(compile(_MODULE_SOURCE, "<setup-kernel>", "exec"))
        self._doc = {
            "members": [
                {"label": f"m_{j}", "entries": [[0.1 * j, 0.2], [0.3, 0.4 * j]] * 4} for j in range(6)
            ]
        }

    def kernel(self):
        exec(marshal.loads(self._code), {"__name__": "setup_kernel"})
        json.loads(json.dumps(self._doc, indent=2))
