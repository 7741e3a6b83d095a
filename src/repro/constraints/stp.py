"""Simple Temporal Problem (STP) solver, after Dechter, Meiri & Pearl.

Within a single granularity, a set of TCGs over the same temporal type is
exactly an STP: variables with binary difference constraints
``m <= X_j - X_i <= n``.  Path consistency on the distance graph (here:
Floyd-Warshall all-pairs shortest paths) computes the *minimal network*
in ``O(|V|^3)`` and detects inconsistency as a negative cycle.

This is the propagation primitive the paper's Section 3.2 algorithm runs
inside each granularity group.

Two closure kernels are available (see :func:`resolve_kernel`):

``python``
    the reference triple loop, exactly as the paper-faithful engine has
    always run it;
``numpy``
    a vectorized Floyd-Warshall (one ``minimum`` broadcast per pivot)
    that produces bit-identical distance matrices for all bounds whose
    magnitude fits exactly in a float64 (``< 2**52``; larger inputs
    silently fall back to the python loop so exactness is never lost).

``auto`` picks per closure: numpy from ``_NUMPY_MIN_VARIABLES`` (10)
variables up, the python loop below, where it is faster per call - so
mining-size structures never load numpy at all.

On top of full closure, :meth:`STP.tighten_many` restores the minimal
network *incrementally* after a batch of arcs tightened - ``O(n^2)``
per tightened arc instead of the ``O(n^3)`` re-closure - which is the
work-saving primitive of the fast-path propagation engine.

numpy is optional (:mod:`repro._numpy`; ``REPRO_NO_NUMPY`` ignores an
installed one): without it the python kernel runs.  This is the only
module that binds numpy.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .._numpy import np as _np
from ..obs import counter as _obs_counter

Interval = Tuple[int, int]

#: Sentinel for "no bound" in the distance matrix.
INF = float("inf")

# Per-(kind, kernel) closure counters, created lazily and cached so the
# hot path is one dict lookup plus a gated increment.
_CLOSURE_COUNTERS: Dict[Tuple[str, str], object] = {}


def _count_closure(kind: str, kernel: str) -> None:
    key = (kind, kernel)
    metric = _CLOSURE_COUNTERS.get(key)
    if metric is None:
        metric = _obs_counter(
            "repro_stp_closures_total",
            "STP minimal-network computations by kind and kernel",
            labels={"kind": kind, "kernel": kernel},
        )
        _CLOSURE_COUNTERS[key] = metric
    metric.inc()

#: Largest magnitude exactly representable as consecutive integers in a
#: float64; beyond it the numpy kernel falls back to exact python.
_FLOAT_EXACT_LIMIT = 2 ** 52

#: Closure kernels selectable on :class:`STP` (besides ``"auto"``).
KERNELS = ("python", "numpy")

#: Engine names accepted by :func:`~repro.constraints.propagation.
#: propagate` (and the CLI ``--engine``); here, next to the kernels,
#: so building the CLI parser loads no propagation code.
ENGINES = ("auto", "python", "numpy", "fallback")

#: The fewest variables an ``auto`` closure hands to numpy: the
#: measured per-call crossover.  Python wins below it (3 variables:
#: python 4.9 us, numpy 15.4 us; 8: 41 vs 49 us; 9: 56 vs 58 us) and
#: numpy from it (10 variables: numpy 66 us, python 71 us; 12: 97 vs
#: 114 us; 48: 0.97 vs 4.8 ms), on one core of a 2-vCPU x86-64 host
#: with numpy already loaded.
_NUMPY_MIN_VARIABLES = 10


class InconsistentSTP(Exception):
    """Raised when an STP's distance graph contains a negative cycle."""


class EngineUnavailable(RuntimeError):
    """An explicitly requested kernel/engine cannot run here."""


def have_numpy() -> bool:
    """Is the vectorized kernel available in this process?"""
    return _np is not None


def resolve_kernel(kernel: str) -> str:
    """Normalise a kernel name.

    ``auto`` stays ``auto`` (each closure then picks by size) when numpy
    is available and becomes ``python`` otherwise.  Raises
    :class:`EngineUnavailable` when ``numpy`` is requested explicitly
    but the import failed (or was disabled via ``REPRO_NO_NUMPY``).
    """
    if kernel == "auto":
        return "auto" if _np is not None else "python"
    if kernel not in KERNELS:
        raise ValueError(
            "unknown closure kernel %r (expected one of %r or 'auto')"
            % (kernel, KERNELS)
        )
    if kernel == "numpy" and _np is None:
        raise EngineUnavailable(
            "the numpy closure kernel was requested but numpy is not "
            "importable (or REPRO_NO_NUMPY is set)"
        )
    return kernel


class STP:
    """A Simple Temporal Problem over hashable variable names.

    Constraints are intervals on differences: ``add(x, y, lo, hi)``
    asserts ``lo <= y - x <= hi``.  :meth:`closure` computes the minimal
    network (tightest implied intervals for every ordered pair).

    ``kernel`` selects the closure implementation (``"python"``,
    ``"numpy"`` or ``"auto"``, which runs numpy only from
    ``_NUMPY_MIN_VARIABLES`` variables up); every kernel yields exactly
    the same minimal network, which the differential test oracle in
    ``tests/differential/`` verifies case by case.
    """

    def __init__(self, variables: Iterable[Hashable], kernel: str = "python"):
        self.variables: List[Hashable] = list(dict.fromkeys(variables))
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.kernel = resolve_kernel(kernel)
        n = len(self.variables)
        # dist[i][j] = tightest known upper bound on var_j - var_i.
        self._dist = [
            [0 if i == j else INF for j in range(n)] for i in range(n)
        ]

    def add(self, x: Hashable, y: Hashable, lo: float, hi: float) -> None:
        """Assert ``lo <= y - x <= hi`` (either bound may be infinite)."""
        if lo > hi:
            raise InconsistentSTP(
                "empty interval [%r, %r] on (%r, %r)" % (lo, hi, x, y)
            )
        i, j = self._index[x], self._index[y]
        if hi < self._dist[i][j]:
            self._dist[i][j] = hi
        if -lo < self._dist[j][i]:
            self._dist[j][i] = -lo

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def closure(self) -> None:
        """Floyd-Warshall path consistency; raises on negative cycles."""
        if self._runs_numpy() and self._numpy_exact():
            _count_closure("full", "numpy")
            self._closure_numpy()
        else:
            # Counts what actually ran: a numpy STP outside the exact
            # float64 range executes (and records) the python loop.
            _count_closure("full", "python")
            self._closure_python()
        dist = self._dist
        for i in range(len(dist)):
            if dist[i][i] < 0:
                raise InconsistentSTP(
                    "negative cycle through %r" % (self.variables[i],)
                )

    def _runs_numpy(self) -> bool:
        if self.kernel == "auto":
            return len(self._dist) >= _NUMPY_MIN_VARIABLES
        return self.kernel == "numpy"

    def _closure_python(self) -> None:
        dist = self._dist
        n = len(dist)
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik is INF or dik == INF:
                    continue
                di = dist[i]
                for j in range(n):
                    candidate = dik + dk[j]
                    if candidate < di[j]:
                        di[j] = candidate

    def _closure_numpy(self) -> None:
        n = len(self._dist)
        if n == 0:
            return
        a = _np.array(self._dist, dtype=_np.float64)
        for k in range(n):
            _np.minimum(a, a[:, k : k + 1] + a[k : k + 1, :], out=a)
        self._write_back(a)

    def _numpy_exact(self) -> bool:
        """Can float64 arithmetic reproduce the python loop exactly?

        True when every finite bound (and hence every path sum, which
        the per-node magnitude bound caps at ``n`` times the largest
        edge) stays within the float64 exact-integer range.
        """
        n = len(self._dist)
        worst = 0
        for row in self._dist:
            for value in row:
                if value != INF and value == value:  # finite
                    magnitude = abs(value)
                    if magnitude > worst:
                        worst = magnitude
        return worst * max(n, 1) < _FLOAT_EXACT_LIMIT

    def _write_back(self, array) -> None:
        """Store a float64 matrix back as python ints/INF rows."""
        dist = self._dist
        n = len(dist)
        isinf = _np.isinf(array)
        for i in range(n):
            row = dist[i]
            arow = array[i]
            irow = isinf[i]
            for j in range(n):
                if irow[j]:
                    row[j] = INF
                else:
                    value = arow[j]
                    as_int = int(value)
                    row[j] = as_int if as_int == value else float(value)

    # ------------------------------------------------------------------
    # Incremental re-closure
    # ------------------------------------------------------------------
    def tighten_many(
        self,
        updates: Sequence[Tuple[Tuple[Hashable, Hashable], float, float]],
    ) -> None:
        """Apply tightened arcs to an already-closed STP, restoring the
        minimal network incrementally.

        ``updates`` is a sequence of ``((x, y), lo, hi)`` entries.  The
        matrix must currently be path-consistent (i.e. :meth:`closure`
        ran and did not raise); each arc is then relaxed against the
        closed matrix in ``O(n^2)``, which is the standard exact
        incremental all-pairs update for an edge-weight decrease.
        Raises :class:`InconsistentSTP` when a tightening creates a
        negative cycle (the matrix contents are then unspecified, like
        a failed :meth:`closure`).

        Large batches switch to a plain re-closure: ``k`` tightened
        arcs cost ``O(k n^2)`` incrementally but only ``O(n^3)`` (and
        vectorized, on the numpy kernel) as one full closure, so past
        ``2 k >= n`` the full pass is the cheaper *and* equally exact
        route - both compute the unique minimal network of the same
        updated constraint graph.
        """
        n = len(self._dist)
        if 2 * len(updates) >= n:
            for (x, y), lo, hi in updates:
                self.add(x, y, lo, hi)
            self.closure()
            return
        _count_closure("incremental", "python")
        for (x, y), lo, hi in updates:
            if lo > hi:
                raise InconsistentSTP(
                    "empty interval [%r, %r] on (%r, %r)" % (lo, hi, x, y)
                )
            i, j = self._index[x], self._index[y]
            self._relax_edge(i, j, hi)
            self._relax_edge(j, i, -lo)
        dist = self._dist
        for i in range(len(dist)):
            if dist[i][i] < 0:
                raise InconsistentSTP(
                    "negative cycle through %r" % (self.variables[i],)
                )

    def tighten(self, x: Hashable, y: Hashable, lo: float, hi: float) -> None:
        """Single-arc convenience form of :meth:`tighten_many`."""
        self.tighten_many([((x, y), lo, hi)])

    def _relax_edge(self, u: int, v: int, weight: float) -> None:
        """Relax every pair through a new/tightened edge ``u -> v``.

        For a closed matrix, ``dist[a][b] = min(dist[a][b],
        dist[a][u] + weight + dist[v][b])`` over all pairs restores
        closure after the single edge decrease.
        """
        dist = self._dist
        if weight >= dist[u][v]:
            # Not actually tighter: by the triangle inequality of the
            # closed matrix, no pair can improve through this edge.
            return
        n = len(dist)
        for a in range(n):
            dau = dist[a][u]
            if dau is INF or dau == INF:
                continue
            base = dau + weight
            if base == INF:
                continue
            da = dist[a]
            dv = dist[v]
            for b in range(n):
                candidate = base + dv[b]
                if candidate < da[b]:
                    da[b] = candidate

    # ------------------------------------------------------------------
    # Reading the network
    # ------------------------------------------------------------------
    def interval(self, x: Hashable, y: Hashable) -> Tuple[float, float]:
        """Tightest known ``[lo, hi]`` for ``y - x`` (call closure first)."""
        i, j = self._index[x], self._index[y]
        return -self._dist[j][i], self._dist[i][j]

    def finite_intervals(self) -> Dict[Tuple[Hashable, Hashable], Interval]:
        """All ordered pairs with a fully finite, non-trivial interval.

        Only pairs with ``lo >= 0`` are reported, matching the paper's
        convention that constraints follow the DAG direction (the reverse
        pair carries the mirrored information).
        """
        result: Dict[Tuple[Hashable, Hashable], Interval] = {}
        n = len(self.variables)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                hi = self._dist[i][j]
                lo = -self._dist[j][i]
                if hi is INF or hi == INF or lo == -INF:
                    continue
                if lo >= 0:
                    result[(self.variables[i], self.variables[j])] = (
                        int(lo),
                        int(hi),
                    )
        return result


def solve_intervals(
    variables: Iterable[Hashable],
    constraints: Mapping[Tuple[Hashable, Hashable], Interval],
    kernel: str = "python",
) -> Optional[Dict[Tuple[Hashable, Hashable], Interval]]:
    """One-shot convenience: closure of a constraint map, or None.

    Returns the minimal network's finite forward intervals, or None when
    the STP is inconsistent.
    """
    stp = STP(variables, kernel=kernel)
    try:
        for (x, y), (lo, hi) in constraints.items():
            stp.add(x, y, lo, hi)
        stp.closure()
    except InconsistentSTP:
        return None
    return stp.finite_intervals()
