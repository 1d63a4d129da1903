"""The 3D Scalar Wave Modeling (SWM) solver — the paper's core contribution.

Solves the coupled surface integral equations (the corrected form of the
paper's eq. (7), whose ``1/2 I`` and ``D`` signs follow from the double
layer's jump relations)

.. math::

    (\\tfrac12 I - D_1)\\,\\psi + \\beta S_1\\, v &= \\psi_{in} \\\\
    (\\tfrac12 I + D_2)\\,\\psi - S_2\\, v &= 0

for the surface field ``psi`` (the tangential-H-like scalar) and its
conductor-side normal derivative ``v``, then evaluates the absorbed power
(eq. (10)) and the smooth-surface reference (eq. (11)):

.. math::

    P_r = \\tfrac12 \\int_S \\mathrm{Re}\\{\\psi^* v\\}\\,\\mathrm{d}S,
    \\qquad
    P_s = |T_0|^2 L^2 / (2\\delta).

``Pr/Ps`` is the paper's loss-enhancement factor.

Internally all geometry is converted to micrometers so matrix entries are
O(1); the public API takes SI meters/Hz.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..constants import METER_TO_UM
from ..errors import ConfigurationError, SolverError
from ..materials import PAPER_SYSTEM, TwoMediumSystem
from .. import telemetry
from ..telemetry import span
from .assembly import AssemblyOptions
from .geometry import (SurfaceMesh2D, SurfaceMesh3D, build_mesh_3d,
                       build_meshes_3d)
from .plan import (NEAR_BLOCK_POINTS, AssemblyPlan3D, MediumBlocks,
                   check_same_grid)


@dataclass(frozen=True)
class SWMResult:
    """Solution of one deterministic SWM problem, 3D or 2D.

    ``absorbed_power`` and ``smooth_power`` are in the paper's arbitrary
    scalar-flux units (only the ratio ``enhancement`` is physical); the
    2D solver's are per unit length along y.
    """

    frequency_hz: float
    enhancement: float
    absorbed_power: float
    smooth_power: float
    psi: np.ndarray
    v: np.ndarray
    mesh: SurfaceMesh3D | SurfaceMesh2D

    @property
    def pr_over_ps(self) -> float:
        """Alias for :attr:`enhancement` (the paper's Pr/Ps)."""
        return self.enhancement


@dataclass(frozen=True)
class SWMOptions:
    """Numerical options of the 3D solver: its assembly.

    How many samples a batched solve stacks is the solver's own
    decision (:meth:`SWMSolver3D.chunk_size`, one byte budget), and
    every assembled system is checked finite before it is factored.
    """

    assembly: AssemblyOptions = field(default_factory=AssemblyOptions)

    def to_spec(self) -> dict:
        """Content-hashable dict (keys the engine's result cache).
        The assembly part comes from :meth:`AssemblyOptions.to_spec`,
        so the kernel revision reaches every 3D hash."""
        return {"assembly": self.assembly.to_spec()}


_M_TABLE_BUILDS = telemetry.counter(
    "repro_swm_table_builds_total",
    "3D kernel tables built because no cached table covered a chunk's "
    "height range.")

#: Bytes one stacked chunk's working set may take per frequency: its
#: ``(B, 2N, 2N)`` system, both media's ``(B, M)`` kernel-pass arrays
#: and the near block. Measured at perfbench's 8 x 8 grids, where it
#: stacks 4 samples: more cut little further wall time and grew the
#: peak resident memory. Grids of 20 x 20 and up get one sample per
#: chunk; their per-solve fixed costs are a small share of a solve.
#: Frequencies stacked in one call each add their own system and media
#: (a scheduler group's 6 frequencies at 8 x 8 ran 1.5x slower at one
#: sample per chunk than at 4), so the budget is not divided by them.
_CHUNK_BYTES = 3 << 20

#: The near block's share of the budget, 64 bytes per sub-point. A block
#: holds at most 40: each sub-point's distance and its reciprocal (16
#: bytes, shared by every medium), and one medium's phase at a time as
#: real and imaginary planes (16) with the one float temporary that
#: forms them (8); building that geometry peaks at 32. Traced at 8 x 8,
#: a block peaks at 42 bytes per sub-point, per-entry arrays included.
_NEAR_BYTES = 64 * NEAR_BLOCK_POINTS


class _SWMSolver:
    """The solve path both SWM solvers share.

    The 3D and 2D formulations solve the same coupled block system, so
    the public entry points, the resolution and same-grid checks, the
    chunk loop, block-system formation, factorization and the power
    evaluation live here once. A subclass supplies only what differs:

    - ``_options_type``, its options class;
    - ``_build_mesh(heights_um, period_um)``, ``_build_meshes`` for a
      batched height stack (the 3D one takes one FFT per stack) and
      ``_stack_rank``, that stack's ``ndim`` (3 for ``(B, n, n)`` maps,
      2 for ``(B, n)`` profiles);
    - ``_kernel_parts``, the ``(B, M)`` arrays one medium's kernel pass
      returns (for :meth:`chunk_size`);
    - ``_chunk_assembly(meshes, freqs, ks, meta)``: the work that stays
      outside the ``assemble`` span (kernel fetches, the ``plan`` span
      with ``meta``), returning a call that :meth:`_solve_stack` runs
      inside that span; the call writes each medium's ``D`` and ``S``
      into the :class:`~repro.swm.plan.MediumBlocks` it is handed,
      ordered ``(k1, k2)`` per frequency;
    - ``_elements(mesh)``, the surface elements of the power integral;
    - ``smooth_power(period_um, frequency_hz)``.

    Both keep a kernel-table cache, ``(which_medium, frequency, period,
    n) -> tables``, behind one policy (:meth:`_cached_tables`); each
    subclass supplies only its table builder (in ``_get_tables``) and
    build counter (``_table_builds``). The tables amortize MC/SSCM
    sweeps (hundreds of samples per frequency reuse one table build)
    and only grow: a chunk whose height range outgrows a table replaces
    it with a longer one, covering the range reserved by
    :meth:`reset_tables` when that holds the chunk, else the chunk's own
    range with a 1.5x margin. Tables of one configuration sample the
    same nodes, so which table serves a solve never changes its values.
    """

    #: The telemetry counter of this solver's table builds.
    _table_builds: telemetry.Counter

    def __init__(self, system: TwoMediumSystem = PAPER_SYSTEM,
                 options=None) -> None:
        self.system = system
        self.options = options or self._options_type()
        self._tables: dict[tuple[int, float, float, int], object] = {}
        self._z_reserve = 0.0

    def reset_tables(self, z_reserve: float = 0.0) -> None:
        """Drop cached kernel tables to release their memory, and have
        the next ones cover ``|dz| <= z_reserve``.

        A caller that knows the height range of the coming surfaces (a
        random surface model's, say) reserves it, so that every sample
        within it is served by one build per medium. Without a reserve
        each table covers the chunk that built it (1.5x margin) and is
        rebuilt when a taller sample arrives, so a run's build cost
        follows the order and ranges of its samples.

        Results depend on neither: every table of one configuration
        returns the same values on the separations it covers
        (:mod:`repro.swm.fastkernel`, :mod:`repro.swm.fastkernel2d`), so
        a warm solver and a fresh one agree bit for bit.
        """
        z_reserve = float(z_reserve)
        if not (math.isfinite(z_reserve) and z_reserve >= 0.0):
            raise ConfigurationError(
                f"z_reserve must be finite and >= 0, got {z_reserve}")
        self._tables.clear()
        self._z_reserve = z_reserve

    def _cached_tables(self, keys: list[tuple[int, float]],
                       ks: list[complex], meshes: list,
                       build: Callable[[list[complex], float], list]
                       ) -> list:
        """The cached tables of each ``(which_medium, frequency)`` in
        ``keys`` (wavenumbers ``ks``) on the chunk's grid.

        Those that do not cover the chunk's height range are rebuilt by
        one ``build(stale_ks, z_extent)`` call inside a ``tables`` span,
        and counted in :attr:`_table_builds`. They cover the reserved
        range when it holds the chunk, else the chunk's range with a
        1.5x margin.
        """
        n, period = meshes[0].n, float(meshes[0].period)
        z_extent = self._height_extent(meshes)
        full = [(which, float(f), period, n) for which, f in keys]
        stale = [i for i, key in enumerate(full)
                 if key not in self._tables
                 or not self._tables[key].covers(z_extent)]
        if stale:
            cover = (self._z_reserve if z_extent <= self._z_reserve
                     else z_extent * 1.5)
            with span("tables", n=n, media=len(stale)):
                built = build([ks[i] for i in stale], max(cover, 1e-6))
            for i, tables in zip(stale, built):
                self._tables[full[i]] = tables
            self._table_builds.inc(len(stale))
        return [self._tables[key] for key in full]

    @staticmethod
    def _height_extent(meshes: list) -> float:
        """Largest in-sample height range of a chunk, the ``|dz|`` its
        kernel tables must cover."""
        z = np.stack([mesh.z for mesh in meshes])
        z_extent = float(np.max(np.ptp(z, axis=1)))
        if not np.isfinite(z_extent):
            # Tables cannot be sized for it; fail like a non-finite
            # assembly would.
            raise SolverError("mesh heights contain non-finite values")
        return z_extent

    def solve(self, heights_m: np.ndarray, period_m: float,
              frequency_hz: float) -> SWMResult:
        """Solve for a height map (a profile in 2D) given in meters on a
        patch of period ``period_m`` meters, at ``frequency_hz``."""
        heights_um = np.asarray(heights_m, dtype=np.float64) * METER_TO_UM
        mesh = self._build_mesh(heights_um, float(period_m) * METER_TO_UM)
        return self._solve_stack([mesh], [frequency_hz], stacklevel=4)[0][0]

    def solve_um(self, heights_um: np.ndarray, period_um: float,
                 frequency_hz: float) -> SWMResult:
        """Same as :meth:`solve` with the geometry already in micrometers."""
        mesh = self._build_mesh(np.asarray(heights_um, dtype=np.float64),
                                float(period_um))
        return self._solve_stack([mesh], [frequency_hz], stacklevel=4)[0][0]

    def solve_mesh(self, mesh: SurfaceMesh3D | SurfaceMesh2D,
                   frequency_hz: float) -> SWMResult:
        """Solve on a prebuilt (micrometer-unit) mesh."""
        return self._solve_stack([mesh], [frequency_hz], stacklevel=4)[0][0]

    # ------------------------------------------------------------------
    # Batched sample solves (the MC/SSCM hot path)
    # ------------------------------------------------------------------

    def solve_many(self, heights_m: np.ndarray, period_m: float,
                   frequency_hz: float) -> list[SWMResult]:
        """Batched :meth:`solve` for a ``(B, n, n)`` stack of height maps
        (a ``(B, n)`` stack of profiles in 2D).

        Results are bit-identical to calling :meth:`solve` per map (same
        kernel values, same factorization call), but the B dense
        systems are assembled with the sample axis vectorized and
        factored as one stacked ``(B, 2n, 2n)`` batch.
        """
        heights_um = np.asarray(heights_m, dtype=np.float64) * METER_TO_UM
        return self._solve_many_um(heights_um, float(period_m) * METER_TO_UM,
                                   frequency_hz, stacklevel=5)

    def solve_many_um(self, heights_um: np.ndarray, period_um: float,
                      frequency_hz: float) -> list[SWMResult]:
        """Same as :meth:`solve_many` with geometry in micrometers."""
        return self._solve_many_um(np.asarray(heights_um, dtype=np.float64),
                                   float(period_um), frequency_hz,
                                   stacklevel=5)

    def solve_mesh_many(self, meshes: list[SurfaceMesh3D | SurfaceMesh2D],
                        frequency_hz: float) -> list[SWMResult]:
        """Batched :meth:`solve_mesh` over prebuilt same-grid meshes."""
        return self._solve_stack(list(meshes), [frequency_hz],
                                 stacklevel=4)[0]

    def _solve_many_um(self, heights_um: np.ndarray, period_um: float,
                       frequency_hz: float, stacklevel: int
                       ) -> list[SWMResult]:
        if heights_um.ndim != self._stack_rank:
            raise ConfigurationError(
                f"batched heights must be a {self._stack_rank}-D (B, ...) "
                f"stack, got shape {heights_um.shape}"
            )
        return self._solve_stack(self._build_meshes(heights_um, period_um),
                                 [frequency_hz], stacklevel)[0]

    def _build_meshes(self, heights_um: np.ndarray, period_um: float
                      ) -> list:
        """One mesh per height stack entry (2D profiles, one at a time;
        :class:`SWMSolver3D` builds its maps' slopes from one FFT)."""
        return [self._build_mesh(h, period_um) for h in heights_um]

    def _check_resolution(self, spacing_um: float, frequency_hz: float,
                          stacklevel: int) -> None:
        """Warn when the mesh cannot resolve the skin depth.

        The paper meshes at delta/5 for the rapid field variation inside
        the conductor; results degrade (Pr/Ps can even dip below 1) once
        the spacing exceeds ~1.5 skin depths. ``stacklevel`` is threaded
        from the public entry point so the warning points at the *user's*
        call site, not a solver-internal frame.
        """
        delta_um = self.system.delta(frequency_hz) * METER_TO_UM
        if spacing_um > 1.5 * delta_um:
            warnings.warn(
                f"SWM mesh spacing {spacing_um:.3g} um exceeds 1.5x the skin "
                f"depth {delta_um:.3g} um at {frequency_hz / 1e9:.3g} GHz; "
                "the enhancement factor is discretization-limited here "
                "(refine the grid or lower the frequency)",
                RuntimeWarning,
                stacklevel=stacklevel,
            )

    # ------------------------------------------------------------------

    def _wavenumbers_um(self, frequency_hz: float) -> tuple[complex, complex]:
        """(k1, k2) converted to 1/um."""
        k1 = self.system.k1(frequency_hz) / METER_TO_UM
        k2 = self.system.k2(frequency_hz) / METER_TO_UM
        return k1, k2

    def solve_mesh_many_multi_k(
            self, meshes: list[SurfaceMesh3D | SurfaceMesh2D],
            frequencies_hz) -> list[list[SWMResult]]:
        """Solve a same-grid mesh batch at several frequencies at once.

        The multi-frequency hot path: each sample chunk's k-independent
        assembly plan (:class:`~repro.swm.plan.AssemblyPlan3D` or
        :class:`~repro.swm.plan.AssemblyPlan2D`) is built once and
        consumed by every frequency's media (2 x F per-k assemblies
        share one plan and one fused kernel pass), instead of being
        recomputed per frequency. Returns one ``list[SWMResult]`` per
        frequency (outer index follows ``frequencies_hz``),
        **bit-identical** to calling :meth:`solve_mesh_many` once per
        frequency on this or any other solver (same chunking, same
        kernel values, same factorization call).
        """
        return self._solve_stack(list(meshes), frequencies_hz, stacklevel=4)

    def chunk_size(self, n_unknowns: int) -> int:
        """Samples per stacked chunk on a mesh of ``n_unknowns`` points.

        The most samples whose working set per frequency fits
        :data:`_CHUNK_BYTES` next to the near block: per sample one
        ``(2N, 2N)`` system and both media's ``(M,)`` kernel-pass arrays
        (``M = N(N-1)/2`` pairs). This budget alone decides how every
        solve stacks. Chunking is invisible to results (each chunk is
        assembled and factored exactly as a standalone batch).
        """
        pairs = n_unknowns * (n_unknowns - 1) // 2
        per_sample = 16 * (4 * n_unknowns * n_unknowns
                           + 2 * self._kernel_parts * pairs)
        return max(1, (_CHUNK_BYTES - _NEAR_BYTES) // per_sample)

    def _solve_stack(self, meshes: list, frequencies_hz,
                     stacklevel: int) -> list[list[SWMResult]]:
        """The solve kernel behind :meth:`solve_mesh_many_multi_k`.

        Every solve of both solvers runs here: a single solve is one
        mesh at one frequency, a batched solve one frequency. The
        meshes run in chunks of :meth:`chunk_size`; one buffer of
        ``F`` block systems serves every chunk of the call, since each
        chunk's writes cover all of its systems' entries.
        ``stacklevel`` is the resolution warning's, threaded from the
        public entry point.
        """
        check_same_grid(meshes, "batched solve")
        freqs = [float(f) for f in frequencies_hz]
        if not freqs:
            raise ConfigurationError(
                "multi-frequency solve needs at least one frequency"
            )
        base = meshes[0]
        for f in freqs:
            self._check_resolution(base.spacing, f, stacklevel=stacklevel)
        ks = [self._wavenumbers_um(f) for f in freqs]

        n = base.size
        stack = min(len(meshes), self.chunk_size(n))
        # One buffer per frequency, not one for all: glibc raises its
        # mmap threshold to the largest block freed, and a block F times
        # larger moves every later temporary onto the heap.
        systems = [np.empty((stack, 2 * n, 2 * n), dtype=np.complex128)
                   for _ in freqs]
        results: list[list[SWMResult]] = [[] for _ in freqs]
        for lo in range(0, len(meshes), stack):
            sub = meshes[lo:lo + stack]
            nb = len(sub)
            meta = {"n": n, "batch": nb, "freqs": len(freqs)}
            write = self._chunk_assembly(sub, freqs, ks, meta)
            chunk = [a[:nb] for a in systems]
            blocks = [rows for a, f, (_, k2) in zip(chunk, freqs, ks)
                      for rows in self._medium_blocks(a, f, k2)]
            with span("assemble", **meta):
                write(blocks)
            for a, f, (k1, k2), out in zip(chunk, freqs, ks, results):
                sol = self._factor_stack(a, self._incident(sub, k1), n, nb)
                out.extend(self._finish_many(sub, f, sol[:, :n],
                                             sol[:, n:] * abs(k2)))
        return results

    def _medium_blocks(self, a: np.ndarray, frequency_hz: float,
                       k2: complex) -> tuple[MediumBlocks, MediumBlocks]:
        """The two block rows of the coupled ``(B, 2n, 2n)`` systems
        ``a`` at one frequency: ``½I - D1 | (β S1) s`` and ``½I + D2 |
        (-S2) s``, with the column scaling ``s = |k2|`` that solves for
        ``v_hat = v / |k2|`` so both unknown blocks are O(1) (``v ~ k2
        psi`` for a good conductor)."""
        beta = self.system.beta(frequency_hz)
        scale_v = abs(k2)

        def beta_scaled(s: np.ndarray) -> None:
            np.multiply(beta, s, out=s)
            np.multiply(s, scale_v, out=s)

        def negated_scaled(s: np.ndarray) -> None:
            np.negative(s, out=s)
            np.multiply(s, scale_v, out=s)

        n = a.shape[-1] // 2
        return (MediumBlocks(a, 0, -1.0, 0.5, beta_scaled),
                MediumBlocks(a, n, 1.0, 0.5, negated_scaled))

    @staticmethod
    def _incident(meshes: list, k1: complex) -> np.ndarray:
        """The ``(B, 2n)`` right-hand sides: the incident field on the
        surface, zero in the second block row."""
        n = meshes[0].size
        rhs = np.zeros((len(meshes), 2 * n), dtype=np.complex128)
        # z is materialized so the -1j*k1 multiply cannot elide into
        # the stack temporary; the per-sample path multiplies a held
        # mesh.z reference, and parity with it is asserted bit-exact.
        z = np.stack([m.z for m in meshes])
        rhs[:, :n] = np.exp(-1j * k1 * z)
        return rhs

    def _factor_stack(self, a: np.ndarray, rhs: np.ndarray,
                      n: int, nb: int) -> np.ndarray:
        """Finite-check and factor one stacked batch.

        Every solve factors here — a single sample is a batch of one —
        so per-sample and stacked solutions come from the same
        ``np.linalg.solve`` call and one LAPACK build, and agree bit for
        bit whatever BLAS threading is in effect.
        """
        if not np.all(np.isfinite(a)):
            raise SolverError("assembled SWM matrix contains non-finite "
                              "entries")
        try:
            with span("factor", n=n, batch=nb):
                sol = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"dense solve failed: {exc}") from exc
        if not np.all(np.isfinite(sol)):
            raise SolverError("SWM solution contains non-finite entries "
                              "(singular system?)")
        return sol

    def _finish_many(self, meshes: list, frequency_hz: float,
                     psi: np.ndarray, v: np.ndarray) -> list[SWMResult]:
        """Vectorized power evaluation over the sample stack."""
        with span("power", batch=len(meshes)):
            elements = np.stack([self._elements(m) for m in meshes])
            pr = 0.5 * np.sum(np.real(np.conj(psi) * v) * elements, axis=1)
            ps = self.smooth_power(meshes[0].period, frequency_hz)
        if ps <= 0.0:
            raise SolverError("smooth-surface reference power is non-positive")
        return [
            SWMResult(
                frequency_hz=float(frequency_hz),
                enhancement=float(pr[i]) / ps,
                absorbed_power=float(pr[i]),
                smooth_power=ps,
                psi=psi[i],
                v=v[i],
                mesh=mesh,
            )
            for i, mesh in enumerate(meshes)
        ]


class SWMSolver3D(_SWMSolver):
    """Deterministic 3D SWM solver for one dielectric/conductor system.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.constants import UM, GHZ
    >>> from repro.swm.solver import SWMSolver3D
    >>> solver = SWMSolver3D()
    >>> flat = np.zeros((8, 8))
    >>> res = solver.solve(flat, period_m=5 * UM, frequency_hz=5 * GHZ)
    >>> abs(res.enhancement - 1.0) < 0.05
    True
    """

    _stack_rank = 3
    _kernel_parts = 4
    _build_mesh = staticmethod(build_mesh_3d)
    _build_meshes = staticmethod(build_meshes_3d)
    _options_type = SWMOptions
    _table_builds = _M_TABLE_BUILDS

    def _get_tables(self, which: int, k: complex, frequency_hz: float,
                    meshes: list[SurfaceMesh3D]):
        """The cached tables of one medium, frequency and grid
        (:meth:`_cached_tables`), built as one :class:`KernelTables`."""
        from .fastkernel import KernelTables

        def build(ks: list[complex], z_extent: float) -> list:
            cfg = self.options.assembly.ewald_config(meshes[0].period)
            return [KernelTables(kk, cfg, meshes[0].n, z_extent=z_extent)
                    for kk in ks]

        return self._cached_tables([(which, frequency_hz)], [k], meshes,
                                   build)[0]

    def _chunk_assembly(self, meshes: list[SurfaceMesh3D],
                        freqs: list[float],
                        ks: list[tuple[complex, complex]], meta: dict
                        ) -> Callable[[list], None]:
        """Each medium's kernel evaluator (:meth:`AssemblyOptions.kernel`:
        the cached tables, built or grown here, or exact Ewald), then
        the ``plan`` span; the call runs one kernel pass and writes
        every medium on the one plan, whichever kernel it is."""
        opts = self.options.assembly
        period = meshes[0].period
        media = [(k, opts.kernel(k, period, partial(self._get_tables, which,
                                                    k, f, meshes)))
                 for f, pair in zip(freqs, ks)
                 for which, k in enumerate(pair, 1)]
        with span("plan", **meta):
            plan = AssemblyPlan3D.build(meshes, opts)
        return lambda blocks: plan.write(media, blocks)

    @staticmethod
    def _elements(mesh: SurfaceMesh3D) -> np.ndarray:
        """True patch areas, the ``dS`` of the power integral."""
        return mesh.true_areas()

    def smooth_power(self, period_um: float, frequency_hz: float) -> float:
        """Smooth-surface absorbed power ``|T0|^2 L^2 / (2 delta)``.

        Units consistent with :meth:`solve` (micrometer lengths).
        """
        if period_um <= 0.0:
            raise ConfigurationError(
                f"period must be positive, got {period_um}"
            )
        delta_um = self.system.delta(frequency_hz) * METER_TO_UM
        t0 = self.system.flat_transmission(frequency_hz)
        return abs(t0) ** 2 * period_um ** 2 / (2.0 * delta_um)

